//! ResNet-50 training-iteration graph (He et al., CVPR 2016).

use dlperf_graph::{Graph, TensorId};

use super::{Chw, ConvNet};

/// One bottleneck block: 1×1 reduce → 3×3 → 1×1 expand, with a projection
/// shortcut when shape changes.
fn bottleneck(
    net: &mut ConvNet,
    x: TensorId,
    in_chw: Chw,
    width: u64,
    c_out: u64,
    stride: u64,
) -> (TensorId, Chw) {
    let (c_in, _, _) = in_chw;
    let (h1, s1) = net.conv_bn(x, in_chw, width, 1, 1, 1, 0, true);
    let (h2, s2) = net.conv_bn(h1, s1, width, 3, 3, stride, 1, true);
    let (h3, s3) = net.conv_bn(h2, s2, c_out, 1, 1, 1, 0, false);

    let (short, _) = if c_in != c_out || stride != 1 {
        net.conv_bn(x, in_chw, c_out, 1, 1, stride, 0, false)
    } else {
        (x, in_chw)
    };

    let sum = net.act(s3);
    let name = format!("residual_add_{}", s3.0);
    net.tape.add(&mut net.g, &name, h3, short, sum);
    let out = net.act(s3);
    net.tape.unary(
        &mut net.g,
        "residual_relu",
        dlperf_graph::OpKind::Relu,
        dlperf_graph::OpKind::ReluBackward,
        sum,
        out,
        vec![out],
    );
    (out, s3)
}

/// Builds the ResNet-50 training iteration (forward + backward + optimizer)
/// for a `batch × 3 × 224 × 224` input.
///
/// # Panics
/// Panics if `batch` is zero.
pub fn resnet50(batch: u64) -> Graph {
    assert!(batch > 0, "batch size must be positive");
    let (mut net, x) = ConvNet::new("ResNet50", batch, (3, 224, 224));

    // Stem: 7x7/2 conv + 3x3/2 max pool.
    let (h, s) = net.conv_bn(x, (3, 224, 224), 64, 7, 7, 2, 3, true);
    let (mut h, mut s) = net.max_pool(h, s, 3, 2, 1);

    // The four stages: (blocks, width, out channels, first-block stride).
    let stages: [(usize, u64, u64, u64); 4] = [
        (3, 64, 256, 1),
        (4, 128, 512, 2),
        (6, 256, 1024, 2),
        (3, 512, 2048, 2),
    ];
    for (blocks, width, c_out, stride) in stages {
        for i in 0..blocks {
            let st = if i == 0 { stride } else { 1 };
            let (nh, ns) = bottleneck(&mut net, h, s, width, c_out, st);
            h = nh;
            s = ns;
        }
    }

    net.finish_classifier(h, s, 1000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlperf_gpusim::KernelFamily;
    use dlperf_graph::{lower, OpKind};

    #[test]
    fn builds_valid_graph() {
        let g = resnet50(32);
        assert!(g.validate().is_ok());
        assert!(lower::lower_graph(&g).is_ok());
    }

    #[test]
    fn has_53_forward_convolutions() {
        let g = resnet50(8);
        let convs = g
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, OpKind::Conv2d { .. }))
            .count();
        // 1 stem + 16 blocks × 3 + 4 projection shortcuts = 53.
        assert_eq!(convs, 53);
        let conv_bwd = g
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, OpKind::Conv2dBackward { .. }))
            .count();
        assert_eq!(conv_bwd, 53);
    }

    #[test]
    fn compute_dominated_by_conv_kernels() {
        let g = resnet50(8);
        let mut conv_flops = 0.0;
        let mut total_flops = 0.0;
        for (_, ks) in lower::lower_graph(&g).unwrap() {
            for k in ks {
                total_flops += k.flops();
                if k.family() == KernelFamily::Conv2d {
                    conv_flops += k.flops();
                }
            }
        }
        assert!(
            conv_flops / total_flops > 0.9,
            "conv share {}",
            conv_flops / total_flops
        );
    }

    #[test]
    fn batch_resize_supported() {
        let mut g = resnet50(16);
        dlperf_graph::transform::resize_batch(&mut g, 64).unwrap();
        assert!(lower::lower_graph(&g).is_ok());
    }
}
