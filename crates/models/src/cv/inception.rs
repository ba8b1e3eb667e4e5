//! Inception-V3 training-iteration graph (Szegedy et al., CVPR 2016).
//!
//! Faithful at the module level: the stem, three Inception-A modules, the
//! grid reduction, four Inception-B modules with the factorized 1×7 / 7×1
//! convolutions (the filters the paper points to when MLPredict fails), a
//! second reduction, and two Inception-C modules.

use dlperf_graph::{Graph, TensorId};

use super::{Chw, ConvNet};

/// Inception-A: 1×1, 5×5 (factored through 1×1), double-3×3, and pool
/// branches concatenated.
fn inception_a(net: &mut ConvNet, x: TensorId, s: Chw, pool_c: u64) -> (TensorId, Chw) {
    let b1 = net.conv_bn(x, s, 64, 1, 1, 1, 0, true);
    let (b2a, s2a) = net.conv_bn(x, s, 48, 1, 1, 1, 0, true);
    let b2 = net.conv_bn(b2a, s2a, 64, 5, 5, 1, 2, true);
    let (b3a, s3a) = net.conv_bn(x, s, 64, 1, 1, 1, 0, true);
    let (b3b, s3b) = net.conv_bn(b3a, s3a, 96, 3, 3, 1, 1, true);
    let b3 = net.conv_bn(b3b, s3b, 96, 3, 3, 1, 1, true);
    let (p, sp) = net.avg_pool_same(x, s);
    let b4 = net.conv_bn(p, sp, pool_c, 1, 1, 1, 0, true);
    net.cat_channels(vec![b1, b2, b3, b4])
}

/// Grid reduction 35×35 → 17×17.
fn reduction_a(net: &mut ConvNet, x: TensorId, s: Chw) -> (TensorId, Chw) {
    let b1 = net.conv_bn(x, s, 384, 3, 3, 2, 0, true);
    let (b2a, s2a) = net.conv_bn(x, s, 64, 1, 1, 1, 0, true);
    let (b2b, s2b) = net.conv_bn(b2a, s2a, 96, 3, 3, 1, 1, true);
    let b2 = net.conv_bn(b2b, s2b, 96, 3, 3, 2, 0, true);
    let b3 = net.max_pool(x, s, 3, 2, 0);
    net.cat_channels(vec![b1, b2, b3])
}

/// Inception-B with factorized 7×7 convolutions (1×7 then 7×1).
fn inception_b(net: &mut ConvNet, x: TensorId, s: Chw, c7: u64) -> (TensorId, Chw) {
    let b1 = net.conv_bn(x, s, 192, 1, 1, 1, 0, true);

    let (b2a, s2a) = net.conv_bn(x, s, c7, 1, 1, 1, 0, true);
    let (b2b, s2b) = net.conv_bn(b2a, s2a, c7, 1, 7, 1, 3, true);
    let b2 = net.conv_bn(b2b, s2b, 192, 7, 1, 1, 3, true);

    let (b3a, s3a) = net.conv_bn(x, s, c7, 1, 1, 1, 0, true);
    let (b3b, s3b) = net.conv_bn(b3a, s3a, c7, 7, 1, 1, 3, true);
    let (b3c, s3c) = net.conv_bn(b3b, s3b, c7, 1, 7, 1, 3, true);
    let (b3d, s3d) = net.conv_bn(b3c, s3c, c7, 7, 1, 1, 3, true);
    let b3 = net.conv_bn(b3d, s3d, 192, 1, 7, 1, 3, true);

    let (p, sp) = net.avg_pool_same(x, s);
    let b4 = net.conv_bn(p, sp, 192, 1, 1, 1, 0, true);
    net.cat_channels(vec![b1, b2, b3, b4])
}

/// Grid reduction 17×17 → 8×8.
fn reduction_b(net: &mut ConvNet, x: TensorId, s: Chw) -> (TensorId, Chw) {
    let (b1a, s1a) = net.conv_bn(x, s, 192, 1, 1, 1, 0, true);
    let b1 = net.conv_bn(b1a, s1a, 320, 3, 3, 2, 0, true);
    let (b2a, s2a) = net.conv_bn(x, s, 192, 1, 1, 1, 0, true);
    let (b2b, s2b) = net.conv_bn(b2a, s2a, 192, 1, 7, 1, 3, true);
    let (b2c, s2c) = net.conv_bn(b2b, s2b, 192, 7, 1, 1, 3, true);
    let b2 = net.conv_bn(b2c, s2c, 192, 3, 3, 2, 0, true);
    let b3 = net.max_pool(x, s, 3, 2, 0);
    net.cat_channels(vec![b1, b2, b3])
}

/// Inception-C (expanded 8×8 modules with split 1×3 / 3×1 branches).
fn inception_c(net: &mut ConvNet, x: TensorId, s: Chw) -> (TensorId, Chw) {
    let b1 = net.conv_bn(x, s, 320, 1, 1, 1, 0, true);

    let (b2a, s2a) = net.conv_bn(x, s, 384, 1, 1, 1, 0, true);
    let b2l = net.conv_bn(b2a, s2a, 384, 1, 3, 1, 1, true);
    let b2r = net.conv_bn(b2a, s2a, 384, 3, 1, 1, 1, true);

    let (b3a, s3a) = net.conv_bn(x, s, 448, 1, 1, 1, 0, true);
    let (b3b, s3b) = net.conv_bn(b3a, s3a, 384, 3, 3, 1, 1, true);
    let b3l = net.conv_bn(b3b, s3b, 384, 1, 3, 1, 1, true);
    let b3r = net.conv_bn(b3b, s3b, 384, 3, 1, 1, 1, true);

    let (p, sp) = net.avg_pool_same(x, s);
    let b4 = net.conv_bn(p, sp, 192, 1, 1, 1, 0, true);
    net.cat_channels(vec![b1, b2l, b2r, b3l, b3r, b4])
}

/// Builds the Inception-V3 training iteration for a `batch × 3 × 299 × 299`
/// input.
///
/// # Panics
/// Panics if `batch` is zero.
pub fn inception_v3(batch: u64) -> Graph {
    assert!(batch > 0, "batch size must be positive");
    let (mut net, x) = ConvNet::new("InceptionV3", batch, (3, 299, 299));

    // Stem.
    let (h, s) = net.conv_bn(x, (3, 299, 299), 32, 3, 3, 2, 0, true); // 149
    let (h, s) = net.conv_bn(h, s, 32, 3, 3, 1, 0, true); // 147
    let (h, s) = net.conv_bn(h, s, 64, 3, 3, 1, 1, true); // 147
    let (h, s) = net.max_pool(h, s, 3, 2, 0); // 73
    let (h, s) = net.conv_bn(h, s, 80, 1, 1, 1, 0, true);
    let (h, s) = net.conv_bn(h, s, 192, 3, 3, 1, 0, true); // 71
    let (h, s) = net.max_pool(h, s, 3, 2, 0); // 35

    // 3 × Inception-A.
    let (h, s) = inception_a(&mut net, h, s, 32);
    let (h, s) = inception_a(&mut net, h, s, 64);
    let (h, s) = inception_a(&mut net, h, s, 64);
    // Reduction.
    let (h, s) = reduction_a(&mut net, h, s); // 17
                                              // 4 × Inception-B with 1×7 / 7×1 filters.
    let (h, s) = inception_b(&mut net, h, s, 128);
    let (h, s) = inception_b(&mut net, h, s, 160);
    let (h, s) = inception_b(&mut net, h, s, 160);
    let (h, s) = inception_b(&mut net, h, s, 192);
    // Reduction.
    let (h, s) = reduction_b(&mut net, h, s); // 8
                                              // 2 × Inception-C.
    let (h, s) = inception_c(&mut net, h, s);
    let (h, s) = inception_c(&mut net, h, s);

    net.finish_classifier(h, s, 1000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlperf_graph::{lower, OpKind};

    #[test]
    fn builds_valid_graph() {
        let g = inception_v3(32);
        assert!(g.validate().is_ok());
        assert!(lower::lower_graph(&g).is_ok());
    }

    #[test]
    fn contains_factorized_filters() {
        let g = inception_v3(8);
        let mut has_1x7 = false;
        let mut has_7x1 = false;
        for (_, ks) in lower::lower_graph(&g).unwrap() {
            for k in ks {
                if let dlperf_gpusim::KernelSpec::Conv2d { kh, kw, .. } = k {
                    has_1x7 |= kh == 1 && kw == 7;
                    has_7x1 |= kh == 7 && kw == 1;
                }
            }
        }
        assert!(
            has_1x7 && has_7x1,
            "Inception must contain 1x7 and 7x1 convolutions"
        );
    }

    #[test]
    fn final_channels_are_2048() {
        let g = inception_v3(4);
        // The classifier FC weight must be 1000 × 2048.
        let fc = g
            .nodes()
            .iter()
            .find(|n| n.name == "fc" && n.op == OpKind::AddMm)
            .expect("fc layer present");
        assert_eq!(g.tensor(fc.inputs[1]).shape, vec![1000, 2048]);
    }

    #[test]
    fn deeper_than_resnet_in_op_count() {
        let inc = inception_v3(4).node_count();
        let res = super::super::resnet50(4).node_count();
        assert!(inc > res, "inception {inc} vs resnet {res}");
    }
}
