//! 2-D convolution kernels, lowered to implicit GEMM as cuDNN does.
//!
//! Convolutions are not part of DLRM, but the paper extends its
//! microbenchmarks to convolution and batch normalization in order to
//! predict ResNet-50 and Inception-V3 (Fig. 10). The simulator maps a conv
//! onto the GEMM timing model with a shape-dependent efficiency discount
//! (im2col addressing, halo reads), so small or skewed filters (1×7, 7×1)
//! behave worse than square 3×3 ones — the effect the paper blames for
//! MLPredict's failures on Inception.

use crate::device::DeviceSpec;
use crate::gemm;
use crate::kernel::KernelSpec;

/// Output spatial size of a convolution along one axis.
///
/// The padding is clamped to `(k − 1) / 2` on each axis, so a single `pad`
/// value expresses "same" padding for asymmetric filters too: a 1×7 filter
/// with `pad = 3` pads only the width.
pub fn out_dim(input: u64, k: u64, stride: u64, pad: u64) -> u64 {
    let pad = pad.min((k - 1) / 2);
    (input + 2 * pad - k) / stride + 1
}

/// Output `(height, width)` of a conv/pool window — the shape helper model
/// builders use so graph tensor shapes agree with the simulator.
pub fn conv_out_hw(h: u64, w: u64, kh: u64, kw: u64, stride: u64, pad: u64) -> (u64, u64) {
    (out_dim(h, kh, stride, pad), out_dim(w, kw, stride, pad))
}

/// The implicit-GEMM problem `(m, n, k, batch)` a conv lowers to:
/// `m = OH·OW`, `n = C_out`, `k = C_in·KH·KW`, batched over images.
pub fn implicit_gemm_shape(kernel: &KernelSpec) -> (u64, u64, u64, u64) {
    let KernelSpec::Conv2d {
        batch,
        c_in,
        h,
        w,
        c_out,
        kh,
        kw,
        stride,
        pad,
    } = *kernel
    else {
        panic!("implicit_gemm_shape called with {kernel:?}");
    };
    let (oh, ow) = conv_out_hw(h, w, kh, kw, stride, pad);
    (oh * ow, c_out, c_in * kh * kw, batch)
}

/// Shape-dependent efficiency of the implicit-GEMM lowering relative to a
/// plain GEMM of the same size.
fn lowering_efficiency(kh: u64, kw: u64, c_in: u64) -> f64 {
    // Square 3x3 over deep channels is the sweet spot; 1xN / Nx1 filters and
    // shallow inputs pay heavily for poor data reuse in the implicit GEMM.
    let aspect = (kh.max(kw) as f64 / kh.min(kw) as f64).min(8.0);
    let aspect_penalty = 1.0 / (1.0 + 0.22 * (aspect - 1.0));
    let depth_bonus = (c_in as f64 / (c_in as f64 + 16.0)).max(0.3);
    (0.92 * aspect_penalty * depth_bonus).clamp(0.25, 0.92)
}

/// Simulates a 2-D convolution.
pub fn simulate(device: &DeviceSpec, kernel: &KernelSpec) -> f64 {
    let KernelSpec::Conv2d { kh, kw, c_in, .. } = *kernel else {
        panic!("conv::simulate called with {kernel:?}");
    };
    let (m, n, k, batch) = implicit_gemm_shape(kernel);
    assert!(
        m > 0 && n > 0 && k > 0,
        "convolution produced an empty GEMM"
    );
    let gemm_time = gemm::simulate(device, &KernelSpec::Gemm { m, n, k, batch });
    // Remove the GEMM launch floor before scaling, then re-apply it once.
    let body = (gemm_time - device.kernel_start_us).max(0.0);
    body / lowering_efficiency(kh, kw, c_in) + device.kernel_start_us
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv(batch: u64, c_in: u64, hw: u64, c_out: u64, k: u64) -> KernelSpec {
        KernelSpec::Conv2d {
            batch,
            c_in,
            h: hw,
            w: hw,
            c_out,
            kh: k,
            kw: k,
            stride: 1,
            pad: k / 2,
        }
    }

    #[test]
    fn out_dim_formula() {
        assert_eq!(out_dim(56, 3, 1, 1), 56);
        assert_eq!(out_dim(224, 7, 2, 3), 112);
        assert_eq!(out_dim(28, 1, 1, 0), 28);
    }

    #[test]
    fn asymmetric_filter_same_padding() {
        // 1x7 filter with pad 3: height unchanged (pad clamped to 0 on the
        // k=1 axis), width unchanged (pad 3 on the k=7 axis).
        assert_eq!(conv_out_hw(17, 17, 1, 7, 1, 3), (17, 17));
        assert_eq!(conv_out_hw(17, 17, 7, 1, 1, 3), (17, 17));
    }

    #[test]
    fn implicit_gemm_shape_of_resnet_block() {
        let k = conv(32, 64, 56, 64, 3);
        let (m, n, kk, b) = implicit_gemm_shape(&k);
        assert_eq!((m, n, kk, b), (56 * 56, 64, 64 * 9, 32));
    }

    #[test]
    fn skewed_filters_less_efficient() {
        let d = DeviceSpec::v100();
        let square = KernelSpec::Conv2d {
            batch: 32,
            c_in: 128,
            h: 17,
            w: 17,
            c_out: 128,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        let skew = KernelSpec::Conv2d {
            batch: 32,
            c_in: 128,
            h: 17,
            w: 17,
            c_out: 128,
            kh: 1,
            kw: 7,
            stride: 1,
            pad: 0,
        };
        let sq_t = simulate(&d, &square);
        let sk_t = simulate(&d, &skew);
        let sq_per_flop = sq_t / square.flops();
        let sk_per_flop = sk_t / skew.flops();
        assert!(
            sk_per_flop > sq_per_flop,
            "1x7 should be less efficient per flop"
        );
    }

    #[test]
    fn conv_time_positive_and_scales_with_batch() {
        let d = DeviceSpec::titan_xp();
        let t32 = simulate(&d, &conv(32, 64, 56, 64, 3));
        let t64 = simulate(&d, &conv(64, 64, 56, 64, 3));
        assert!(t32 > 0.0);
        assert!(t64 > 1.5 * t32);
    }
}
