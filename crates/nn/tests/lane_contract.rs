//! Property tests for the lane-reduction accumulation contract.
//!
//! The pinned numeric contract of every dot product in this crate (and
//! therefore of training, inference, and the persisted-model envelope) is
//! the W=4 lane reduction: lane `l` accumulates elements `k ≡ l (mod 4)`
//! in ascending `k`, exact-zero *left* operands are skipped per lane, and
//! the four partials reduce in the fixed tree `(a0+a1) + (a2+a3)`. These
//! tests pin the SIMD-friendly kernel to the scalar emulation bit for bit
//! across the shapes that historically break such contracts: remainder
//! tails of every residue, zeros landing on every lane, non-finite
//! right-hand operands under a zero left, and empty inputs.

use dlperf_nn::matrix::Matrix;
use dlperf_nn::{lane_dot, lane_dot_reference, LANES};
use proptest::prelude::*;

/// Values that include exact zeros often enough to exercise the skip on
/// every lane, alongside ordinary magnitudes.
fn element() -> impl Strategy<Value = f64> {
    prop_oneof![-10.0f64..10.0, Just(0.0f64), Just(-0.0f64)]
}

fn vec_pair(max_len: usize) -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (0..=max_len).prop_flat_map(|k| {
        (
            proptest::collection::vec(element(), k),
            proptest::collection::vec(-10.0f64..10.0, k),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The batched kernel and the scalar lane emulation agree bitwise on
    /// every length — chunked bodies and remainder tails of all residues
    /// mod W.
    #[test]
    fn lane_dot_matches_reference_bitwise((x, w) in vec_pair(41)) {
        prop_assert_eq!(
            lane_dot(&x, &w).to_bits(),
            lane_dot_reference(&x, &w).to_bits(),
            "lane kernel diverged from scalar emulation at k={}", x.len()
        );
    }

    /// Zero-skip is a *true* skip on every lane: with an exact-zero left
    /// operand, the right operand never enters the arithmetic — even when
    /// it is inf or NaN, which `acc + 0.0 * w` would poison.
    #[test]
    fn zero_left_skips_nonfinite_right_on_every_lane(
        (x, mut w) in vec_pair(4 * LANES + 3),
        poison in proptest::collection::vec(
            prop_oneof![Just(f64::INFINITY), Just(f64::NEG_INFINITY), Just(f64::NAN)],
            0..8,
        ),
    ) {
        let clean = lane_dot(&x, &w);
        let zero_positions: Vec<usize> =
            (0..x.len()).filter(|&i| x[i] == 0.0).collect();
        for (j, p) in poison.into_iter().enumerate() {
            if let Some(&i) = zero_positions.get(j) {
                w[i] = p;
            }
        }
        prop_assert_eq!(
            lane_dot(&x, &w).to_bits(),
            clean.to_bits(),
            "a zero-skipped slot leaked its right operand into the sum"
        );
        prop_assert_eq!(lane_dot(&x, &w).to_bits(), lane_dot_reference(&x, &w).to_bits());
    }

    /// Remainder elements keep their lane assignment: padding both vectors
    /// with `(0.0, finite)` pairs up to the next multiple of W changes
    /// nothing — the pad slots are skipped in whatever lane they fall.
    #[test]
    fn zero_padding_to_full_width_is_invisible((x, w) in vec_pair(33), pad_w in -10.0f64..10.0) {
        let base = lane_dot(&x, &w);
        let (mut xp, mut wp) = (x, w);
        while !xp.len().is_multiple_of(LANES) {
            xp.push(0.0);
            wp.push(pad_w);
        }
        prop_assert_eq!(lane_dot(&xp, &wp).to_bits(), base.to_bits());
    }

    /// The batched matmul is *defined* as the lane contract applied per
    /// output element: it matches an element-by-element `lane_dot` over
    /// transposed stripes bitwise, for every shape including empty batches
    /// (zero rows).
    #[test]
    fn matmul_is_lane_dot_per_element_bitwise(
        (m, k, n) in (0usize..5, 1usize..9, 1usize..6),
        seed in 0u64..u64::MAX,
    ) {
        // Deterministic fill with planted zeros, from the seed.
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            match (s >> 60) & 3 {
                0 => 0.0,
                _ => ((s >> 11) as f64 / (1u64 << 53) as f64) * 8.0 - 4.0,
            }
        };
        let a = Matrix::from_fn(m, k, |_, _| next());
        let b = Matrix::from_fn(k, n, |_, _| next());
        let c = a.matmul(&b);
        prop_assert_eq!(c.rows(), m);
        prop_assert_eq!(c.cols(), n);
        let bt = b.transpose();
        for i in 0..m {
            for j in 0..n {
                prop_assert_eq!(
                    c.at(i, j).to_bits(),
                    lane_dot(a.row(i), bt.row(j)).to_bits(),
                    "element ({}, {}) broke the lane contract", i, j
                );
            }
        }
    }

    /// The training row kernel is the same contract by another loop
    /// order: every element of `matmul_rows` equals `lane_dot` over the
    /// row and the transposed column, bitwise. Inner sizes up to 70 hit
    /// every residue mod W across several chunks, and widths up to 64
    /// cover the hidden layers of every calibration config. About one
    /// inner index in eight is dead: its left column is all `±0.0` and its
    /// right row is `inf`/`-inf`/NaN, which any computed `0.0 * w` term
    /// would turn into NaN in every element.
    #[test]
    fn matmul_rows_is_lane_dot_per_element_bitwise(
        (m, k, n) in (0usize..=130, 1usize..=70, 1usize..=64),
        seed in 0u64..u64::MAX,
    ) {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s >> 11
        };
        let dead: Vec<bool> = (0..k).map(|_| next() % 8 == 0).collect();
        // Left: about a quarter exact zeros of either sign elsewhere too.
        let a = Matrix::from_fn(m, k, |_, kk| match (dead[kk], next() % 8) {
            (true, r) | (false, r @ 0..=1) => if r % 2 == 0 { 0.0 } else { -0.0 },
            (false, r) => (r as f64 - 4.5) * 10f64.powi((next() % 7) as i32 - 3),
        });
        let poison = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let b = Matrix::from_fn(k, n, |kk, _| {
            if dead[kk] {
                poison[(next() % 3) as usize]
            } else {
                ((next() >> 11) as f64 / (1u64 << 42) as f64) * 8.0 - 4.0
            }
        });
        let c = a.matmul_rows(&b);
        prop_assert_eq!((c.rows(), c.cols()), (m, n));
        let bt = b.transpose();
        for i in 0..m {
            for j in 0..n {
                prop_assert_eq!(
                    c.at(i, j).to_bits(),
                    lane_dot(a.row(i), bt.row(j)).to_bits(),
                    "element ({}, {}) of {}x{}x{} broke the lane contract", i, j, m, k, n
                );
            }
        }
    }
}

#[test]
fn empty_inputs_are_exactly_zero() {
    assert_eq!(lane_dot(&[], &[]).to_bits(), 0.0f64.to_bits());
    assert_eq!(lane_dot_reference(&[], &[]).to_bits(), 0.0f64.to_bits());
    let empty = Matrix::zeros(0, 3).matmul(&Matrix::zeros(3, 2));
    assert_eq!((empty.rows(), empty.cols()), (0, 2));
    let empty = Matrix::zeros(0, 3).matmul_rows(&Matrix::zeros(3, 2));
    assert_eq!((empty.rows(), empty.cols()), (0, 2));
}
