//! Dense row-major `f64` matrices with exactly the operations MLP training
//! needs. No BLAS, no unsafe — clarity over peak speed; the datasets here
//! are thousands of rows, not millions.
//!
//! Every dot product in this crate follows the *lane-reduction
//! accumulation contract* (DESIGN.md §9.3) defined by [`lane_dot`]: scalar
//! inference and the packed [`InferencePlan`](crate::net::InferencePlan)
//! batch path call it per element, and training's row kernel
//! [`Matrix::matmul_rows`] performs the same per-element operations row by
//! row. The contract pins bitwise-exact results across all execution
//! strategies, so the SIMD-friendly batched kernel is the definition rather
//! than an approximation of the scalar path.

use serde::{Deserialize, Serialize};

/// Lane width of the accumulation contract: dot products run [`LANES`]
/// independent partial sums (lane `l` takes terms with `k ≡ l (mod LANES)`
/// in ascending `k`) reduced in a fixed tree at the end.
///
/// `LANES` is frozen into the persisted model envelope
/// (`dlperf-kernels::persist`); changing it is a bit-visible contract break
/// and requires a bundle-version story, not just a recompile.
pub const LANES: usize = 4;

/// The lane-reduction dot product — the single definition of floating-point
/// accumulation order for this crate (DESIGN.md §9.3).
///
/// Semantics, in order:
/// 1. `LANES` partial sums; lane `l` accumulates terms `x[k] * w[k]` for
///    `k ≡ l (mod LANES)` in ascending `k` (remainder elements land in
///    lanes `0..len % LANES` — they are just the tail of each lane's
///    arithmetic sequence).
/// 2. Terms whose **left** operand is exactly `0.0` (either sign) are
///    skipped: the lane accumulator is left untouched, even if `w[k]` is
///    infinite or NaN. This mirrors sparse activations after ReLU and is a
///    branchless select, so it vectorizes as a blend.
/// 3. Fixed reduction tree: `(acc0 + acc1) + (acc2 + acc3)`.
///
/// # Panics
/// Panics in debug builds if lengths disagree.
#[inline]
pub fn lane_dot(x: &[f64], w: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), w.len(), "lane_dot length mismatch");
    let mut acc = [0.0f64; LANES];
    let mut xc = x.chunks_exact(LANES);
    let mut wc = w.chunks_exact(LANES);
    for (cx, cw) in (&mut xc).zip(&mut wc) {
        for l in 0..LANES {
            let a = cx[l];
            // Select, not branch: `acc + a * cw[l]` would differ from a
            // true skip when a == 0.0 and cw[l] is inf/NaN, and a branch
            // would block vectorization.
            acc[l] = if a == 0.0 { acc[l] } else { acc[l] + a * cw[l] };
        }
    }
    for (l, (&a, &b)) in xc.remainder().iter().zip(wc.remainder()).enumerate() {
        acc[l] = if a == 0.0 { acc[l] } else { acc[l] + a * b };
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Scalar emulation of [`lane_dot`]: per-lane strided serial passes, no
/// chunking. Structurally different code that must produce bitwise-identical
/// results — the property test that pins the contract compares the two.
pub fn lane_dot_reference(x: &[f64], w: &[f64]) -> f64 {
    assert_eq!(x.len(), w.len(), "lane_dot length mismatch");
    let mut acc = [0.0f64; LANES];
    for (l, lane) in acc.iter_mut().enumerate() {
        let mut k = l;
        while k < x.len() {
            let a = x[k];
            if a != 0.0 {
                *lane += a * w[k];
            }
            k += LANES;
        }
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// An all-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Builds a matrix from a generator called as `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from rows of equal length.
    ///
    /// Returns `None` if rows are ragged or empty.
    pub fn from_rows(rows: &[Vec<f64>]) -> Option<Self> {
        let cols = rows.first()?.len();
        if cols == 0 || rows.iter().any(|r| r.len() != cols) {
            return None;
        }
        Some(Matrix {
            rows: rows.len(),
            cols,
            data: rows.iter().flatten().copied().collect(),
        })
    }

    /// Builds a matrix from row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec length mismatch");
        Matrix { rows, cols, data }
    }

    /// Consumes the matrix, returning its row-major data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable element access.
    ///
    /// # Panics
    /// Panics if out of bounds.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }

    /// A view of row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The underlying data, row-major.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable underlying data, row-major.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix product `self × rhs`.
    ///
    /// Every output element is a [`lane_dot`] of a row of `self` against a
    /// column of `rhs` (materialized once via an internal transpose for
    /// contiguity) — so each element's bits are independent of which other
    /// rows/columns are computed alongside it, and batch results match
    /// per-row results exactly.
    ///
    /// # Panics
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matmul dims: {}x{} × {}x{}", self.rows, self.cols, rhs.rows, rhs.cols);
        let rt = rhs.transpose();
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let xrow = &self.data[i * self.cols..(i + 1) * self.cols];
            let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for (j, o) in orow.iter_mut().enumerate() {
                *o = lane_dot(xrow, rt.row(j));
            }
        }
        out
    }

    /// Matrix product `self × rhs` by the row kernel, the training
    /// strategy of the lane-reduction contract (DESIGN.md §9.3).
    ///
    /// For each row `i`, every nonzero `self[i][k]` adds
    /// `self[i][k] * rhs[k][..]` into lane accumulator `k % LANES`, and
    /// each column reduces `(a0 + a1) + (a2 + a3)`. Per output element
    /// that is exactly [`lane_dot`] of the row against the column: the
    /// same per-lane terms in ascending `k`, the same skip of a `±0.0`
    /// left operand (taken once per `k` for the whole row instead of once
    /// per element) and the same tree. So it is bitwise equal to
    /// [`Matrix::matmul`], without the transposed copy of `rhs`, and its
    /// inner loop is a contiguous multiply-add across the columns.
    ///
    /// # Panics
    /// Panics if inner dimensions disagree.
    pub fn matmul_rows(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matmul dims: {}x{} × {}x{}", self.rows, self.cols, rhs.rows, rhs.cols);
        let (inner, n) = (self.cols, rhs.cols);
        let mut out = Matrix::zeros(self.rows, n);
        let mut acc = vec![0.0f64; LANES * n];
        for i in 0..self.rows {
            acc.fill(0.0);
            let xrow = &self.data[i * inner..(i + 1) * inner];
            for (k, &a) in xrow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let lane = &mut acc[(k % LANES) * n..(k % LANES + 1) * n];
                for (s, &w) in lane.iter_mut().zip(&rhs.data[k * n..(k + 1) * n]) {
                    *s += a * w;
                }
            }
            let (a01, a23) = acc.split_at(2 * n);
            let (a0, a1) = a01.split_at(n);
            let (a2, a3) = a23.split_at(n);
            let orow = &mut out.data[i * n..(i + 1) * n];
            for (j, o) in orow.iter_mut().enumerate() {
                *o = (a0[j] + a1[j]) + (a2[j] + a3[j]);
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.at(c, r))
    }

    /// Adds a row vector to every row (bias broadcast).
    ///
    /// # Panics
    /// Panics if `bias.len() != cols`.
    pub fn add_row(&mut self, bias: &[f64]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for row in self.data.chunks_mut(self.cols) {
            for (v, b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// Element-wise map, in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Element-wise product (Hadamard), in place.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn hadamard_inplace(&mut self, rhs: &Matrix) {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "hadamard shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a *= b;
        }
    }

    /// Column sums (gradient of a broadcast bias).
    pub fn col_sums(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        for row in self.data.chunks(self.cols) {
            for (o, v) in out.iter_mut().zip(row) {
                *o += v;
            }
        }
        out
    }

    /// `self += alpha * rhs`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f64, rhs: &Matrix) {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
    }

    /// Copy of selected rows, in the given order.
    pub fn select_rows(&self, idx: &[usize]) -> Matrix {
        Matrix::from_fn(idx.len(), self.cols, |r, c| self.at(idx[r], c))
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let i = Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![4.0], vec![5.0], vec![6.0]]).unwrap();
        let c = a.matmul(&b);
        assert_eq!(c.at(0, 0), 32.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 10 + c) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn bias_broadcast_and_col_sums() {
        let mut a = Matrix::zeros(3, 2);
        a.add_row(&[1.0, -2.0]);
        assert_eq!(a.col_sums(), vec![3.0, -6.0]);
    }

    #[test]
    fn ragged_rows_rejected() {
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_none());
        assert!(Matrix::from_rows(&[]).is_none());
    }

    #[test]
    fn select_rows_orders() {
        let a = Matrix::from_fn(4, 1, |r, _| r as f64);
        let s = a.select_rows(&[3, 1]);
        assert_eq!(s.as_slice(), &[3.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "matmul dims")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn lane_dot_matches_reference_on_all_remainders() {
        // k % LANES ∈ {0, 1, 2, 3} all exercised, with awkward magnitudes
        // so any reassociation flips low mantissa bits.
        for k in 0..=13 {
            let x: Vec<f64> = (0..k)
                .map(|i| if i % 3 == 0 { 0.0 } else { (i as f64 + 0.3) * 10f64.powi(i % 5 - 2) })
                .collect();
            let w: Vec<f64> = (0..k).map(|i| (i as f64 - 1.7) * 3f64.powi(i % 4) + 1e-9).collect();
            assert_eq!(
                lane_dot(&x, &w).to_bits(),
                lane_dot_reference(&x, &w).to_bits(),
                "k={k}"
            );
        }
    }

    #[test]
    fn lane_dot_zero_left_skips_even_nonfinite_right() {
        // A true skip: 0.0 * inf would be NaN if the term were computed.
        let x = [0.0, 2.0, -0.0, 1.0, 0.0];
        let w = [f64::INFINITY, 3.0, f64::NAN, 5.0, f64::NEG_INFINITY];
        let got = lane_dot(&x, &w);
        assert_eq!(got.to_bits(), lane_dot_reference(&x, &w).to_bits());
        assert_eq!(got, 11.0);
    }

    #[test]
    fn lane_dot_empty_is_zero() {
        assert_eq!(lane_dot(&[], &[]).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn batched_rows_match_per_row_matmul_bitwise() {
        // Awkward magnitudes on purpose: any reassociation of the
        // accumulation order shows up in the low mantissa bits.
        let a = Matrix::from_fn(7, 5, |r, c| {
            if (r + c) % 3 == 0 { 0.0 } else { (1.0 + r as f64) * 10f64.powi(c as i32 - 2) + 0.1 }
        });
        let b = Matrix::from_fn(5, 4, |r, c| (r as f64 - 1.7) * 3f64.powi(c as i32) + 1e-9);
        let batched = a.matmul(&b);
        for r in 0..a.rows() {
            let single = Matrix::from_rows(&[a.row(r).to_vec()]).unwrap().matmul(&b);
            let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(batched.row(r)), bits(single.row(0)), "row {r}");
        }
    }
}
