//! Property-based tests for the dense linear algebra under the MLP.

use dlperf_nn::matrix::Matrix;
use proptest::prelude::*;

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0f64..10.0, rows * cols).prop_map(move |data| {
        let mut m = Matrix::zeros(rows, cols);
        m.as_mut_slice().copy_from_slice(&data);
        m
    })
}

/// Two chain-compatible matrices A (m×k) and B (k×n).
fn pair() -> impl Strategy<Value = (Matrix, Matrix)> {
    (1usize..8, 1usize..8, 1usize..8).prop_flat_map(|(m, k, n)| (matrix(m, k), matrix(k, n)))
}

/// Three chain-compatible matrices A (m×k), B (k×n), C (n×p).
fn triple() -> impl Strategy<Value = (Matrix, Matrix, Matrix)> {
    (1usize..6, 1usize..6, 1usize..6, 1usize..6)
        .prop_flat_map(|(m, k, n, p)| (matrix(m, k), matrix(k, n), matrix(n, p)))
}

/// Two same-shape matrices.
fn same_shape() -> impl Strategy<Value = (Matrix, Matrix)> {
    (1usize..8, 1usize..8).prop_flat_map(|(m, n)| (matrix(m, n), matrix(m, n)))
}

fn approx_eq(a: &Matrix, b: &Matrix, tol: f64) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// (A·B)ᵀ = Bᵀ·Aᵀ.
    #[test]
    fn transpose_of_product((a, b) in pair()) {
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        prop_assert!(approx_eq(&left, &right, 1e-9));
    }

    /// Associativity: (A·B)·C = A·(B·C).
    #[test]
    fn matmul_associative((a, b, c) in triple()) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!(approx_eq(&left, &right, 1e-8));
    }

    /// Column sums distribute over axpy.
    #[test]
    fn col_sums_linear((a, b) in same_shape(), alpha in -4.0f64..4.0) {
        let mut combined = a.clone();
        combined.axpy(alpha, &b);
        let lhs = combined.col_sums();
        let (sa, sb) = (a.col_sums(), b.col_sums());
        for (i, v) in lhs.iter().enumerate() {
            prop_assert!((v - (sa[i] + alpha * sb[i])).abs() < 1e-8);
        }
    }

    /// Selecting all rows in order is the identity.
    #[test]
    fn select_all_rows_identity((a, _) in same_shape()) {
        let idx: Vec<usize> = (0..a.rows()).collect();
        prop_assert_eq!(a.select_rows(&idx), a);
    }
}
