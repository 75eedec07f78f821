//! Minimal dense linear algebra: a row-major `f32` matrix with exactly the
//! operations the models in this crate need. Written for clarity and
//! determinism rather than BLAS-level speed; all iteration orders are fixed.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Row-major dense matrix of `f32`.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix from a closure over (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Matrix {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Matrix wrapping an existing buffer (length must equal rows*cols).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        Matrix { rows, cols, data }
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
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Row slice.
    #[inline]
    pub(crate) fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row slice.
    #[inline]
    pub(crate) fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Underlying buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// `self @ other` (matrix product).
    pub(crate) fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        // ikj loop order keeps the inner loop contiguous in both inputs.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(orow.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transpose.
    pub(crate) fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Element-wise in-place map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// `self += alpha * other` (element-wise).
    pub(crate) fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Adds a row vector (bias broadcast) to every row.
    pub(crate) fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols);
        for r in 0..self.rows {
            for (v, b) in self.row_mut(r).iter_mut().zip(bias.iter()) {
                *v += b;
            }
        }
    }

    /// Sum over rows → vector of length `cols`.
    pub(crate) fn col_sums(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (o, v) in out.iter_mut().zip(self.row(r).iter()) {
                *o += v;
            }
        }
        out
    }

    /// Row-wise softmax (numerically stabilised).
    pub(crate) fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        for r in 0..out.rows {
            let row = out.row_mut(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            if sum > 0.0 {
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        }
        out
    }

    /// Index of the maximum entry in each row.
    pub(crate) fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| {
                self.row(r)
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Selects a subset of rows by index.
    pub fn select_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        for (i, &r) in idx.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    /// Horizontal concatenation `[self | other]`.
    pub fn hcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hcat row mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// Approximate element-wise equality (for tests).
    #[cfg(test)]
    fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_access() {
        let mut m = Matrix::zeros(2, 3);
        assert_eq!((m.rows(), m.cols()), (2, 3));
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "buffer length mismatch")]
    fn from_vec_checks_len() {
        Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn matmul_known_result() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f32);
        let i = Matrix::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        assert!(a.matmul(&i).approx_eq(&a, 1e-6));
        assert!(i.matmul(&a).approx_eq(&a, 1e-6));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_checked() {
        Matrix::zeros(2, 3).matmul(&Matrix::zeros(2, 3));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 7 + c) as f32);
        assert!(a.transpose().transpose().approx_eq(&a, 0.0));
        assert_eq!(a.transpose().get(4, 2), a.get(2, 4));
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., -1., 0., 1.]);
        let s = m.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Larger logits → larger probabilities.
        assert!(s.get(0, 2) > s.get(0, 0));
    }

    #[test]
    fn softmax_handles_large_values() {
        let m = Matrix::from_vec(1, 2, vec![1e30_f32.ln(), 0.0]);
        let s = m.softmax_rows();
        assert!(s.get(0, 0).is_finite());
    }

    #[test]
    fn argmax_rows_basic() {
        let m = Matrix::from_vec(2, 3, vec![0., 5., 2., 9., 1., 1.]);
        assert_eq!(m.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn axpy_and_broadcast() {
        let mut a = Matrix::from_vec(2, 2, vec![1., 1., 1., 1.]);
        let b = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        a.axpy(2.0, &b);
        assert_eq!(a.as_slice(), &[3., 5., 7., 9.]);
        a.add_row_broadcast(&[10., 20.]);
        assert_eq!(a.as_slice(), &[13., 25., 17., 29.]);
    }

    #[test]
    fn col_sums_and_norm() {
        let m = Matrix::from_vec(2, 2, vec![3., 0., 4., 0.]);
        assert_eq!(m.col_sums(), vec![7., 0.]);
    }

    #[test]
    fn select_rows_and_hcat() {
        let m = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32);
        let s = m.select_rows(&[3, 1]);
        assert_eq!(s.row(0), &[6., 7.]);
        assert_eq!(s.row(1), &[2., 3.]);
        let h = s.hcat(&Matrix::from_vec(2, 1, vec![9., 9.]));
        assert_eq!((h.rows(), h.cols()), (2, 3));
        assert_eq!(h.row(0), &[6., 7., 9.]);
    }

    proptest! {
        #[test]
        fn prop_matmul_distributes_over_axpy(
            vals_a in proptest::collection::vec(-10.0f32..10.0, 6),
            vals_b in proptest::collection::vec(-10.0f32..10.0, 6),
            vals_c in proptest::collection::vec(-10.0f32..10.0, 6),
        ) {
            // (A + B) @ C == A@C + B@C within float tolerance.
            let a = Matrix::from_vec(2, 3, vals_a);
            let b = Matrix::from_vec(2, 3, vals_b);
            let c = Matrix::from_vec(3, 2, vals_c);
            let mut ab = a.clone();
            ab.axpy(1.0, &b);
            let lhs = ab.matmul(&c);
            let mut rhs = a.matmul(&c);
            rhs.axpy(1.0, &b.matmul(&c));
            prop_assert!(lhs.approx_eq(&rhs, 1e-3));
        }

        #[test]
        fn prop_transpose_preserves_matmul(
            vals_a in proptest::collection::vec(-5.0f32..5.0, 6),
            vals_b in proptest::collection::vec(-5.0f32..5.0, 6),
        ) {
            // (A @ B)^T == B^T @ A^T
            let a = Matrix::from_vec(2, 3, vals_a);
            let b = Matrix::from_vec(3, 2, vals_b);
            let lhs = a.matmul(&b).transpose();
            let rhs = b.transpose().matmul(&a.transpose());
            prop_assert!(lhs.approx_eq(&rhs, 1e-3));
        }
    }
}
