//! Plain column-major dense matrices.
//!
//! These are used as the reference representation for numerical checks:
//! tiled matrices are gathered into a [`DenseMatrix`] and verified with
//! textbook operations (`gemm`, norms). Performance is irrelevant here; the
//! hot path of the library operates on tiles only.

use rand::{Rng, SeedableRng};

/// A dense column-major `rows × cols` matrix of `f64`.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Create a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Create the identity-like matrix: ones on the main diagonal.
    pub fn identity(rows: usize, cols: usize) -> Self {
        let mut m = Self::zeros(rows, cols);
        for d in 0..rows.min(cols) {
            m.set(d, d, 1.0);
        }
        m
    }

    /// Create a matrix with entries drawn uniformly from `[-0.5, 0.5)`,
    /// deterministically from `seed` (the paper's experiments use random
    /// matrices; a fixed seed keeps tests reproducible).
    pub fn random(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let data = (0..rows * cols).map(|_| rng.gen::<f64>() - 0.5).collect();
        Self { rows, cols, data }
    }

    /// Build from a column-major slice.
    pub fn from_col_major(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must be rows*cols");
        Self { rows, cols, data: data.to_vec() }
    }

    /// Take a column-major buffer of exactly `rows * cols` values.
    pub(crate) fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must be rows*cols");
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Raw column-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i + j * self.rows]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i + j * self.rows] = v;
    }

    /// Frobenius norm.
    pub fn frob_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Largest absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
    }

    /// Return the transpose.
    pub fn transpose(&self) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(self.cols, self.rows);
        for j in 0..self.cols {
            for i in 0..self.rows {
                t.set(j, i, self.get(i, j));
            }
        }
        t
    }

    /// `self − other`, entrywise.
    pub fn sub(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a - b).collect();
        DenseMatrix { rows: self.rows, cols: self.cols, data }
    }

    /// Reference matrix product `self * other`.
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut c = DenseMatrix::zeros(self.rows, other.cols);
        for j in 0..other.cols {
            for l in 0..self.cols {
                let blj = other.get(l, j);
                if blj == 0.0 {
                    continue;
                }
                for i in 0..self.rows {
                    c.data[i + j * c.rows] += self.get(i, l) * blj;
                }
            }
        }
        c
    }

    /// Keep only the upper triangle (entries with `i <= j`); zero the rest.
    /// Useful for extracting R from a factored matrix.
    pub fn upper_triangle(&self) -> DenseMatrix {
        let mut u = DenseMatrix::zeros(self.rows, self.cols);
        for j in 0..self.cols {
            for i in 0..=j.min(self.rows.saturating_sub(1)) {
                u.set(i, j, self.get(i, j));
            }
        }
        u
    }

    /// Maximum absolute value strictly below the main diagonal.
    pub fn max_abs_below_diagonal(&self) -> f64 {
        let mut m = 0.0f64;
        for j in 0..self.cols {
            for i in (j + 1)..self.rows {
                m = m.max(self.get(i, j).abs());
            }
        }
        m
    }

    /// ‖QᵀQ − I‖_F for `self = Q` (orthonormal-columns check of the paper,
    /// §V-A: "(a) that Q has orthonormal columns").
    pub fn orthogonality_error(&self) -> f64 {
        let qtq = self.transpose().matmul(self);
        let id = DenseMatrix::identity(self.cols, self.cols);
        qtq.sub(&id).frob_norm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_zero_norm() {
        let m = DenseMatrix::zeros(5, 3);
        assert_eq!(m.frob_norm(), 0.0);
        assert_eq!(m.rows(), 5);
        assert_eq!(m.cols(), 3);
    }

    #[test]
    fn identity_norm_is_sqrt_min_dim() {
        let m = DenseMatrix::identity(7, 4);
        assert!((m.frob_norm() - 2.0).abs() < 1e-15);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = DenseMatrix::random(6, 6, 42);
        let b = DenseMatrix::random(6, 6, 42);
        let c = DenseMatrix::random(6, 6, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn random_entries_are_bounded() {
        let a = DenseMatrix::random(20, 20, 1);
        assert!(a.max_abs() <= 0.5);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = DenseMatrix::zeros(3, 3);
        m.set(2, 1, 4.5);
        assert_eq!(m.get(2, 1), 4.5);
        assert_eq!(m.get(1, 2), 0.0);
    }

    #[test]
    fn transpose_involution() {
        let a = DenseMatrix::random(5, 8, 3);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = DenseMatrix::random(4, 6, 9);
        let id = DenseMatrix::identity(6, 6);
        let prod = a.matmul(&id);
        assert!(a.sub(&prod).frob_norm() < 1e-15);
    }

    #[test]
    fn matmul_known_product() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = DenseMatrix::from_col_major(2, 2, &[1.0, 3.0, 2.0, 4.0]);
        let b = DenseMatrix::from_col_major(2, 2, &[5.0, 7.0, 6.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c.get(0, 0), 19.0);
        assert_eq!(c.get(0, 1), 22.0);
        assert_eq!(c.get(1, 0), 43.0);
        assert_eq!(c.get(1, 1), 50.0);
    }

    #[test]
    fn upper_triangle_zeroes_strict_lower() {
        let a = DenseMatrix::random(4, 4, 7);
        let u = a.upper_triangle();
        assert_eq!(u.max_abs_below_diagonal(), 0.0);
        for j in 0..4 {
            for i in 0..=j {
                assert_eq!(u.get(i, j), a.get(i, j));
            }
        }
    }

    #[test]
    fn identity_is_orthogonal() {
        let id = DenseMatrix::identity(6, 6);
        assert!(id.orthogonality_error() < 1e-15);
    }

    #[test]
    fn rotation_is_orthogonal() {
        let (c, s) = (0.6, 0.8);
        let q = DenseMatrix::from_col_major(2, 2, &[c, s, -s, c]);
        assert!(q.orthogonality_error() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_dimension_mismatch_panics() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
