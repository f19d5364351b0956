//! High-level dense driver: factor any M × N matrix (no tile-divisibility
//! requirement) with a chosen HQR configuration.
//!
//! The tile engine works on whole b × b tiles, as the paper's experiments
//! do (M = m·b exactly). For arbitrary dimensions this driver pads the
//! matrix with zero rows/columns up to the next tile boundary — a
//! mathematically exact reduction: appending zero rows leaves R and the
//! leading M rows of Q unchanged (the extra Householder components are
//! identity), and appending zero columns appends zero columns to R.

use crate::elim::ElimList;
use crate::factor::{qr_factorize_ib, Execution, QrFactorization};
use crate::hier::HqrConfig;
use crate::solve::back_substitute;
use hqr_kernels::Trans;
use hqr_tile::{DenseMatrix, TiledMatrix};

/// A dense-matrix QR factorization computed through the tile engine.
///
/// ```
/// use hqr::prelude::*;
/// // 26×10 is not a multiple of the tile size 4 — the driver pads.
/// let a = DenseMatrix::random(26, 10, 1);
/// let qr = DenseQr::compute(&a, 4, HqrConfig::new(2, 1).with_a(2), Execution::Serial);
/// let err = a.sub(&qr.q_thin().matmul(&qr.r())).frob_norm();
/// assert!(err < 1e-12 * a.frob_norm());
/// ```
pub struct DenseQr {
    fac: QrFactorization,
    m: usize,
    n: usize,
}

impl DenseQr {
    /// Factor `a` (M × N, M ≥ N) with tile size `b` under `config`,
    /// executing with `exec`. Dimensions need not divide `b`.
    pub fn compute(a: &DenseMatrix, b: usize, config: HqrConfig, exec: Execution) -> Self {
        Self::compute_ib(a, b, config, exec, b)
    }

    /// [`DenseQr::compute`] with inner blocking.
    pub fn compute_ib(
        a: &DenseMatrix,
        b: usize,
        config: HqrConfig,
        exec: Execution,
        ib: usize,
    ) -> Self {
        let (m, n) = (a.rows(), a.cols());
        assert!(m >= n, "dense driver expects M >= N (least-squares orientation)");
        assert!(b > 0, "tile size must be positive");
        let mt = m.div_ceil(b).max(1);
        let nt = n.div_ceil(b).max(1);
        let mut padded = DenseMatrix::zeros(mt * b, nt * b);
        for j in 0..n {
            for i in 0..m {
                padded.set(i, j, a.get(i, j));
            }
        }
        let mut tiled = TiledMatrix::from_dense(&padded, b);
        let elims: ElimList = config.elimination_list(mt, nt);
        let fac = qr_factorize_ib(&mut tiled, &elims, exec, ib);
        DenseQr { fac, m, n }
    }

    /// Original row count.
    pub fn rows(&self) -> usize {
        self.m
    }

    /// Original column count.
    pub fn cols(&self) -> usize {
        self.n
    }

    /// The N × N upper-triangular R factor of the original matrix.
    pub fn r(&self) -> DenseMatrix {
        let rp = self.fac.r_dense();
        let mut r = DenseMatrix::zeros(self.n, self.n);
        for j in 0..self.n {
            for i in 0..=j {
                r.set(i, j, rp.get(i, j));
            }
        }
        r
    }

    /// The M × N thin Q factor of the original matrix.
    pub fn q_thin(&self) -> DenseMatrix {
        let qp = self.fac.q_thin_dense();
        let mut q = DenseMatrix::zeros(self.m, self.n);
        for j in 0..self.n {
            for i in 0..self.m {
                q.set(i, j, qp.get(i, j));
            }
        }
        q
    }

    /// Solve min‖A·x − rhs‖₂ for each column of `rhs` (M × nrhs).
    ///
    /// Back-substitutes only the leading N × N block of R (the padded
    /// columns of the tile factorization are structurally zero and take no
    /// part in the solution). Panics if R is singular; see
    /// [`Self::try_solve_least_squares`].
    pub fn solve_least_squares(&self, rhs: &DenseMatrix) -> DenseMatrix {
        match self.try_solve_least_squares(rhs) {
            Ok(x) => x,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`Self::solve_least_squares`]: returns
    /// [`hqr_kernels::KernelError::SingularR`] on a rank-deficient R
    /// instead of panicking.
    pub fn try_solve_least_squares(
        &self,
        rhs: &DenseMatrix,
    ) -> Result<DenseMatrix, hqr_kernels::KernelError> {
        assert_eq!(rhs.rows(), self.m, "rhs must have M rows");
        back_substitute(&self.fac.r_dense(), &self.qt_times(rhs), self.n, rhs.cols())
    }

    /// Compute Qᵀ·c for a dense M × nc matrix (returns the full padded
    /// row space truncated back to M rows).
    pub fn qt_times(&self, c: &DenseMatrix) -> DenseMatrix {
        assert_eq!(c.rows(), self.m, "C must have M rows");
        let fac = &self.fac;
        let (mp, b) = (fac.factored().rows(), fac.factored().b());
        let ntc = c.cols().div_ceil(b).max(1);
        let mut padded = DenseMatrix::zeros(mp, ntc * b);
        for j in 0..c.cols() {
            for i in 0..self.m {
                padded.set(i, j, c.get(i, j));
            }
        }
        let mut tiled = TiledMatrix::from_dense(&padded, b);
        fac.apply_q(&mut tiled, Trans::Trans);
        let full = tiled.to_dense();
        let mut out = DenseMatrix::zeros(self.m, c.cols());
        for j in 0..c.cols() {
            for i in 0..self.m {
                out.set(i, j, full.get(i, j));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trees::TreeKind;

    fn cfg() -> HqrConfig {
        HqrConfig::new(2, 1).with_a(2).with_low(TreeKind::Greedy).with_domino(true)
    }

    fn check_dense_qr(m: usize, n: usize, b: usize, seed: u64) {
        let a = DenseMatrix::random(m, n, seed);
        let qr = DenseQr::compute(&a, b, cfg(), Execution::Serial);
        let q = qr.q_thin();
        let r = qr.r();
        assert_eq!(q.rows(), m);
        assert_eq!(q.cols(), n);
        assert_eq!(r.rows(), n);
        assert!(q.orthogonality_error() < 1e-12 * (m as f64), "Q not orthonormal");
        let recon = q.matmul(&r);
        let err = a.sub(&recon).frob_norm() / a.frob_norm().max(1.0);
        assert!(err < 1e-12, "{m}x{n} b={b}: reconstruction error {err}");
        assert_eq!(r.max_abs_below_diagonal(), 0.0);
    }

    #[test]
    fn exact_tile_multiples() {
        check_dense_qr(24, 12, 4, 1);
    }

    #[test]
    fn ragged_rows() {
        check_dense_qr(26, 12, 4, 2);
        check_dense_qr(25, 12, 4, 3);
    }

    #[test]
    fn ragged_cols() {
        check_dense_qr(24, 10, 4, 4);
        check_dense_qr(24, 9, 4, 5);
    }

    #[test]
    fn ragged_both() {
        check_dense_qr(27, 11, 4, 6);
        check_dense_qr(13, 5, 4, 7);
    }

    #[test]
    fn tiny_matrices() {
        check_dense_qr(1, 1, 4, 8);
        check_dense_qr(3, 2, 4, 9);
        check_dense_qr(5, 5, 4, 10);
    }

    #[test]
    fn tile_bigger_than_matrix() {
        check_dense_qr(3, 2, 8, 11);
    }

    #[test]
    fn least_squares_on_ragged() {
        let (m, n, b) = (29usize, 7usize, 4usize);
        let a = DenseMatrix::random(m, n, 12);
        let x_true = DenseMatrix::random(n, 2, 13);
        let rhs = a.matmul(&x_true);
        let qr = DenseQr::compute(&a, b, cfg(), Execution::Serial);
        let x = qr.solve_least_squares(&rhs);
        assert!(x.sub(&x_true).frob_norm() < 1e-9, "err {}", x.sub(&x_true).frob_norm());
    }

    #[test]
    fn qt_times_reproduces_r_on_a() {
        let (m, n, b) = (18usize, 6usize, 4usize);
        let a = DenseMatrix::random(m, n, 14);
        let qr = DenseQr::compute(&a, b, cfg(), Execution::Serial);
        let qta = qr.qt_times(&a);
        let r = qr.r();
        for j in 0..n {
            for i in 0..n.min(m) {
                let expect = if i <= j { r.get(i, j) } else { 0.0 };
                assert!((qta.get(i, j) - expect).abs() < 1e-11, "({i},{j})");
            }
        }
    }

    #[test]
    fn inner_blocked_dense_driver() {
        let a = DenseMatrix::random(21, 9, 15);
        let qr = DenseQr::compute_ib(&a, 4, cfg(), Execution::Parallel(3), 2);
        let q = qr.q_thin();
        let recon = q.matmul(&qr.r());
        assert!(a.sub(&recon).frob_norm() < 1e-12 * a.frob_norm());
    }

    #[test]
    #[should_panic(expected = "M >= N")]
    fn wide_rejected() {
        let a = DenseMatrix::random(4, 9, 16);
        let _ = DenseQr::compute(&a, 4, cfg(), Execution::Serial);
    }
}
