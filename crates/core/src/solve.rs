//! Downstream use of the factorization: least-squares solving and explicit
//! thin-Q generation — the operations the QR factorization exists to serve
//! ("the QR factorization algorithm ... is ubiquitous in high-performance
//! computing applications", §I).

use crate::factor::QrFactorization;
use hqr_kernels::blas::try_trsm_upper;
use hqr_kernels::{KernelError, Trans};
use hqr_tile::{DenseMatrix, TiledMatrix};

impl QrFactorization {
    /// Explicit thin Q (M × min(M, N), orthonormal columns): apply the
    /// reverse trees to the first columns of the identity (LAPACK `dorgqr`).
    pub fn q_thin(&self) -> DenseMatrix {
        let (a, k) = (self.factored(), self.rows().min(self.cols()));
        let mut q = TiledMatrix::identity(a.mt(), k.div_ceil(a.b()), a.b());
        self.apply_q(&mut q, Trans::NoTrans);
        q.leading(self.rows(), k)
    }

    /// Solve the least-squares problem min‖A·x − b‖₂ for each column of
    /// `rhs` (requires M ≥ N and full-rank R): x = R₁⁻¹·(Qᵀb)₁.
    ///
    /// Panics if R is singular; use [`Self::try_solve_least_squares`] to
    /// get a typed error instead.
    pub fn solve_least_squares(&self, rhs: &DenseMatrix) -> DenseMatrix {
        match self.try_solve_least_squares(rhs) {
            Ok(x) => x,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`Self::solve_least_squares`]: returns
    /// [`KernelError::SingularR`] when back-substitution meets a zero
    /// diagonal, instead of panicking — so services can fail one request
    /// rather than the process. Only the leading N × N block of R takes
    /// part: the columns a dense matrix was padded with are zero.
    pub fn try_solve_least_squares(&self, rhs: &DenseMatrix) -> Result<DenseMatrix, KernelError> {
        let (m, n, nrhs) = (self.rows(), self.cols(), rhs.cols());
        assert!(m >= n, "least squares requires M >= N");
        assert_eq!(rhs.rows(), m, "rhs must have M rows");
        // Qᵀ·b through the stored reflectors (forward trees).
        let mut c = TiledMatrix::from_dense(rhs, self.factored().b());
        self.apply_q(&mut c, Trans::Trans);
        let r = self.r();
        let mut x = c.leading(n, nrhs).data().to_vec();
        try_trsm_upper(n, nrhs, r.data(), &mut x)?;
        Ok(DenseMatrix::from_col_major(n, nrhs, &x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::{qr_factorize, Execution};
    use crate::hier::HqrConfig;
    use crate::schedule::Schedule;

    fn factorize(mt: usize, nt: usize, b: usize, seed: u64) -> (DenseMatrix, QrFactorization) {
        let elims = HqrConfig::new(2, 1).with_a(2).with_domino(true).elimination_list(mt, nt);
        let a = TiledMatrix::random(mt, nt, b, seed);
        let a0 = a.to_dense();
        (a0, qr_factorize(a, &elims, Execution::Serial))
    }

    #[test]
    fn thin_q_has_orthonormal_columns() {
        let (_, f) = factorize(6, 2, 4, 31);
        let q = f.q_thin();
        assert_eq!(q.rows(), 24);
        assert_eq!(q.cols(), 8);
        assert!(q.orthogonality_error() < 1e-13);
    }

    #[test]
    fn thin_q_times_r_reconstructs_a() {
        let (a0, f) = factorize(5, 2, 4, 32);
        let q = f.q_thin();
        // thin Q (M×N) times the N×N R.
        let qr = q.matmul(&f.r());
        assert!(a0.sub(&qr).frob_norm() < 1e-12 * a0.frob_norm());
    }

    #[test]
    fn least_squares_recovers_exact_solution() {
        // Consistent system: b = A·x_true → residual 0, x == x_true.
        let (a0, f) = factorize(6, 2, 4, 33);
        let x_true = DenseMatrix::random(8, 3, 34);
        let b = a0.matmul(&x_true);
        let x = f.solve_least_squares(&b);
        assert!(x.sub(&x_true).frob_norm() < 1e-10, "err {}", x.sub(&x_true).frob_norm());
    }

    #[test]
    fn least_squares_residual_is_orthogonal_to_range() {
        // Overdetermined random b: the residual must satisfy Aᵀ(Ax−b) ≈ 0.
        let (a0, f) = factorize(8, 2, 4, 35);
        let b = DenseMatrix::random(32, 2, 36);
        let x = f.solve_least_squares(&b);
        let ax = a0.matmul(&x);
        let resid = ax.sub(&b);
        let normal = a0.transpose().matmul(&resid);
        assert!(
            normal.max_abs() < 1e-10 * b.frob_norm(),
            "normal equations violated: {}",
            normal.max_abs()
        );
    }

    #[test]
    fn least_squares_beats_no_solution() {
        let (a0, f) = factorize(6, 1, 4, 37);
        let b = DenseMatrix::random(24, 1, 38);
        let x = f.solve_least_squares(&b);
        let residual = |x: &DenseMatrix| a0.matmul(x).sub(&b).frob_norm();
        // Any perturbed x must do no better.
        let mut xp = x.clone();
        xp.set(0, 0, xp.get(0, 0) + 0.1);
        assert!(residual(&x) <= residual(&xp) + 1e-12);
    }

    #[test]
    fn works_with_any_tree() {
        let (mt, nt, b) = (6usize, 2usize, 4usize);
        let elims = Schedule::greedy(mt, nt).to_elim_list(false);
        let a = TiledMatrix::random(mt, nt, b, 39);
        let a0 = a.to_dense();
        let f = qr_factorize(a, &elims, Execution::Serial);
        let x_true = DenseMatrix::random(nt * b, 1, 40);
        let bvec = a0.matmul(&x_true);
        let x = f.solve_least_squares(&bvec);
        assert!(x.sub(&x_true).frob_norm() < 1e-10);
    }

    #[test]
    fn singular_r_is_a_typed_error_not_a_panic() {
        // Zero out the first column everywhere: R(0,0) becomes exactly 0.
        let elims = HqrConfig::new(2, 1).with_a(2).with_domino(true).elimination_list(6, 2);
        let mut a = TiledMatrix::random(6, 2, 4, 43);
        for ti in 0..6 {
            let tile = a.tile_mut(ti, 0);
            for x in tile.iter_mut().take(4) {
                *x = 0.0;
            }
        }
        let f = qr_factorize(a, &elims, Execution::Serial);
        let b = DenseMatrix::random(24, 1, 44);
        let err = f.try_solve_least_squares(&b).unwrap_err();
        assert_eq!(err, hqr_kernels::KernelError::SingularR { index: 0 });
    }

    #[test]
    #[should_panic(expected = "M >= N")]
    fn wide_systems_rejected() {
        let elims = Schedule::flat(2, 3).to_elim_list(true);
        let a = TiledMatrix::random(2, 3, 4, 41);
        let f = qr_factorize(a, &elims, Execution::Serial);
        let b = DenseMatrix::random(8, 1, 42);
        let _ = f.solve_least_squares(&b);
    }
}
