//! The factorization driver: run an elimination list through the task-DAG
//! runtime, keep the Householder factors, rebuild Q, and run the paper's
//! numerical checks (§V-A: "we compute the Q factor ... by applying the
//! reverse trees to the identity, and check (a) that Q has orthonormal
//! columns and (b) that A is equal to Q∗R").

use crate::elim::ElimList;
use hqr_kernels::Trans;
use hqr_runtime::{
    execute_serial_ib, try_apply_q, try_execute_with, ElimOp, ExecOptions, TFactors, TaskGraph,
};
use hqr_tile::{DenseMatrix, TiledMatrix};

/// How to execute the task DAG.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Execution {
    /// One thread, program order.
    Serial,
    /// Work-stealing executor with this many threads.
    Parallel(usize),
}

/// A completed QR factorization: the factored tiles (R in the upper
/// triangle, Householder V/V2 blocks elsewhere), the T factors (laid out
/// for the inner block size the kernels ran with), and the elimination
/// list that produced them — everything needed to apply Q.
pub struct QrFactorization {
    a: TiledMatrix,
    factors: TFactors,
    ops: Vec<ElimOp>,
}

/// Outcome of the paper's two checks.
#[derive(Clone, Copy, Debug)]
pub struct QrCheck {
    /// ‖QᵀQ − I‖_F.
    pub orthogonality: f64,
    /// ‖A − Q·R‖_F / ‖A‖_F.
    pub residual: f64,
    /// Matrix dimension used for the tolerance scaling.
    pub m: usize,
}

impl QrCheck {
    /// "All checks were satisfactory up to machine precision" — scaled by
    /// the dimension as usual.
    pub fn is_satisfactory(&self) -> bool {
        let tol = 100.0 * f64::EPSILON * self.m as f64;
        self.orthogonality < tol && self.residual < tol
    }
}

/// Factor `a` in place according to `elims` and return the factorization
/// object (which keeps its own copy of the factored tiles).
pub fn qr_factorize(a: &mut TiledMatrix, elims: &ElimList, exec: Execution) -> QrFactorization {
    let b = a.b();
    qr_factorize_ib(a, elims, exec, b)
}

/// [`qr_factorize`] with PLASMA-style inner blocking: kernels process the
/// tile in column panels of width `ib` (`ib == b` selects the unblocked
/// kernels). Its T factors carry `ib`, so Q applications use the matching
/// blocked reflector grouping.
pub fn qr_factorize_ib(
    a: &mut TiledMatrix,
    elims: &ElimList,
    exec: Execution,
    ib: usize,
) -> QrFactorization {
    assert_eq!(a.mt(), elims.mt(), "elimination list built for a different mt");
    assert_eq!(a.nt(), elims.nt(), "elimination list built for a different nt");
    let ops = elims.to_ops();
    let graph = TaskGraph::build(a.mt(), a.nt(), a.b(), &ops);
    let factors = match exec {
        Execution::Serial => execute_serial_ib(&graph, a, ib),
        Execution::Parallel(nthreads) => {
            let opts = ExecOptions { nthreads, ib: Some(ib), ..Default::default() };
            try_execute_with(&graph, a, &opts).unwrap_or_else(|e| panic!("{e}")).0
        }
    };
    QrFactorization { a: a.clone(), factors, ops }
}

impl QrFactorization {
    /// The factored tiles (R in the global upper triangle, V blocks below).
    pub fn factored(&self) -> &TiledMatrix {
        &self.a
    }

    /// The R factor as a dense (M × N) upper-triangular matrix.
    pub fn r_dense(&self) -> DenseMatrix {
        self.a.to_dense().upper_triangle()
    }

    /// Apply op(Q) to a tiled matrix `c` with the same tile-row count:
    /// `Trans` computes Qᵀ·C (forward elimination order, as during the
    /// factorization), `NoTrans` computes Q·C ("applying the reverse
    /// trees", §V-A). Runs [`hqr_runtime::try_apply_q`] on one thread.
    ///
    /// # Panics
    /// Panics with the engine's refusal if `c`'s tile rows or tile size
    /// differ from the factored matrix's.
    pub fn apply_q(&self, c: &mut TiledMatrix, trans: Trans) {
        let opts = ExecOptions::with_threads(1);
        if let Err(e) = try_apply_q(&self.a, &self.factors, &self.ops, c, trans, &opts) {
            panic!("{e}");
        }
    }

    /// Build Q explicitly (M × M) by applying the reverse trees to the
    /// identity.
    pub fn q_dense(&self) -> DenseMatrix {
        let mt = self.a.mt();
        let b = self.a.b();
        let mut q = TiledMatrix::identity(mt, mt, b);
        self.apply_q(&mut q, Trans::NoTrans);
        q.to_dense()
    }

    /// Run the paper's two checks against the original matrix.
    pub fn check(&self, original: &DenseMatrix) -> QrCheck {
        let q = self.q_dense();
        let orthogonality = q.orthogonality_error();
        // Q·R via the tiled apply (cheaper and stronger than dense matmul:
        // exercises the reverse-tree application).
        let r = self.r_dense();
        let mut r_tiled = TiledMatrix::from_dense(&r, self.a.b());
        self.apply_q(&mut r_tiled, Trans::NoTrans);
        let qr = r_tiled.to_dense();
        let norm_a = original.frob_norm().max(1.0);
        let residual = original.sub(&qr).frob_norm() / norm_a;
        QrCheck { orthogonality, residual, m: self.a.rows() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hier::HqrConfig;
    use crate::schedule::Schedule;
    use crate::trees::TreeKind;

    fn check_config(mt: usize, nt: usize, b: usize, elims: &ElimList, exec: Execution, seed: u64) {
        let mut a = TiledMatrix::random(mt, nt, b, seed);
        let a0 = a.to_dense();
        let f = qr_factorize(&mut a, elims, exec);
        let chk = f.check(&a0);
        assert!(
            chk.is_satisfactory(),
            "ortho={:e} resid={:e} for {mt}x{nt}",
            chk.orthogonality,
            chk.residual
        );
    }

    #[test]
    fn flat_tree_factorization_checks_out() {
        let l = Schedule::flat(5, 3).to_elim_list(true);
        check_config(5, 3, 4, &l, Execution::Serial, 1);
    }

    #[test]
    fn greedy_factorization_checks_out() {
        let l = Schedule::greedy(6, 4).to_elim_list(false);
        check_config(6, 4, 4, &l, Execution::Serial, 2);
    }

    #[test]
    fn binary_factorization_checks_out() {
        let l = Schedule::binary(7, 3).to_elim_list(false);
        check_config(7, 3, 3, &l, Execution::Serial, 3);
    }

    #[test]
    fn fibonacci_factorization_checks_out() {
        let l = Schedule::fibonacci(8, 3).to_elim_list(false);
        check_config(8, 3, 3, &l, Execution::Serial, 4);
    }

    #[test]
    fn hqr_with_domino_checks_out() {
        let cfg = HqrConfig::new(3, 1).with_a(2).with_domino(true);
        let l = cfg.elimination_list(9, 4);
        check_config(9, 4, 4, &l, Execution::Serial, 5);
    }

    #[test]
    fn hqr_without_domino_checks_out() {
        let cfg = HqrConfig::new(2, 1).with_a(2).with_low(TreeKind::Flat);
        let l = cfg.elimination_list(8, 4);
        check_config(8, 4, 4, &l, Execution::Serial, 6);
    }

    #[test]
    fn hqr_all_tree_combos_small() {
        for low in TreeKind::ALL {
            for high in [TreeKind::Flat, TreeKind::Greedy] {
                let cfg =
                    HqrConfig::new(2, 1).with_a(2).with_low(low).with_high(high).with_domino(true);
                let l = cfg.elimination_list(6, 3);
                check_config(6, 3, 3, &l, Execution::Serial, 7);
            }
        }
    }

    #[test]
    fn parallel_execution_checks_out() {
        let cfg = HqrConfig::new(3, 1).with_a(2).with_domino(true);
        let l = cfg.elimination_list(9, 3);
        check_config(9, 3, 4, &l, Execution::Parallel(4), 8);
    }

    #[test]
    fn square_matrix_checks_out() {
        let l = Schedule::greedy(5, 5).to_elim_list(false);
        check_config(5, 5, 4, &l, Execution::Serial, 9);
    }

    #[test]
    fn single_tile_matrix() {
        let l = Schedule::flat(1, 1).to_elim_list(true);
        check_config(1, 1, 5, &l, Execution::Serial, 10);
    }

    #[test]
    fn qt_times_a_equals_r() {
        // Applying Qᵀ (forward trees) to the original must reproduce R.
        let (mt, nt, b) = (6, 3, 4);
        let l = Schedule::greedy(mt, nt).to_elim_list(false);
        let mut a = TiledMatrix::random(mt, nt, b, 11);
        let a0 = a.to_dense();
        let f = qr_factorize(&mut a, &l, Execution::Serial);
        let mut c = TiledMatrix::from_dense(&a0, b);
        f.apply_q(&mut c, Trans::Trans);
        let qta = c.to_dense();
        let diff = qta.sub(&f.r_dense()).frob_norm();
        assert!(diff < 1e-11, "QᵀA != R: {diff}");
        assert!(qta.max_abs_below_diagonal() < 1e-12);
    }

    #[test]
    fn r_diagonal_blocks_upper_triangular() {
        let (mt, nt, b) = (5, 5, 4);
        let l = Schedule::binary(mt, nt).to_elim_list(false);
        let mut a = TiledMatrix::random(mt, nt, b, 12);
        let f = qr_factorize(&mut a, &l, Execution::Serial);
        let r = f.r_dense();
        assert_eq!(r.max_abs_below_diagonal(), 0.0);
    }

    #[test]
    fn q_application_roundtrip() {
        let (mt, nt, b) = (6, 2, 3);
        let cfg = HqrConfig::new(2, 1).with_a(3).with_domino(true);
        let l = cfg.elimination_list(mt, nt);
        let mut a = TiledMatrix::random(mt, nt, b, 13);
        let f = qr_factorize(&mut a, &l, Execution::Serial);
        let c0 = TiledMatrix::random(mt, 2, b, 14);
        let mut c = c0.clone();
        f.apply_q(&mut c, Trans::Trans);
        f.apply_q(&mut c, Trans::NoTrans);
        let diff = c.to_dense().sub(&c0.to_dense()).frob_norm();
        assert!(diff < 1e-11, "Q·Qᵀ·C != C: {diff}");
    }

    #[test]
    fn parallel_apply_q_matches_serial_apply_q() {
        let (mt, nt, b) = (9usize, 4usize, 4usize);
        let cfg = HqrConfig::new(3, 1).with_a(2).with_domino(true);
        let elims = cfg.elimination_list(mt, nt);
        let mut a = TiledMatrix::random(mt, nt, b, 104);
        let f = qr_factorize(&mut a, &elims, Execution::Serial);
        let c0 = TiledMatrix::random(mt, 2, b, 105);
        for trans in [Trans::Trans, Trans::NoTrans] {
            let mut cs = c0.clone();
            let mut cp = c0.clone();
            f.apply_q(&mut cs, trans);
            let opts = ExecOptions::with_threads(4);
            try_apply_q(&f.a, &f.factors, &f.ops, &mut cp, trans, &opts).unwrap();
            assert_eq!(cs.to_dense().data(), cp.to_dense().data(), "{trans:?}");
        }
    }

    #[test]
    fn parallel_apply_q_with_inner_blocking() {
        let (mt, nt, b) = (6usize, 3usize, 6usize);
        let elims = Schedule::greedy(mt, nt).to_elim_list(false);
        let mut a = TiledMatrix::random(mt, nt, b, 106);
        let f = qr_factorize_ib(&mut a, &elims, Execution::Serial, 3);
        let c0 = TiledMatrix::random(mt, 1, b, 107);
        let mut cs = c0.clone();
        let mut cp = c0.clone();
        f.apply_q(&mut cs, Trans::Trans);
        let opts = ExecOptions { nthreads: 3, ib: Some(3), ..Default::default() };
        try_apply_q(&f.a, &f.factors, &f.ops, &mut cp, Trans::Trans, &opts).unwrap();
        assert_eq!(cs.to_dense().data(), cp.to_dense().data());
    }

    #[test]
    fn inner_blocked_factorization_checks_out() {
        // PLASMA-style IB kernels through the full pipeline.
        let (mt, nt, b) = (8usize, 4usize, 8usize);
        let cfg = HqrConfig::new(2, 1).with_a(2).with_domino(true);
        let elims = cfg.elimination_list(mt, nt);
        for ib in [2usize, 4, 8] {
            let mut a = TiledMatrix::random(mt, nt, b, 101);
            let a0 = a.to_dense();
            let f = qr_factorize_ib(&mut a, &elims, Execution::Serial, ib);
            let chk = f.check(&a0);
            assert!(
                chk.is_satisfactory(),
                "ib={ib}: ortho={:e} resid={:e}",
                chk.orthogonality,
                chk.residual
            );
        }
    }

    #[test]
    fn inner_blocked_r_matches_unblocked() {
        let (mt, nt, b) = (6usize, 3usize, 8usize);
        let elims = Schedule::greedy(mt, nt).to_elim_list(false);
        let r_of = |ib: usize| {
            let mut a = TiledMatrix::random(mt, nt, b, 102);
            qr_factorize_ib(&mut a, &elims, Execution::Serial, ib).r_dense()
        };
        let r8 = r_of(8);
        let r2 = r_of(2);
        // Same factorization mathematically: R agrees to rounding.
        assert!(r8.sub(&r2).frob_norm() < 1e-11, "err {}", r8.sub(&r2).frob_norm());
    }

    #[test]
    fn inner_blocked_parallel_consistent() {
        let (mt, nt, b) = (9usize, 3usize, 6usize);
        let cfg = HqrConfig::new(3, 1).with_a(3).with_domino(true);
        let elims = cfg.elimination_list(mt, nt);
        let mut a1 = TiledMatrix::random(mt, nt, b, 103);
        let mut a2 = a1.clone();
        let f1 = qr_factorize_ib(&mut a1, &elims, Execution::Serial, 3);
        let f2 = qr_factorize_ib(&mut a2, &elims, Execution::Parallel(4), 3);
        assert_eq!(f1.r_dense().data(), f2.r_dense().data());
    }

    #[test]
    #[should_panic(expected = "different mt")]
    fn shape_mismatch_rejected() {
        let l = Schedule::flat(4, 2).to_elim_list(true);
        let mut a = TiledMatrix::random(5, 2, 3, 15);
        let _ = qr_factorize(&mut a, &l, Execution::Serial);
    }
}
