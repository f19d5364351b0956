//! The factorization: run an elimination list through the task-DAG runtime,
//! keep the Householder factors, and run the paper's numerical checks on
//! the same engine (§V-A: "we compute the Q factor ... by applying the
//! reverse trees to the identity, and check (a) that Q has orthonormal
//! columns and (b) that A is equal to Q∗R").
//!
//! The tile engine works on whole b × b tiles, as the paper's experiments
//! do (M = m·b exactly). [`QrFactorization::from_dense`] takes any M × N
//! matrix and pads it with zero rows and columns up to the next tile
//! boundary — an exact reduction: appending zero rows leaves R and the
//! leading M rows of Q unchanged (the extra Householder components are
//! zero), and appending zero columns appends zero columns to R.

use crate::elim::ElimList;
use crate::hier::HqrConfig;
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
/// for the inner block size the kernels ran with), the elimination list
/// that produced them — everything needed to apply Q — and the execution
/// every later application of Q runs with. `rows`/`cols` are the matrix's
/// own dimensions, before any padding to whole tiles.
pub struct QrFactorization {
    a: TiledMatrix,
    factors: TFactors,
    ops: Vec<ElimOp>,
    exec: Execution,
    m: usize,
    n: usize,
}

/// Outcome of the paper's two checks.
#[derive(Clone, Copy, Debug)]
pub struct QrCheck {
    /// ‖Qᵀ·Q_thin − [I; 0]‖_F, where Q_thin = Q·[I; 0] has one column per
    /// column of the (padded) matrix.
    pub orthogonality: f64,
    /// ‖A − Q·[R; 0]‖_F / ‖A‖_F (an A with ‖A‖_F < 1 divides by 1).
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

/// Factor `a` according to `elims`; the factorization owns the factored
/// tiles.
pub fn qr_factorize(a: TiledMatrix, elims: &ElimList, exec: Execution) -> QrFactorization {
    let b = a.b();
    qr_factorize_ib(a, elims, exec, b)
}

/// [`qr_factorize`] with PLASMA-style inner blocking: kernels process the
/// tile in column panels of width `ib` (`ib == b` selects the unblocked
/// kernels). Its T factors carry `ib`, so Q applications use the matching
/// blocked reflector grouping.
pub fn qr_factorize_ib(
    mut a: TiledMatrix,
    elims: &ElimList,
    exec: Execution,
    ib: usize,
) -> QrFactorization {
    assert_eq!(a.mt(), elims.mt(), "elimination list built for a different mt");
    assert_eq!(a.nt(), elims.nt(), "elimination list built for a different nt");
    let ops = elims.to_ops();
    let graph = TaskGraph::build(a.mt(), a.nt(), a.b(), &ops);
    let factors = match exec {
        Execution::Serial => execute_serial_ib(&graph, &mut a, ib),
        Execution::Parallel(nthreads) => {
            let opts = ExecOptions { nthreads, ib: Some(ib), ..Default::default() };
            try_execute_with(&graph, &mut a, &opts).unwrap_or_else(|e| panic!("{e}")).0
        }
    };
    let (m, n) = (a.rows(), a.cols());
    QrFactorization { a, factors, ops, exec, m, n }
}

impl QrFactorization {
    /// Factor `a` (M × N, M ≥ N) with tile size `b` and inner block size
    /// `ib` under `config`. Dimensions need not divide `b`: the matrix is
    /// zero-padded straight into tiles, and [`Self::r`], [`Self::q_thin`]
    /// and the least-squares solvers answer for the M × N matrix.
    pub fn from_dense(
        a: &DenseMatrix,
        b: usize,
        ib: usize,
        config: HqrConfig,
        exec: Execution,
    ) -> Self {
        let (m, n) = (a.rows(), a.cols());
        assert!(m >= n, "a dense factorization expects M >= N (least-squares orientation)");
        assert!(b > 0, "tile size must be positive");
        let tiles = TiledMatrix::from_dense(a, b);
        let elims = config.elimination_list(tiles.mt(), tiles.nt());
        QrFactorization { m, n, ..qr_factorize_ib(tiles, &elims, exec, ib) }
    }

    /// Rows of the factored matrix, before padding.
    pub fn rows(&self) -> usize {
        self.m
    }

    /// Columns of the factored matrix, before padding.
    pub fn cols(&self) -> usize {
        self.n
    }

    /// The factored tiles (R in the global upper triangle, V blocks below),
    /// padding included.
    pub fn factored(&self) -> &TiledMatrix {
        &self.a
    }

    /// R: the min(M, N) × N upper trapezoid.
    pub fn r(&self) -> DenseMatrix {
        self.a.leading(self.m.min(self.n), self.n).upper_triangle()
    }

    /// Apply op(Q) to a tiled matrix `c` with the same tile-row count:
    /// `Trans` computes Qᵀ·C (forward elimination order, as during the
    /// factorization), `NoTrans` computes Q·C ("applying the reverse
    /// trees", §V-A). Runs [`hqr_runtime::try_apply_q`] with the
    /// factorization's own execution; every thread count gives the same
    /// bits.
    ///
    /// # Panics
    /// Panics with the engine's refusal if `c`'s tile rows or tile size
    /// differ from the factored matrix's.
    pub fn apply_q(&self, c: &mut TiledMatrix, trans: Trans) {
        let threads = match self.exec {
            Execution::Serial => 1,
            Execution::Parallel(t) => t,
        };
        let opts = ExecOptions::with_threads(threads);
        if let Err(e) = try_apply_q(&self.a, &self.factors, &self.ops, c, trans, &opts) {
            panic!("{e}");
        }
    }

    /// Run the paper's two checks against the original M × N matrix. Both
    /// run on the engine in one tiled buffer as wide as the factored matrix
    /// and are summed tile by tile (over the padding too, where A is zero):
    /// Q·[R; 0] against A, then Qᵀ·(Q·[I; 0]) against [I; 0], so the
    /// reverse and the forward trees both run. No M × M matrix is formed.
    pub fn check(&self, original: &DenseMatrix) -> QrCheck {
        let (m, n) = (original.rows(), original.cols());
        assert_eq!((m, n), (self.m, self.n), "the check needs the factored matrix");
        let (mt, nt, b) = (self.a.mt(), self.a.nt(), self.a.b());
        let mut c = TiledMatrix::zeros(mt, nt, b);
        c.fill_with(|i, j| if i <= j { self.a.get(i, j) } else { 0.0 });
        self.apply_q(&mut c, Trans::NoTrans);
        let residual = c.distance(|i, j| if i < m && j < n { original.get(i, j) } else { 0.0 });
        c.fill_with(|i, j| if i == j { 1.0 } else { 0.0 });
        self.apply_q(&mut c, Trans::NoTrans);
        self.apply_q(&mut c, Trans::Trans);
        let orthogonality = c.distance(|i, j| if i == j { 1.0 } else { 0.0 });
        QrCheck { orthogonality, residual: residual / original.frob_norm().max(1.0), m: mt * b }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;
    use crate::trees::TreeKind;
    use hqr_runtime::task::SlotFamily;

    fn check_config(mt: usize, nt: usize, b: usize, elims: &ElimList, exec: Execution, seed: u64) {
        let a = TiledMatrix::random(mt, nt, b, seed);
        let a0 = a.to_dense();
        let f = qr_factorize(a, elims, exec);
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
        let a = TiledMatrix::random(mt, nt, b, 11);
        let mut c = a.clone();
        let f = qr_factorize(a, &l, Execution::Serial);
        f.apply_q(&mut c, Trans::Trans);
        let qta = c.to_dense();
        let r = f.r();
        let diff = c.distance(|i, j| if i <= j { r.get(i, j) } else { 0.0 });
        assert!(diff < 1e-11, "QᵀA != R: {diff}");
        assert!(qta.max_abs_below_diagonal() < 1e-12);
    }

    #[test]
    fn r_diagonal_blocks_upper_triangular() {
        let (mt, nt, b) = (5, 5, 4);
        let l = Schedule::binary(mt, nt).to_elim_list(false);
        let f = qr_factorize(TiledMatrix::random(mt, nt, b, 12), &l, Execution::Serial);
        let r = f.r();
        assert_eq!((r.rows(), r.cols()), (20, 20));
        assert_eq!(r.max_abs_below_diagonal(), 0.0);
    }

    #[test]
    fn q_application_roundtrip() {
        let (mt, nt, b) = (6, 2, 3);
        let cfg = HqrConfig::new(2, 1).with_a(3).with_domino(true);
        let l = cfg.elimination_list(mt, nt);
        let f = qr_factorize(TiledMatrix::random(mt, nt, b, 13), &l, Execution::Serial);
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
        let f = qr_factorize(TiledMatrix::random(mt, nt, b, 104), &elims, Execution::Serial);
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
        let a = TiledMatrix::random(mt, nt, b, 106);
        let f = qr_factorize_ib(a, &elims, Execution::Serial, 3);
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
            let a = TiledMatrix::random(mt, nt, b, 101);
            let a0 = a.to_dense();
            let f = qr_factorize_ib(a, &elims, Execution::Serial, ib);
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
            let a = TiledMatrix::random(mt, nt, b, 102);
            qr_factorize_ib(a, &elims, Execution::Serial, ib).r()
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
        let a1 = TiledMatrix::random(mt, nt, b, 103);
        let f2 = qr_factorize_ib(a1.clone(), &elims, Execution::Parallel(4), 3);
        let f1 = qr_factorize_ib(a1, &elims, Execution::Serial, 3);
        assert_eq!(f1.r().data(), f2.r().data());
    }

    #[test]
    #[should_panic(expected = "different mt")]
    fn shape_mismatch_rejected() {
        let l = Schedule::flat(4, 2).to_elim_list(true);
        let _ = qr_factorize(TiledMatrix::random(5, 2, 3, 15), &l, Execution::Serial);
    }

    /// One flipped sign in a V2 block or in a τ makes Q another matrix:
    /// the residual crosses the tolerance by orders of magnitude. A flipped
    /// τ also makes Q no longer orthogonal (`I + τvvᵀ` is no reflector). A
    /// flipped element of V leaves ‖v‖ and so each reflector `I − τvvᵀ`
    /// orthogonal, and T is rebuilt from V and τ where Q is applied, so
    /// the orthogonality norm stays at rounding there: only the residual
    /// sees that corruption.
    #[test]
    fn check_catches_one_corrupted_v_or_tau_element() {
        let (mt, nt, b) = (6usize, 3usize, 4usize);
        let elims = Schedule::flat(mt, nt).to_elim_list(true);
        let a = TiledMatrix::random(mt, nt, b, 16);
        let a0 = a.to_dense();
        let clean = qr_factorize(a.clone(), &elims, Execution::Serial);
        assert!(clean.check(&a0).is_satisfactory());
        let tol = 100.0 * f64::EPSILON * (mt * b) as f64;
        let flip = |x: &mut f64| {
            assert_ne!(*x, 0.0, "the flipped element must hold a value");
            *x = -*x;
        };
        // TSQRT(1, 3) leaves V2 in the whole of tile (3, 1), below the diagonal.
        let mut v_hit = qr_factorize(a.clone(), &elims, Execution::Serial);
        flip(&mut v_hit.a.tile_mut(3, 1)[b + 2]);
        // Its τ: element 1 is the second reflector's.
        let mut t_hit = qr_factorize(a, &elims, Execution::Serial);
        flip(&mut t_hit.factors.slot_mut(SlotFamily::Tk, 3, 1).expect("a TS kill")[1]);
        for (what, f, orthogonal) in [("V", v_hit, true), ("τ", t_hit, false)] {
            let chk = f.check(&a0);
            assert!(!chk.is_satisfactory(), "{what}: {chk:?}");
            assert!(chk.residual > 1e6 * tol, "{what}: residual {:e}", chk.residual);
            let orth = chk.orthogonality;
            assert_eq!(orth < tol, orthogonal, "{what}: orthogonality {orth:e}");
            assert!(orthogonal || orth > 1e6 * tol, "{what}: orthogonality {orth:e}");
        }
    }

    // The dense constructor: any M × N (M ≥ N), zero-padded into tiles.

    fn cfg() -> HqrConfig {
        HqrConfig::new(2, 1).with_a(2).with_low(TreeKind::Greedy).with_domino(true)
    }

    fn check_dense_qr(m: usize, n: usize, b: usize, seed: u64) {
        let a = DenseMatrix::random(m, n, seed);
        let qr = QrFactorization::from_dense(&a, b, b, cfg(), Execution::Serial);
        assert_eq!((qr.rows(), qr.cols()), (m, n));
        let q = qr.q_thin();
        let r = qr.r();
        assert_eq!((q.rows(), q.cols(), r.rows(), r.cols()), (m, n, n, n));
        assert!(q.orthogonality_error() < 1e-12 * (m as f64), "Q not orthonormal");
        let err = a.sub(&q.matmul(&r)).frob_norm() / a.frob_norm().max(1.0);
        assert!(err < 1e-12, "{m}x{n} b={b}: reconstruction error {err}");
        assert_eq!(r.max_abs_below_diagonal(), 0.0);
        let chk = qr.check(&a);
        assert!(chk.is_satisfactory(), "{m}x{n} b={b}: {chk:?}");
    }

    #[test]
    fn dense_exact_tile_multiples() {
        check_dense_qr(24, 12, 4, 1);
    }

    #[test]
    fn dense_ragged_rows() {
        check_dense_qr(26, 12, 4, 2);
        check_dense_qr(25, 12, 4, 3);
    }

    #[test]
    fn dense_ragged_cols() {
        check_dense_qr(24, 10, 4, 4);
        check_dense_qr(24, 9, 4, 5);
    }

    #[test]
    fn dense_ragged_both() {
        check_dense_qr(27, 11, 4, 6);
        check_dense_qr(13, 5, 4, 7);
    }

    #[test]
    fn dense_tiny_matrices() {
        check_dense_qr(1, 1, 4, 8);
        check_dense_qr(3, 2, 4, 9);
        check_dense_qr(5, 5, 4, 10);
    }

    #[test]
    fn dense_tile_bigger_than_matrix() {
        check_dense_qr(3, 2, 8, 11);
    }

    #[test]
    fn dense_least_squares_on_ragged() {
        let (m, n, b) = (29usize, 7usize, 4usize);
        let a = DenseMatrix::random(m, n, 12);
        let x_true = DenseMatrix::random(n, 2, 13);
        let rhs = a.matmul(&x_true);
        let qr = QrFactorization::from_dense(&a, b, b, cfg(), Execution::Serial);
        let x = qr.solve_least_squares(&rhs);
        assert!(x.sub(&x_true).frob_norm() < 1e-9, "err {}", x.sub(&x_true).frob_norm());
    }

    #[test]
    fn dense_inner_blocked_parallel() {
        let a = DenseMatrix::random(21, 9, 15);
        let qr = QrFactorization::from_dense(&a, 4, 2, cfg(), Execution::Parallel(3));
        let recon = qr.q_thin().matmul(&qr.r());
        assert!(a.sub(&recon).frob_norm() < 1e-12 * a.frob_norm());
        assert!(qr.check(&a).is_satisfactory());
    }

    #[test]
    #[should_panic(expected = "M >= N")]
    fn dense_wide_rejected() {
        let a = DenseMatrix::random(4, 9, 16);
        let _ = QrFactorization::from_dense(&a, 4, 4, cfg(), Execution::Serial);
    }
}
