//! Property-based integration tests (proptest): structural invariants of
//! elimination lists, schedules and DAGs over randomly drawn
//! configurations, plus numerical soundness of random factorizations.

use hqr::model;
use hqr::prelude::*;
use hqr_runtime::{analysis, TaskGraph};
use proptest::prelude::*;

fn tree_strategy() -> impl Strategy<Value = TreeKind> {
    prop_oneof![
        Just(TreeKind::Flat),
        Just(TreeKind::Binary),
        Just(TreeKind::Greedy),
        Just(TreeKind::Fibonacci),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any HQR configuration yields a list passing the §II validity
    /// conditions (ElimList::new would panic otherwise) with exactly one
    /// elimination per sub-diagonal tile.
    #[test]
    fn hqr_lists_always_valid(
        mt in 1usize..40,
        nt in 1usize..12,
        p in 1usize..8,
        a in 1usize..6,
        domino in any::<bool>(),
        low in tree_strategy(),
        high in tree_strategy(),
    ) {
        let cfg = HqrConfig::new(p, 1).with_a(a).with_low(low).with_high(high).with_domino(domino);
        let l = cfg.elimination_list(mt, nt);
        let kmax = mt.min(nt);
        let expected: usize = (0..kmax).map(|k| mt - 1 - k).sum();
        prop_assert_eq!(l.elims().len(), expected);
    }

    /// The kernel-weight invariant (§II) holds for every configuration.
    #[test]
    fn weight_invariant(
        mt in 1usize..24,
        nt in 1usize..10,
        p in 1usize..6,
        a in 1usize..5,
        domino in any::<bool>(),
    ) {
        let cfg = HqrConfig::new(p, 1).with_a(a).with_domino(domino);
        let l = cfg.elimination_list(mt, nt);
        let g = TaskGraph::build(mt, nt, 4, &l.to_ops());
        prop_assert_eq!(analysis::dag_stats(&g).total_weight, model::total_weight(mt, nt));
    }

    /// DAG edges always point forward: program order is topological.
    #[test]
    fn dag_program_order_topological(
        mt in 1usize..20,
        nt in 1usize..8,
        p in 1usize..5,
        domino in any::<bool>(),
    ) {
        let cfg = HqrConfig::new(p, 1).with_a(2).with_domino(domino);
        let l = cfg.elimination_list(mt, nt);
        let g = TaskGraph::build(mt, nt, 2, &l.to_ops());
        for t in 0..g.tasks().len() {
            for &s in g.successors(t) {
                prop_assert!((s as usize) > t);
            }
        }
    }

    /// Unit-time schedules are complete and respect readiness (each
    /// elimination strictly after both rows' previous-panel eliminations).
    #[test]
    fn schedules_respect_readiness(
        mt in 2usize..40,
        nt in 1usize..10,
        which in 0usize..4,
    ) {
        let s = match which {
            0 => Schedule::flat(mt, nt),
            1 => Schedule::binary(mt, nt),
            2 => Schedule::greedy(mt, nt),
            _ => Schedule::fibonacci(mt, nt),
        };
        for k in 0..mt.min(nt) {
            for i in (k + 1)..mt {
                let t = s.step(i, k).expect("scheduled");
                if k > 0 {
                    prop_assert!(t > s.step(i, k - 1).unwrap());
                    let u = s.killer(i, k).unwrap();
                    prop_assert!(t > s.step(u, k - 1).unwrap());
                }
            }
        }
    }

    /// Greedy never loses to the other trees (coarse-grain optimality).
    #[test]
    fn greedy_no_worse(mt in 2usize..32, nt in 1usize..10) {
        let g = Schedule::greedy(mt, nt).makespan();
        prop_assert!(g <= Schedule::flat(mt, nt).makespan());
        prop_assert!(g <= Schedule::binary(mt, nt).makespan());
        prop_assert!(g <= Schedule::fibonacci(mt, nt).makespan());
    }

    /// 2D block-cyclic layouts spread tiles within one tile of perfectly
    /// even (§IV-A: "best balances the load").
    #[test]
    fn cyclic2d_balance(p in 1usize..6, q in 1usize..5, mt in 1usize..30, nt in 1usize..30) {
        let lay = Layout::Cyclic2D(ProcessGrid::new(p, q));
        let counts = lay.tile_counts(mt, nt);
        let per_row = mt.div_ceil(p) * nt.div_ceil(q);
        let lo = (mt / p) * (nt / q);
        for c in counts {
            prop_assert!(c <= per_row && c >= lo);
        }
    }
}

proptest! {
    // Numerical cases are slower: fewer cases, still broad coverage.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random configuration + random matrix: the paper's two checks hold
    /// to machine precision.
    #[test]
    fn factorization_is_numerically_sound(
        mt in 1usize..10,
        nt in 1usize..6,
        p in 1usize..4,
        a in 1usize..4,
        domino in any::<bool>(),
        low in tree_strategy(),
        seed in any::<u64>(),
    ) {
        let b = 4usize;
        let cfg = HqrConfig::new(p, 1).with_a(a).with_low(low).with_domino(domino);
        let elims = cfg.elimination_list(mt, nt);
        let m = TiledMatrix::random(mt, nt, b, seed);
        let a0 = m.to_dense();
        let fac = qr_factorize(m, &elims, Execution::Serial);
        let check = fac.check(&a0);
        prop_assert!(check.is_satisfactory(),
            "ortho={:e} resid={:e}", check.orthogonality, check.residual);
    }

    /// The dense driver handles arbitrary (non-tile-multiple) shapes:
    /// Q has orthonormal columns and QR reconstructs A.
    #[test]
    fn dense_driver_handles_ragged_shapes(
        m in 1usize..40,
        n_frac in 1usize..40,
        b in 1usize..7,
        seed in any::<u64>(),
    ) {
        let n = (n_frac % m).max(1);
        let a = DenseMatrix::random(m, n, seed);
        let cfg = HqrConfig::new(2, 1).with_a(2);
        let qr = QrFactorization::from_dense(&a, b, b, cfg, Execution::Serial);
        let q = qr.q_thin();
        prop_assert!(q.orthogonality_error() < 1e-11 * m as f64);
        let recon = q.matmul(&qr.r());
        prop_assert!(a.sub(&recon).frob_norm() < 1e-11 * a.frob_norm().max(1.0));
    }

    /// R is independent (up to column signs on its diagonal) of the tree
    /// used: all algorithms compute the same factorization.
    #[test]
    fn r_is_tree_independent(seed in any::<u64>()) {
        let (mt, nt, b) = (6usize, 3usize, 4usize);
        let r_of = |elims: &ElimList| {
            let m = TiledMatrix::random(mt, nt, b, seed);
            let f = qr_factorize(m, elims, Execution::Serial);
            f.r()
        };
        let r1 = r_of(&Schedule::flat(mt, nt).to_elim_list(true));
        let r2 = r_of(&Schedule::greedy(mt, nt).to_elim_list(false));
        for d in 0..nt * b {
            let sign = if r1.get(d, d) * r2.get(d, d) >= 0.0 { 1.0 } else { -1.0 };
            for j in d..nt * b {
                prop_assert!((r1.get(d, j) - sign * r2.get(d, j)).abs() < 1e-10,
                    "R mismatch at ({},{})", d, j);
            }
        }
    }
}
