//! End-to-end integration tests: configuration → elimination list → task
//! DAG → (parallel) execution → numerical verification, across the whole
//! parameter space of the hierarchical algorithm.

use hqr::prelude::*;

fn run_and_check(cfg: HqrConfig, mt: usize, nt: usize, b: usize, exec: Execution, seed: u64) {
    let elims = cfg.elimination_list(mt, nt);
    let a = TiledMatrix::random(mt, nt, b, seed);
    let a0 = a.to_dense();
    let fac = qr_factorize(a, &elims, exec);
    let check = fac.check(&a0);
    assert!(
        check.is_satisfactory(),
        "{} on {mt}x{nt}: ortho={:e} resid={:e}",
        cfg.describe(),
        check.orthogonality,
        check.residual
    );
}

#[test]
fn hqr_every_tree_combination_parallel() {
    for low in TreeKind::ALL {
        for high in TreeKind::ALL {
            let cfg =
                HqrConfig::new(3, 1).with_a(2).with_low(low).with_high(high).with_domino(true);
            run_and_check(cfg, 12, 5, 4, Execution::Parallel(4), 17);
        }
    }
}

#[test]
fn hqr_domino_off_all_lows() {
    for low in TreeKind::ALL {
        let cfg = HqrConfig::new(3, 1).with_a(2).with_low(low).with_domino(false);
        run_and_check(cfg, 12, 5, 4, Execution::Parallel(2), 18);
    }
}

#[test]
fn hqr_various_domain_sizes() {
    for a in [1usize, 2, 3, 5, 12] {
        let cfg = HqrConfig::new(2, 1).with_a(a).with_domino(true);
        run_and_check(cfg, 12, 4, 3, Execution::Serial, 19);
    }
}

#[test]
fn hqr_various_grids() {
    for p in [1usize, 2, 4, 7, 16] {
        let cfg = HqrConfig::new(p, 1).with_a(2).with_domino(true);
        run_and_check(cfg, 16, 4, 3, Execution::Serial, 20);
    }
}

#[test]
fn square_matrices_all_algorithms() {
    let n = 8;
    for elims in [
        Schedule::flat(n, n).to_elim_list(true),
        Schedule::binary(n, n).to_elim_list(false),
        Schedule::greedy(n, n).to_elim_list(false),
        Schedule::fibonacci(n, n).to_elim_list(false),
    ] {
        let a = TiledMatrix::random(n, n, 4, 21);
        let a0 = a.to_dense();
        let fac = qr_factorize(a, &elims, Execution::Parallel(3));
        assert!(fac.check(&a0).is_satisfactory());
    }
}

#[test]
fn baselines_factor_correctly() {
    let (mt, nt, b) = (12usize, 4usize, 4usize);
    let grid = ProcessGrid::new(3, 2);
    for setup in [
        hqr::baselines::bbd10(mt, nt, grid),
        hqr::baselines::slhd10(mt, nt, 4),
        hqr::baselines::hqr_tall_skinny(mt, nt, grid),
        hqr::baselines::hqr_square(mt, nt, grid),
    ] {
        let a = TiledMatrix::random(mt, nt, b, 22);
        let a0 = a.to_dense();
        let fac = qr_factorize(a, &setup.elims, Execution::Parallel(2));
        assert!(fac.check(&a0).is_satisfactory(), "{} fails numerically", setup.name);
    }
}

#[test]
fn wide_matrices_more_columns_than_rows() {
    // mt < nt: only mt panels exist; R is upper trapezoidal.
    let cfg = HqrConfig::new(2, 1).with_a(2).with_domino(true);
    run_and_check(cfg, 4, 9, 3, Execution::Serial, 23);
}

#[test]
fn parallel_and_serial_agree_bitwise_end_to_end() {
    let cfg = HqrConfig::new(3, 1).with_a(2).with_low(TreeKind::Greedy).with_domino(true);
    let elims = cfg.elimination_list(15, 6);
    let a1 = TiledMatrix::random(15, 6, 4, 24);
    let a2 = a1.clone();
    let f1 = qr_factorize(a1, &elims, Execution::Serial);
    let f2 = qr_factorize(a2, &elims, Execution::Parallel(4));
    assert_eq!(f1.factored().to_dense().data(), f2.factored().to_dense().data());
    assert_eq!(f1.r().data(), f2.r().data());
}

#[test]
fn deterministic_across_runs() {
    let cfg = HqrConfig::new(2, 2).with_a(3);
    let elims = cfg.elimination_list(10, 4);
    let run = || {
        let a = TiledMatrix::random(10, 4, 5, 25);
        let f = qr_factorize(a, &elims, Execution::Parallel(3));
        f.r().data().to_vec()
    };
    assert_eq!(run(), run(), "parallel factorization must be deterministic");
}

#[test]
fn r_matches_dense_reference_for_hqr() {
    let cfg = HqrConfig::new(3, 1).with_a(2).with_domino(true);
    let elims = cfg.elimination_list(12, 4);
    let a = TiledMatrix::random(12, 4, 4, 26);
    let a0 = a.to_dense();
    let fac = qr_factorize(a, &elims, Execution::Serial);
    let r = fac.r();
    let (_, r_ref) = hqr_kernels::reference::dense_householder_qr(&a0);
    for d in 0..16 {
        let sign = if r.get(d, d) * r_ref.get(d, d) >= 0.0 { 1.0 } else { -1.0 };
        for j in d..16 {
            assert!(
                (r.get(d, j) - sign * r_ref.get(d, j)).abs() < 1e-10,
                "R mismatch at ({d},{j})"
            );
        }
    }
}
