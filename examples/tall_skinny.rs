//! Tall-and-skinny workload (the paper's motivating case for
//! communication-avoiding QR): compare reduction trees on a 64×4-tile
//! panel matrix, both in the coarse-grain model and with real numerics on
//! the shared-memory runtime.
//!
//! Run with: `cargo run --release --example tall_skinny`

use hqr::model;
use hqr::prelude::*;
use std::time::Instant;

fn main() {
    let (mt, nt, b) = (64usize, 4usize, 24usize);
    println!("tall-and-skinny QR: {}x{} tiles ({}x{} doubles)\n", mt, nt, mt * b, nt * b);

    // 1. Coarse-grain unit-time model (§III): makespans of the whole-matrix
    //    trees. GREEDY is provably optimal here [12,13].
    println!("coarse-grain makespans (unit-time eliminations):");
    let schedules = [
        ("flat", Schedule::flat(mt, nt)),
        ("binary", Schedule::binary(mt, nt)),
        ("fibonacci", Schedule::fibonacci(mt, nt)),
        ("greedy", Schedule::greedy(mt, nt)),
    ];
    for (name, s) in &schedules {
        println!("  {name:<10} {:>4} steps", s.makespan());
    }
    println!(
        "  (flat-vs-greedy critical-path ratio, model of §V-B: {:.2})\n",
        model::low_level_cp_ratio(mt, nt)
    );

    // 2. Real numerics: factor the same random matrix with each tree on
    //    the multithreaded runtime and verify the paper's checks.
    println!("real factorization on the task-DAG runtime (4 threads):");
    for (name, s) in &schedules {
        let elims = s.to_elim_list(*name == "flat");
        let a = TiledMatrix::random(mt, nt, b, 99);
        let a0 = a.to_dense();
        let t0 = Instant::now();
        let fac = qr_factorize(a, &elims, Execution::Parallel(4));
        let dt = t0.elapsed();
        let check = fac.check(&a0);
        println!(
            "  {name:<10} {:>7.1} ms   ortho {:.1e}   resid {:.1e}   {}",
            dt.as_secs_f64() * 1e3,
            check.orthogonality,
            check.residual,
            if check.is_satisfactory() { "ok" } else { "FAIL" }
        );
    }

    // 3. The hierarchical algorithm on a virtual 4-cluster grid, with and
    //    without the domino coupling level.
    println!("\nhierarchical HQR (p=4, a=2, fibonacci/fibonacci):");
    for domino in [false, true] {
        let cfg = HqrConfig::new(4, 1)
            .with_a(2)
            .with_low(TreeKind::Fibonacci)
            .with_high(TreeKind::Fibonacci)
            .with_domino(domino);
        let elims = cfg.elimination_list(mt, nt);
        let a = TiledMatrix::random(mt, nt, b, 99);
        let a0 = a.to_dense();
        let fac = qr_factorize(a, &elims, Execution::Parallel(4));
        let check = fac.check(&a0);
        let [ts, low, coupling, high, _] = elims.level_counts();
        println!(
            "  domino={:<3} levels TS/low/coupling/high = {ts}/{low}/{coupling}/{high}   resid {:.1e}   {}",
            if domino { "on" } else { "off" },
            check.residual,
            if check.is_satisfactory() { "ok" } else { "FAIL" }
        );
    }
}
