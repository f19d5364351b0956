//! Quickstart: factor a tiled matrix with the hierarchical QR algorithm
//! and verify the result the way the paper does (§V-A), on the same engine:
//! apply the reverse trees to [R; 0] and to [I; 0], the forward trees to
//! that Q·[I; 0], and check ‖A − Q·R‖ and ‖QᵀQ_thin − [I; 0]‖.
//!
//! Run with: `cargo run --release --example quickstart`

use hqr::prelude::*;
use hqr_kernels::Trans;

fn main() {
    // A 24×10-tile matrix of 16×16 tiles (384×160 doubles), as in the
    // §IV-B worked example: virtual grid p = 3, TS domains of a = 2 tiles,
    // greedy low-level tree, Fibonacci high-level tree, domino coupling on.
    let (mt, nt, b) = (24, 10, 16);
    let config = HqrConfig::new(3, 1)
        .with_a(2)
        .with_low(TreeKind::Greedy)
        .with_high(TreeKind::Fibonacci)
        .with_domino(true);
    println!("configuration : {}", config.describe());

    let elims = config.elimination_list(mt, nt);
    let [ts, low, coupling, high, _] = elims.level_counts();
    println!(
        "eliminations  : {} total — {ts} TS-level, {low} low-level, {coupling} coupling, {high} high-level",
        elims.elims().len()
    );

    let a = TiledMatrix::random(mt, nt, b, 42);
    let a0 = a.to_dense();
    println!(
        "matrix        : {}x{} elements ({}x{} tiles of {}x{})",
        a.rows(),
        a.cols(),
        mt,
        nt,
        b,
        b
    );

    // Factor through the task-DAG runtime on 4 worker threads.
    let fac = qr_factorize(a, &elims, Execution::Parallel(4));

    // The paper's checks.
    let check = fac.check(&a0);
    println!("‖QᵀQ₁ − [I;0]‖: {:.3e}", check.orthogonality);
    println!("‖A − QR‖/‖A‖  : {:.3e}", check.residual);
    assert!(check.is_satisfactory(), "checks must hold to machine precision");
    println!("checks        : satisfactory up to machine precision");

    // Use the factorization: solve a least-squares-style application of Qᵀ.
    let mut rhs = TiledMatrix::random(mt, 1, b, 7);
    fac.apply_q(&mut rhs, Trans::Trans);
    println!("Qᵀ·rhs        : applied through the stored reflectors");
    println!("R(0,0)        : {:.6}", fac.r().get(0, 0));
}
