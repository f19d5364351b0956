//! Least-squares fitting through the hierarchical QR factorization: fit a
//! degree-15 polynomial to noisy samples — the classic downstream use of
//! the QR factorization the paper's §I motivates ("the performance of
//! numerical linear algebra kernels is at the heart of many grand
//! challenge applications").
//!
//! Run with: `cargo run --release --example least_squares`

use hqr::prelude::*;
use rand::{Rng, SeedableRng};

fn main() {
    // Sample y = sin(3x) + noise at m points; fit a polynomial of degree
    // n−1 in the monomial basis via min‖V·c − y‖₂ where V is Vandermonde.
    let b = 16usize;
    let (m, n) = (512usize, 16usize);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
    let xs: Vec<f64> = (0..m).map(|i| -1.0 + 2.0 * i as f64 / (m - 1) as f64).collect();
    let ys: Vec<f64> =
        xs.iter().map(|&x| (3.0 * x).sin() + 0.01 * (rng.gen::<f64>() - 0.5)).collect();

    // Vandermonde matrix.
    let mut vand = DenseMatrix::zeros(m, n);
    for (i, &x) in xs.iter().enumerate() {
        let mut p = 1.0;
        for j in 0..n {
            vand.set(i, j, p);
            p *= x;
        }
    }

    // Factor with HQR (virtual 4-cluster grid, domino on) and solve.
    let cfg = HqrConfig::new(4, 1)
        .with_a(2)
        .with_low(TreeKind::Greedy)
        .with_high(TreeKind::Fibonacci)
        .with_domino(true);
    let fac = QrFactorization::from_dense(&vand, b, b, cfg, Execution::Parallel(4));

    let rhs = DenseMatrix::from_col_major(m, 1, &ys);
    let coeff = fac.solve_least_squares(&rhs);

    // Report the fit quality.
    let resid = vand.matmul(&coeff).sub(&rhs).frob_norm();
    let rms = resid / (m as f64).sqrt();
    println!("samples            : {m}");
    println!("polynomial degree  : {}", n - 1);
    println!("configuration      : {}", cfg.describe());
    println!("residual ‖Vc − y‖₂ : {resid:.4e}  (rms {rms:.4e})");
    // sin(3x) is entire: a degree-15 fit on [-1,1] should sit at the noise
    // floor (~1e-2 noise / sqrt(12) per sample).
    assert!(rms < 5e-3, "fit should reach the noise floor, rms = {rms}");

    // Evaluate the fitted polynomial at a few points.
    println!("\n    x      sin(3x)    fit");
    for &x in &[-0.9f64, -0.3, 0.0, 0.4, 0.8] {
        let mut p = 0.0;
        let mut xp = 1.0;
        for j in 0..n {
            p += coeff.get(j, 0) * xp;
            xp *= x;
        }
        println!("  {x:>5.2}  {:>8.5}  {p:>8.5}", (3.0 * x).sin());
    }
}
