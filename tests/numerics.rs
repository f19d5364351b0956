//! Numerical robustness of the factorization beyond well-scaled random
//! matrices: graded columns, huge dynamic range, nearly dependent columns,
//! and special structures. Householder QR is backward stable; the checks
//! must hold for all of these.

use hqr::prelude::*;

fn factor_and_check(a0: &DenseMatrix, mt: usize, nt: usize, b: usize, label: &str) {
    let cfg = HqrConfig::new(2, 1).with_a(2).with_low(TreeKind::Greedy).with_domino(true);
    let elims = cfg.elimination_list(mt, nt);
    let a = TiledMatrix::from_dense(a0, b);
    let fac = qr_factorize(a, &elims, Execution::Parallel(3));
    let check = fac.check(a0);
    assert!(
        check.is_satisfactory(),
        "{label}: ortho={:e} resid={:e}",
        check.orthogonality,
        check.residual
    );
}

#[test]
fn graded_columns() {
    // Column j scaled by 10^(−j/2): dynamic range ~1e-8 over 16 columns.
    let (mt, nt, b) = (8usize, 4usize, 4usize);
    let mut a = DenseMatrix::random(mt * b, nt * b, 61);
    for j in 0..nt * b {
        let s = 10f64.powf(-(j as f64) / 2.0);
        for i in 0..mt * b {
            a.set(i, j, a.get(i, j) * s);
        }
    }
    factor_and_check(&a, mt, nt, b, "graded columns");
}

#[test]
fn graded_rows() {
    let (mt, nt, b) = (8usize, 3usize, 4usize);
    let mut a = DenseMatrix::random(mt * b, nt * b, 62);
    for i in 0..mt * b {
        let s = 2f64.powf(-(i as f64) / 3.0);
        for j in 0..nt * b {
            a.set(i, j, a.get(i, j) * s);
        }
    }
    factor_and_check(&a, mt, nt, b, "graded rows");
}

#[test]
fn huge_and_tiny_entries() {
    let (mt, nt, b) = (6usize, 2usize, 4usize);
    let mut a = DenseMatrix::random(mt * b, nt * b, 63);
    // Scatter a few extreme entries.
    a.set(0, 0, 1e12);
    a.set(5, 1, -1e12);
    a.set(10, 3, 1e-12);
    factor_and_check(&a, mt, nt, b, "huge/tiny entries");
}

#[test]
fn nearly_dependent_columns() {
    // Column 1 = column 0 + 1e-10 noise: R(1,1) is tiny but the
    // factorization stays backward stable.
    let (mt, nt, b) = (6usize, 1usize, 4usize);
    let mut a = DenseMatrix::random(mt * b, nt * b, 64);
    for i in 0..mt * b {
        a.set(i, 1, a.get(i, 0) + 1e-10 * a.get(i, 1));
    }
    factor_and_check(&a, mt, nt, b, "nearly dependent");
}

#[test]
fn identity_and_negated_identity() {
    let (mt, nt, b) = (4usize, 4usize, 4usize);
    let id = DenseMatrix::identity(mt * b, nt * b);
    factor_and_check(&id, mt, nt, b, "identity");
    let mut neg = DenseMatrix::zeros(mt * b, nt * b);
    for d in 0..nt * b {
        neg.set(d, d, -1.0);
    }
    factor_and_check(&neg, mt, nt, b, "negated identity");
}

#[test]
fn matrix_with_zero_columns() {
    // A zero column makes R singular but the factorization itself (Q
    // orthogonal, A = QR) must still hold.
    let (mt, nt, b) = (6usize, 2usize, 4usize);
    let mut a = DenseMatrix::random(mt * b, nt * b, 65);
    for i in 0..mt * b {
        a.set(i, 3, 0.0);
    }
    factor_and_check(&a, mt, nt, b, "zero column");
}

#[test]
fn all_ones_rank_one() {
    let (mt, nt, b) = (5usize, 2usize, 4usize);
    let mut a = DenseMatrix::zeros(mt * b, nt * b);
    for j in 0..nt * b {
        for i in 0..mt * b {
            a.set(i, j, 1.0);
        }
    }
    factor_and_check(&a, mt, nt, b, "rank one");
}

#[test]
fn residual_scales_with_matrix_norm() {
    // Backward stability: scaling A by 1e6 scales the absolute residual
    // but the relative residual is unchanged (to rounding).
    let (mt, nt, b) = (6usize, 3usize, 4usize);
    let cfg = HqrConfig::new(3, 1).with_a(2).with_domino(true);
    let elims = cfg.elimination_list(mt, nt);
    let base = DenseMatrix::random(mt * b, nt * b, 66);
    let rel = |scale: f64| {
        let mut scaled = DenseMatrix::zeros(mt * b, nt * b);
        for j in 0..nt * b {
            for i in 0..mt * b {
                scaled.set(i, j, scale * base.get(i, j));
            }
        }
        let a = TiledMatrix::from_dense(&scaled, b);
        let fac = qr_factorize(a, &elims, Execution::Serial);
        fac.check(&scaled).residual
    };
    let (r1, r2) = (rel(1.0), rel(1e6));
    assert!(r1 < 1e-13 && r2 < 1e-13, "relative residuals: {r1:e} vs {r2:e}");
}

/// Factor a tile (pair) whose entries are `scale` times O(1) through one
/// factor kernel and return `(‖QᵀQ − I‖, ‖A − QR‖ / ‖A‖)`, the residual
/// computed on the unscaled data so the check itself cannot overflow.
fn extreme_scale_errors(kernel: &str, b: usize, ib: usize, scale: f64) -> (f64, f64) {
    use hqr_kernels::blocked::{geqrt_ib, tsmqr_ib, tsqrt_ib, ttmqr_ib, ttqrt_ib, unmqr_ib};
    use hqr_kernels::Trans;
    let upper = |m: &DenseMatrix| m.upper_triangle();
    let top0 = DenseMatrix::random(b, b, 71);
    let bot0 = DenseMatrix::random(b, b, 72);
    let (top0, bot0) = match kernel {
        "geqrt" => (top0, DenseMatrix::zeros(b, b)),
        "tsqrt" => (upper(&top0), bot0),
        _ => (upper(&top0), upper(&bot0)),
    };
    let scaled = |m: &DenseMatrix| m.data().iter().map(|x| x * scale).collect::<Vec<f64>>();
    let (mut a1, mut a2, mut t) = (scaled(&top0), scaled(&bot0), vec![0.0; b * b]);
    match kernel {
        "geqrt" => geqrt_ib(b, ib, &mut a1, &mut t),
        "tsqrt" => tsqrt_ib(b, ib, &mut a1, &mut a2, &mut t),
        _ => ttqrt_ib(b, ib, &mut a1, &mut a2, &mut t),
    }
    // Q (scale-free) applied to [R; 0] / scale must give back the input.
    let unscaled_r: Vec<f64> =
        upper(&DenseMatrix::from_col_major(b, b, &a1)).data().iter().map(|x| x / scale).collect();
    let rows = if kernel == "geqrt" { b } else { 2 * b };
    let mut q = DenseMatrix::zeros(rows, rows);
    let mut back = DenseMatrix::zeros(rows, b);
    let mut a0 = DenseMatrix::zeros(rows, b);
    let put = |m: &mut DenseMatrix, c1: &[f64], c2: &[f64], col0: usize| {
        for j in 0..b {
            for i in 0..b {
                m.set(i, col0 + j, c1[i + j * b]);
                if rows > b {
                    m.set(b + i, col0 + j, c2[i + j * b]);
                }
            }
        }
    };
    let apply = |c1: &mut [f64], c2: &mut [f64]| match kernel {
        "geqrt" => unmqr_ib(b, ib, &a1, &t, c1, Trans::NoTrans),
        "tsqrt" => tsmqr_ib(b, ib, &a2, &t, c1, c2, Trans::NoTrans),
        _ => ttmqr_ib(b, ib, &a2, &t, c1, c2, Trans::NoTrans),
    };
    let eye = DenseMatrix::identity(b, b).data().to_vec();
    let zero = vec![0.0; b * b];
    for half in 0..rows / b {
        let (mut c1, mut c2) =
            if half == 0 { (eye.clone(), zero.clone()) } else { (zero.clone(), eye.clone()) };
        apply(&mut c1, &mut c2);
        put(&mut q, &c1, &c2, half * b);
    }
    let (mut c1, mut c2) = (unscaled_r, zero);
    apply(&mut c1, &mut c2);
    put(&mut back, &c1, &c2, 0);
    put(&mut a0, top0.data(), bot0.data(), 0);
    (q.orthogonality_error(), a0.sub(&back).frob_norm() / a0.frob_norm())
}

#[test]
fn factor_kernels_survive_entries_near_overflow_and_underflow() {
    // Σx² of a column overflows from |x| ≈ 1e155 and flushes to zero below
    // ≈ 1e-162: the reflector generator must rescale, or GEQRT / TSQRT /
    // TTQRT return NaN, respectively leave the column in place with τ = 0.
    let (b, eps) = (24usize, f64::EPSILON);
    for scale in [1e200, 1e-200, 1.0] {
        for kernel in ["geqrt", "tsqrt", "ttqrt"] {
            for ib in [5, 8, b] {
                let (ortho, resid) = extreme_scale_errors(kernel, b, ib, scale);
                let bound = 50.0 * b as f64 * eps;
                assert!(
                    ortho <= bound && resid <= bound,
                    "{kernel} ib={ib} scale={scale:e}: ortho {ortho:e}, residual {resid:e}"
                );
            }
        }
    }
}
