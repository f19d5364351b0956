//! Properties of the three factor kernels at production shapes.
//!
//! One recursive panel routine serves GEQRT, TSQRT and TTQRT, plain and
//! inner-blocked, on both dispatch arms; this suite walks the recursion
//! depths those callers reach (`b` up to 128, `ib` from below the level-2
//! block width up to the whole tile) and checks what every caller relies
//! on: Q orthogonal and A = Q·R to `1e-13·b`, each panel's T consistent
//! with its V (`T·(VᵀV)·Tᵀ = T + Tᵀ`, the identity a wrong `T12` merge
//! breaks), R equal up to row signs to the level-2 oracle in
//! `hqr_kernels::reference`, dead storage bit-untouched under NaN poison,
//! and bitwise repeatability on a fixed arm.

use hqr_kernels::blocked::{
    geqrt_ib_arm, tsmqr_ib_arm, tsqrt_ib_arm, ttmqr_ib_arm, ttqrt_ib_arm, unmqr_ib_arm,
};
use hqr_kernels::reference::{geqrt_level2, stacked_qrt_level2};
use hqr_kernels::{
    geqrt, simd_arm, simd_detected, t_len, tsmqr, tsqrt, ttmqr, ttqrt, unmqr, SimdArm, Trans,
};
use hqr_tile::DenseMatrix;

mod support;

const SIZES: [usize; 4] = [8, 13, 64, 128];

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kernel {
    Geqrt,
    Tsqrt,
    Ttqrt,
}

const KERNELS: [Kernel; 3] = [Kernel::Geqrt, Kernel::Tsqrt, Kernel::Ttqrt];

fn arms() -> Vec<SimdArm> {
    let mut arms = vec![SimdArm::Scalar];
    if simd_detected() != SimdArm::Scalar {
        arms.push(simd_detected());
    }
    arms
}

fn ibs(b: usize) -> Vec<usize> {
    let mut v: Vec<usize> = [4, 8, 32, b].iter().map(|&ib| ib.min(b)).collect();
    v.dedup();
    v
}

fn tile(b: usize, seed: u64) -> Vec<f64> {
    DenseMatrix::random(b, b, seed).data().to_vec()
}

/// Keep the upper triangle, fill the strict lower with `fill`.
fn upper_with(b: usize, a: &[f64], fill: f64) -> Vec<f64> {
    let mut u = vec![fill; b * b];
    for j in 0..b {
        u[j * b..=j + j * b].copy_from_slice(&a[j * b..=j + j * b]);
    }
    u
}

/// Inputs of `kernel`: `(top, bottom)`, with storage the kernel must
/// ignore filled with `dead`.
fn inputs(kernel: Kernel, b: usize, seed: u64, dead: f64) -> (Vec<f64>, Vec<f64>) {
    let (x, y) = (tile(b, seed), tile(b, seed ^ 0xabcd));
    match kernel {
        Kernel::Geqrt => (x, vec![0.0; b * b]),
        Kernel::Tsqrt => (upper_with(b, &x, dead), y),
        Kernel::Ttqrt => (upper_with(b, &x, dead), upper_with(b, &y, dead)),
    }
}

fn factor(
    kernel: Kernel,
    arm: SimdArm,
    b: usize,
    ib: usize,
    a1: &mut [f64],
    a2: &mut [f64],
) -> Vec<f64> {
    let mut t = vec![f64::NAN; t_len(b, ib)];
    match kernel {
        Kernel::Geqrt => geqrt_ib_arm(arm, b, ib, a1, &mut t),
        Kernel::Tsqrt => tsqrt_ib_arm(arm, b, ib, a1, a2, &mut t),
        Kernel::Ttqrt => ttqrt_ib_arm(arm, b, ib, a1, a2, &mut t),
    }
    t
}

/// The stacked input as a dense `rows × b` matrix (dead storage as zero).
fn stacked_input(kernel: Kernel, b: usize, a1: &[f64], a2: &[f64]) -> DenseMatrix {
    let rows = if kernel == Kernel::Geqrt { b } else { 2 * b };
    let mut m = DenseMatrix::zeros(rows, b);
    for j in 0..b {
        for i in 0..b {
            match kernel {
                Kernel::Geqrt => m.set(i, j, a1[i + j * b]),
                _ => {
                    if i <= j {
                        m.set(i, j, a1[i + j * b]);
                    }
                    if kernel == Kernel::Tsqrt || i <= j {
                        m.set(b + i, j, a2[i + j * b]);
                    }
                }
            }
        }
    }
    m
}

/// Q of the factorization, built by applying it to the identity with the
/// matching update kernel.
fn build_q(
    kernel: Kernel,
    arm: SimdArm,
    b: usize,
    ib: usize,
    v1: &[f64],
    v2: &[f64],
    t: &[f64],
) -> DenseMatrix {
    let mut eye = vec![0.0; b * b];
    for d in 0..b {
        eye[d + d * b] = 1.0;
    }
    if kernel == Kernel::Geqrt {
        let mut c = eye;
        unmqr_ib_arm(arm, b, ib, v1, t, &mut c, Trans::NoTrans);
        return DenseMatrix::from_col_major(b, b, &c);
    }
    let mut q = DenseMatrix::zeros(2 * b, 2 * b);
    for half in 0..2 {
        let (mut c1, mut c2) = (vec![0.0; b * b], vec![0.0; b * b]);
        if half == 0 { &mut c1 } else { &mut c2 }.copy_from_slice(&eye);
        match kernel {
            Kernel::Tsqrt => tsmqr_ib_arm(arm, b, ib, v2, t, &mut c1, &mut c2, Trans::NoTrans),
            _ => ttmqr_ib_arm(arm, b, ib, v2, t, &mut c1, &mut c2, Trans::NoTrans),
        }
        for j in 0..b {
            for i in 0..b {
                q.set(i, half * b + j, c1[i + j * b]);
                q.set(b + i, half * b + j, c2[i + j * b]);
            }
        }
    }
    q
}

/// R as a dense `rows × b` matrix (upper triangle of the top tile).
fn r_of(b: usize, rows: usize, a1: &[f64]) -> DenseMatrix {
    let mut r = DenseMatrix::zeros(rows, b);
    for j in 0..b {
        for i in 0..=j {
            r.set(i, j, a1[i + j * b]);
        }
    }
    r
}

#[test]
fn q_is_orthogonal_and_reproduces_the_input() {
    for arm in arms() {
        for &b in &SIZES {
            for ib in ibs(b) {
                for kernel in KERNELS {
                    let (mut a1, mut a2) = inputs(kernel, b, 17 + b as u64, 0.0);
                    let a0 = stacked_input(kernel, b, &a1, &a2);
                    let t = factor(kernel, arm, b, ib, &mut a1, &mut a2);
                    let q = build_q(kernel, arm, b, ib, &a1, &a2, &t);
                    let tol = 1e-13 * b as f64;
                    let what = format!("{kernel:?} {arm:?} b={b} ib={ib}");
                    let ortho = q.orthogonality_error();
                    assert!(ortho <= tol, "{what}: |QtQ - I| = {ortho:e}");
                    let resid = a0.sub(&q.matmul(&r_of(b, a0.rows(), &a1))).frob_norm();
                    assert!(resid <= tol * a0.frob_norm(), "{what}: |A - QR| = {resid:e}");
                }
            }
        }
    }
}

/// Column `j` of the panel's V̂ restricted to the rows that matter for
/// `V̂ᵀV̂`: the stored part plus the implicit unit entry.
fn vhat_column(kernel: Kernel, b: usize, v1: &[f64], v2: &[f64], j: usize) -> Vec<f64> {
    let mut v = vec![0.0; 2 * b];
    v[j] = 1.0;
    match kernel {
        Kernel::Geqrt => v[j + 1..b].copy_from_slice(&v1[j + 1 + j * b..b + j * b]),
        Kernel::Tsqrt => v[b..].copy_from_slice(&v2[j * b..(j + 1) * b]),
        Kernel::Ttqrt => v[b..=b + j].copy_from_slice(&v2[j * b..=j + j * b]),
    }
    v
}

#[test]
fn every_panel_t_is_consistent_with_its_v() {
    for arm in arms() {
        for &b in &SIZES {
            for ib in ibs(b) {
                for kernel in KERNELS {
                    let (mut a1, mut a2) = inputs(kernel, b, 29 + b as u64, 0.0);
                    let t = support::expand_t(b, ib, &factor(kernel, arm, b, ib, &mut a1, &mut a2));
                    for s in (0..b).step_by(ib) {
                        let w = ib.min(b - s);
                        let cols: Vec<Vec<f64>> =
                            (s..s + w).map(|j| vhat_column(kernel, b, &a1, &a2, j)).collect();
                        let (mut g, mut tp) = (DenseMatrix::zeros(w, w), DenseMatrix::zeros(w, w));
                        for j in 0..w {
                            for i in 0..w {
                                g.set(i, j, cols[i].iter().zip(&cols[j]).map(|(x, y)| x * y).sum());
                                if i <= j {
                                    tp.set(i, j, t[i + (s + j) * ib]);
                                } else {
                                    assert_eq!(
                                        t[i + (s + j) * ib],
                                        0.0,
                                        "T strict lower must be 0"
                                    );
                                }
                            }
                        }
                        let tt = tp.transpose();
                        let gap = tp.matmul(&g).matmul(&tt).sub(&tp).sub(&tt).frob_norm();
                        assert!(
                            gap <= 1e-13 * b as f64,
                            "{kernel:?} {arm:?} b={b} ib={ib} panel {s}: |T G Tt - T - Tt| = {gap:e}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn r_matches_the_level2_oracle_up_to_signs() {
    for arm in arms() {
        for &b in &SIZES {
            for ib in ibs(b) {
                for kernel in KERNELS {
                    let (x, y) = inputs(kernel, b, 41 + b as u64, 0.0);
                    let (mut a1, mut a2) = (x.clone(), y.clone());
                    factor(kernel, arm, b, ib, &mut a1, &mut a2);
                    let (mut o1, mut o2, mut ot) = (x, y, vec![0.0; t_len(b, b)]);
                    match kernel {
                        Kernel::Geqrt => geqrt_level2(b, &mut o1, &mut ot),
                        _ => stacked_qrt_level2(
                            b,
                            &mut o1,
                            &mut o2,
                            &mut ot,
                            kernel == Kernel::Ttqrt,
                        ),
                    }
                    let scale = r_of(b, b, &o1).frob_norm();
                    for i in 0..b {
                        let sign = if a1[i + i * b] * o1[i + i * b] >= 0.0 { 1.0 } else { -1.0 };
                        for j in i..b {
                            let gap = (a1[i + j * b] - sign * o1[i + j * b]).abs();
                            assert!(
                                gap <= 1e-13 * b as f64 * scale,
                                "{kernel:?} {arm:?} b={b} ib={ib}: R({i},{j}) off by {gap:e}"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn dead_storage_is_never_read_or_written() {
    // A1's strict lower triangle holds another kernel's V; TTQRT's A2 is
    // upper triangular. NaN there must neither spread nor change a bit.
    let poison = f64::from_bits(0x7ff8_dead_beef_0001);
    for arm in arms() {
        for &b in &SIZES {
            for ib in ibs(b) {
                for kernel in [Kernel::Tsqrt, Kernel::Ttqrt] {
                    let (mut a1, mut a2) = inputs(kernel, b, 53 + b as u64, poison);
                    let t = factor(kernel, arm, b, ib, &mut a1, &mut a2);
                    let what = format!("{kernel:?} {arm:?} b={b} ib={ib}");
                    assert!(t.iter().all(|x| x.is_finite()), "{what}: T not finite");
                    for j in 0..b {
                        for i in 0..b {
                            let (x1, x2) = (a1[i + j * b], a2[i + j * b]);
                            if i > j {
                                assert_eq!(x1.to_bits(), poison.to_bits(), "{what}: A1({i},{j})");
                            } else {
                                assert!(x1.is_finite(), "{what}: R({i},{j}) = {x1}");
                            }
                            if i > j && kernel == Kernel::Ttqrt {
                                assert_eq!(x2.to_bits(), poison.to_bits(), "{what}: A2({i},{j})");
                            } else {
                                assert!(x2.is_finite(), "{what}: V2({i},{j}) = {x2}");
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn a_fixed_arm_repeats_bitwise_and_plain_is_ib_equal_b() {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    for &b in &SIZES {
        for kernel in KERNELS {
            for arm in arms() {
                for ib in ibs(b) {
                    let run = || {
                        let (mut a1, mut a2) = inputs(kernel, b, 67 + b as u64, 0.0);
                        let t = factor(kernel, arm, b, ib, &mut a1, &mut a2);
                        bits(&[a1, a2, t].concat())
                    };
                    assert_eq!(run(), run(), "{kernel:?} {arm:?} b={b} ib={ib}");
                }
            }
            // The plain entry points are the process arm's `ib = b` case.
            let (mut a1, mut a2) = inputs(kernel, b, 67 + b as u64, 0.0);
            let (mut p1, mut p2, mut pt) = (a1.clone(), a2.clone(), vec![0.0; t_len(b, b)]);
            let t = factor(kernel, simd_arm(), b, b, &mut a1, &mut a2);
            match kernel {
                Kernel::Geqrt => geqrt(b, &mut p1, &mut pt),
                Kernel::Tsqrt => tsqrt(b, &mut p1, &mut p2, &mut pt),
                Kernel::Ttqrt => ttqrt(b, &mut p1, &mut p2, &mut pt),
            }
            // ... and so are the update kernels, applied from those factors.
            for trans in [Trans::Trans, Trans::NoTrans] {
                let (mut c1, mut c2) = (tile(b, 91), tile(b, 92));
                let (mut q1, mut q2) = (c1.clone(), c2.clone());
                let arm = simd_arm();
                match kernel {
                    Kernel::Geqrt => {
                        unmqr_ib_arm(arm, b, b, &a1, &t, &mut c1, trans);
                        unmqr(b, &p1, &pt, &mut q1, trans);
                    }
                    Kernel::Tsqrt => {
                        tsmqr_ib_arm(arm, b, b, &a2, &t, &mut c1, &mut c2, trans);
                        tsmqr(b, &p2, &pt, &mut q1, &mut q2, trans);
                    }
                    Kernel::Ttqrt => {
                        ttmqr_ib_arm(arm, b, b, &a2, &t, &mut c1, &mut c2, trans);
                        ttmqr(b, &p2, &pt, &mut q1, &mut q2, trans);
                    }
                }
                assert_eq!(
                    bits(&[c1, c2].concat()),
                    bits(&[q1, q2].concat()),
                    "update of {kernel:?} b={b} {trans:?}"
                );
            }
            assert_eq!(
                bits(&[a1, a2, t].concat()),
                bits(&[p1, p2, pt].concat()),
                "{kernel:?} b={b}"
            );
        }
    }
}
