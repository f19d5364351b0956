//! `t_from_tau` rebuilds a factor kernel's T bit for bit from the factored
//! tile and τ, T's diagonal. A factorization keeps only τ, so every later
//! application of Q runs on a rebuilt T: any bit that differs from the
//! kernel's T would move Q·C.
//!
//! Every factor kernel runs through its `*_arm` entry point on both
//! dispatch arms, over panel shapes from one column to two recursion
//! levels, ragged last panels and `ib = b`. One case per shape plants a
//! zero column (its reflector is the identity, τ = 0) before a subnormal
//! one (the reflector generator's rescaling guard). Both T buffers start
//! as NaN, so an entry the rebuild leaves unwritten fails as well.

use hqr_kernels::blocked::{geqrt_ib_arm, t_from_tau_arm, tsqrt_ib_arm, ttqrt_ib_arm};
use hqr_kernels::micro::simd_detected;
use hqr_kernels::{t_len, tau_from_t, tau_len, KernelKind, SimdArm};
use hqr_tile::DenseMatrix;

/// `(b, ib)`: whole, half, quarter and eighth panels at the production
/// tile size, ragged panels, single-column panels and `b = 1`.
const SHAPES: [(usize, usize); 12] = [
    (128, 32),
    (128, 16),
    (128, 64),
    (128, 128),
    (64, 64),
    (64, 4),
    (200, 48),
    (40, 12),
    (33, 8),
    (17, 17),
    (9, 3),
    (1, 1),
];

/// Seeds of random tiles; the last also plants the zero and subnormal
/// columns.
const SEEDS: [u64; 3] = [1, 2, 3];

fn tile(b: usize, seed: u64) -> Vec<f64> {
    DenseMatrix::random(b, b, seed).data().to_vec()
}

/// `a`'s upper triangle, `below` under it.
fn upper(b: usize, a: &[f64], below: f64) -> Vec<f64> {
    let mut u = a.to_vec();
    for j in 0..b {
        u[j * b + j + 1..(j + 1) * b].fill(below);
    }
    u
}

fn arms() -> Vec<SimdArm> {
    let mut arms = vec![SimdArm::Scalar];
    if simd_detected() != SimdArm::Scalar {
        arms.push(simd_detected());
    }
    arms
}

/// Column 0's reflector the identity and column 1 subnormal: zero the
/// entries of column 0 that make up `v_0` (rows `v0` of `tail`) and scale
/// column 1 of `tail`, with `top`'s diagonal entry of it, far below the
/// normal range.
fn plant(b: usize, tail: &mut [f64], v0: std::ops::Range<usize>, top: Option<&mut [f64]>) {
    tail[v0].fill(0.0);
    if b > 1 {
        tail[b..2 * b].iter_mut().for_each(|x| *x *= 1e-310);
        if let Some(top) = top {
            top[1 + b] *= 1e-310;
        }
    }
}

/// Factor with `kind`, rebuild its T from the factored tile and τ, and
/// require every bit to match. Returns τ.
fn check(arm: SimdArm, kind: KernelKind, b: usize, ib: usize, seed: u64) -> Vec<f64> {
    let special = seed == SEEDS[2];
    let mut t = vec![f64::NAN; t_len(b, ib)];
    // The tile that holds V when the kernel is done.
    let v = match kind {
        KernelKind::Geqrt => {
            let mut a = tile(b, seed);
            if special {
                plant(b, &mut a, 1..b, None);
            }
            geqrt_ib_arm(arm, b, ib, &mut a, &mut t);
            a
        }
        KernelKind::Tsqrt | KernelKind::Ttqrt => {
            let tri = kind == KernelKind::Ttqrt;
            let mut a1 = upper(b, &tile(b, seed), 0.0);
            // TTQRT's A2 has garbage below its triangle, never read.
            let mut a2 = tile(b, seed + 100);
            if tri {
                a2 = upper(b, &a2, f64::NAN);
            }
            if special {
                plant(b, &mut a2, 0..if tri { 1 } else { b }, Some(&mut a1));
            }
            let factor = if tri { ttqrt_ib_arm } else { tsqrt_ib_arm };
            factor(arm, b, ib, &mut a1, &mut a2, &mut t);
            a2
        }
        _ => unreachable!("a factor kernel"),
    };
    let what = format!("{kind:?} {arm:?} b={b} ib={ib} seed={seed}");
    assert!(t.iter().all(|x| x.is_finite()), "{what}: the kernel's T is not finite");
    let mut tau = vec![f64::NAN; tau_len(b)];
    tau_from_t(b, ib, &t, &mut tau);
    let mut rebuilt = vec![f64::NAN; t_len(b, ib)];
    t_from_tau_arm(arm, kind, b, ib, &v, &tau, &mut rebuilt);
    for (e, (x, y)) in t.iter().zip(&rebuilt).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: T[{e}] is {x:e}, rebuilt {y:e}");
    }
    tau
}

#[test]
fn t_from_tau_rebuilds_every_factor_kernels_t_bit_for_bit() {
    for arm in arms() {
        for (b, ib) in SHAPES {
            for seed in SEEDS {
                for kind in [KernelKind::Geqrt, KernelKind::Tsqrt, KernelKind::Ttqrt] {
                    let tau = check(arm, kind, b, ib, seed);
                    if seed == SEEDS[2] {
                        assert_eq!(tau[0], 0.0, "{kind:?} b={b}: the zero column's τ");
                        assert!(b == 1 || tau[1] != 0.0, "{kind:?} b={b}: the subnormal column");
                    }
                }
            }
        }
    }
}

/// τ is T's diagonal, wherever the packed layout puts it.
#[test]
fn tau_from_t_reads_the_diagonal_of_every_panel() {
    let (b, ib) = (9, 4);
    let mut t = vec![0.0; t_len(b, ib)];
    let mut at = 0;
    for s in (0..b).step_by(ib) {
        for c in 0..ib.min(b - s) {
            t[at + c] = (s + c) as f64;
            at += c + 1;
        }
    }
    let mut tau = vec![f64::NAN; tau_len(b)];
    tau_from_t(b, ib, &t, &mut tau);
    assert_eq!(tau, (0..b).map(|j| j as f64).collect::<Vec<_>>());
}

#[test]
#[should_panic(expected = "makes no T factor")]
fn an_update_kernel_has_no_t_to_rebuild() {
    let (v, tau, mut t) = (tile(2, 1), vec![0.0; 2], vec![0.0; t_len(2, 2)]);
    t_from_tau_arm(SimdArm::Scalar, KernelKind::Tsmqr, 2, 2, &v, &tau, &mut t);
}
