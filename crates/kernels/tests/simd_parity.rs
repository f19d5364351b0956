//! Scalar-vs-SIMD dispatch-arm parity and run-to-run determinism.
//!
//! The two arms (portable scalar, AVX2/FMA) of the gemm core and of the
//! panel routine's fused level-2 steps share blocking and accumulation
//! *order*, but the vector arm contracts multiply-adds with FMA, so
//! cross-arm results agree only to rounding — these tests bound
//! that gap with norm-scaled tolerances over every kernel entry point.
//! Within a fixed arm the kernels must be *bitwise* deterministic
//! run-to-run: checkpoint resume and the multi-job service's solo-parity
//! invariant both compare f64 buffers for exact equality across runs.
//!
//! When the host has no AVX2 the detected arm is the scalar arm and the
//! parity checks degenerate to exact self-comparison (still meaningful
//! for the determinism half).

use hqr_kernels::blocked::{
    geqrt_ib_arm, tsmqr_ib_arm, tsqrt_ib_arm, ttmqr_ib_arm, ttqrt_ib_arm, unmqr_ib_arm,
};
use hqr_kernels::micro::simd_detected;
use hqr_kernels::{geqrt, t_len, tsmqr_arm, tsqrt, ttmqr_arm, ttqrt, unmqr_arm, SimdArm, Trans};
use hqr_tile::DenseMatrix;

const SIZES: &[usize] = &[1, 3, 5, 8, 13, 24, 32, 64, 128];

fn tile(b: usize, seed: u64) -> Vec<f64> {
    DenseMatrix::random(b, b, seed).data().to_vec()
}

fn upper(b: usize, a: &[f64]) -> Vec<f64> {
    let mut u = vec![0.0; b * b];
    for j in 0..b {
        for i in 0..=j {
            u[i + j * b] = a[i + j * b];
        }
    }
    u
}

fn norm(a: &[f64]) -> f64 {
    a.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Max |x−y| must be small relative to the buffer norm.
fn assert_close(b: usize, x: &[f64], y: &[f64], what: &str) {
    let scale = norm(x).max(1.0);
    let gap = x.iter().zip(y).fold(0.0f64, |m, (p, q)| m.max((p - q).abs()));
    assert!(
        gap < 1e-12 * (b as f64).max(1.0) * scale,
        "{what} (b={b}): cross-arm gap {gap:e} vs scale {scale:e}"
    );
}

fn assert_bits(x: &[f64], y: &[f64], what: &str) {
    for (i, (p, q)) in x.iter().zip(y).enumerate() {
        assert_eq!(p.to_bits(), q.to_bits(), "{what}: bit mismatch at {i}: {p} vs {q}");
    }
}

/// Half the tile, except at the two production sizes, which take the
/// inner blocks that put the panel recursion one and two levels deep.
fn ib_for(b: usize) -> usize {
    match b {
        64 => 8,
        128 => 32,
        _ => (b / 2).max(1),
    }
}

/// Run every kernel entry point once on `arm` from identical inputs and
/// return all output buffers, concatenated per kernel.
fn run_all(arm: SimdArm, b: usize, seed: u64) -> Vec<(&'static str, Vec<f64>)> {
    let ib = ib_for(b);
    let mut out: Vec<(&'static str, Vec<f64>)> = Vec::new();

    // GEQRT feeds UNMQR. The plain factor kernels run on the process arm,
    // so both passes hand the update kernels identical V and T.
    let (mut v, mut t) = (tile(b, seed), vec![0.0; t_len(b, b)]);
    geqrt(b, &mut v, &mut t);
    let mut c = tile(b, seed ^ 1);
    unmqr_arm(arm, b, &v, &t, &mut c, Trans::Trans);
    let mut c2 = tile(b, seed ^ 2);
    unmqr_arm(arm, b, &v, &t, &mut c2, Trans::NoTrans);
    out.push(("unmqr", [c, c2].concat()));

    // TSQRT feeds TSMQR.
    let (mut r1, mut a2, mut ts) =
        (upper(b, &tile(b, seed ^ 3)), tile(b, seed ^ 4), vec![0.0; t_len(b, b)]);
    tsqrt(b, &mut r1, &mut a2, &mut ts);
    let (mut p1, mut p2) = (tile(b, seed ^ 5), tile(b, seed ^ 6));
    tsmqr_arm(arm, b, &a2, &ts, &mut p1, &mut p2, Trans::Trans);
    out.push(("tsmqr", [p1, p2].concat()));

    // TTQRT feeds TTMQR (second tile upper-triangular).
    let (mut q1, mut q2, mut tt) =
        (upper(b, &tile(b, seed ^ 7)), upper(b, &tile(b, seed ^ 8)), vec![0.0; t_len(b, b)]);
    ttqrt(b, &mut q1, &mut q2, &mut tt);
    let (mut w1, mut w2) = (tile(b, seed ^ 9), tile(b, seed ^ 10));
    ttmqr_arm(arm, b, &q2, &tt, &mut w1, &mut w2, Trans::Trans);
    out.push(("ttmqr", [w1, w2].concat()));

    // Inner-blocked variants of all six kernels, factor kernels included,
    // on the explicit arm.
    let (mut gv, mut gt) = (tile(b, seed ^ 11), vec![0.0; t_len(b, ib)]);
    geqrt_ib_arm(arm, b, ib, &mut gv, &mut gt);
    let mut gc = tile(b, seed ^ 12);
    unmqr_ib_arm(arm, b, ib, &gv, &gt, &mut gc, Trans::Trans);
    out.push(("geqrt_ib", [gv.clone(), gt.clone()].concat()));
    out.push(("unmqr_ib", gc));

    let (mut sr, mut sa, mut st) =
        (upper(b, &tile(b, seed ^ 13)), tile(b, seed ^ 14), vec![0.0; t_len(b, ib)]);
    tsqrt_ib_arm(arm, b, ib, &mut sr, &mut sa, &mut st);
    let (mut s1, mut s2) = (tile(b, seed ^ 15), tile(b, seed ^ 16));
    tsmqr_ib_arm(arm, b, ib, &sa, &st, &mut s1, &mut s2, Trans::Trans);
    out.push(("tsqrt_ib", [sr, sa.clone(), st.clone()].concat()));
    out.push(("tsmqr_ib", [s1, s2].concat()));

    let (mut tr, mut ta, mut tt2) =
        (upper(b, &tile(b, seed ^ 17)), upper(b, &tile(b, seed ^ 18)), vec![0.0; t_len(b, ib)]);
    ttqrt_ib_arm(arm, b, ib, &mut tr, &mut ta, &mut tt2);
    let (mut u1, mut u2) = (tile(b, seed ^ 19), tile(b, seed ^ 20));
    ttmqr_ib_arm(arm, b, ib, &ta, &tt2, &mut u1, &mut u2, Trans::Trans);
    out.push(("ttqrt_ib", [tr, ta.clone(), tt2.clone()].concat()));
    out.push(("ttmqr_ib", [u1, u2].concat()));

    // The BLAS shim rides the same core.
    let (ga, gb) = (tile(b, seed ^ 21), tile(b, seed ^ 22));
    let mut gcm = tile(b, seed ^ 23);
    hqr_kernels::blas::gemm_arm(
        arm,
        b,
        b,
        b,
        1.5,
        &ga,
        Trans::NoTrans,
        &gb,
        Trans::Trans,
        -0.5,
        &mut gcm,
    );
    out.push(("gemm", gcm));

    out
}

#[test]
fn scalar_and_detected_arms_agree_to_rounding_on_all_kernels() {
    let det = simd_detected();
    for &b in SIZES {
        let scalar = run_all(SimdArm::Scalar, b, 0x9e37 + b as u64);
        let vector = run_all(det, b, 0x9e37 + b as u64);
        for ((name, xs), (name2, ys)) in scalar.iter().zip(&vector) {
            assert_eq!(name, name2);
            assert_close(b, xs, ys, name);
        }
    }
}

#[test]
fn each_arm_is_bitwise_deterministic_run_to_run() {
    for arm in [SimdArm::Scalar, simd_detected()] {
        for &b in &[5usize, 13, 32] {
            let first = run_all(arm, b, 0x51d7 + b as u64);
            let second = run_all(arm, b, 0x51d7 + b as u64);
            for ((name, xs), (_, ys)) in first.iter().zip(&second) {
                assert_bits(xs, ys, name);
            }
        }
    }
}

#[test]
fn ib_factorization_matches_flat_kernels_numerically() {
    // Same V and R up to rounding regardless of inner blocking, on both
    // arms — guards the panel/trailing split against the flat reference.
    let det = simd_detected();
    for &b in &[6usize, 12, 24] {
        let a0 = tile(b, 77 + b as u64);
        let mut flat = a0.clone();
        let mut tflat = vec![0.0; t_len(b, b)];
        geqrt(b, &mut flat, &mut tflat);
        for arm in [SimdArm::Scalar, det] {
            for ib in [1usize, 2, b / 2, b] {
                let ib = ib.max(1);
                let mut ab = a0.clone();
                let mut tb = vec![0.0; t_len(b, ib)];
                geqrt_ib_arm(arm, b, ib, &mut ab, &mut tb);
                assert_close(b, &flat, &ab, "geqrt_ib vs geqrt (V,R)");
            }
        }
    }
}
