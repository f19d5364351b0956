//! Bit-level pins of all six kernels at the benchmark's tile size, b = 128,
//! with ib = 32 (four panels) and ib = 128 (the plain kernels' one panel),
//! applying both `Trans` (the factorization) and `NoTrans` (the Q rebuild).
//! The update kernels are handed their V with whatever the tile holds
//! outside the reflectors (R above UNMQR's unit diagonal, finite garbage
//! below TTMQR's triangle), so a kernel that reads a byte the math does
//! not need changes a digest; a T is exactly `t_len(b, ib)` doubles, its
//! packed triangles, with no dead entry left to poison. T enters the
//! digest expanded to the `ib × b` layout it had when the constants were
//! recorded, before the update kernels became the panel routine's block
//! apply and before T was packed; they must not move.

mod support;

use hqr_kernels::blocked::{
    geqrt_ib_arm, tsmqr_ib_arm, tsqrt_ib_arm, ttmqr_ib_arm, ttqrt_ib_arm, unmqr_ib_arm,
};
use hqr_kernels::{simd_detected, t_len, SimdArm, Trans};
use hqr_tile::DenseMatrix;

const B: usize = 128;
const IBS: [usize; 2] = [32, B];

/// FNV-1a digests of [`outputs`] by arm, in `IBS × [Trans, NoTrans]` order.
/// On a CPU with avx512f the Avx2 row is produced by the 512-bit gemm
/// driver; the 256-bit one gives the same bits.
fn pinned(arm: SimdArm) -> [u64; 4] {
    match arm {
        SimdArm::Avx2 => [
            0xec73_2fe8_de02_523a,
            0x169c_21d6_20de_7381,
            0xdefb_b60a_f18b_dea7,
            0x550f_7474_18cf_a4cd,
        ],
        SimdArm::Scalar => [
            0x8abc_f7ac_d58a_40e5,
            0xc1f5_cb2f_a68d_b07f,
            0x530f_f446_b3b4_1254,
            0x6104_55fe_dbb2_4238,
        ],
    }
}

fn tile(seed: u64) -> Vec<f64> {
    DenseMatrix::random(B, B, seed).data().to_vec()
}

fn upper(a: &[f64]) -> Vec<f64> {
    let mut u = vec![0.0; B * B];
    for j in 0..B {
        u[j * B..=j + j * B].copy_from_slice(&a[j * B..=j + j * B]);
    }
    u
}

/// The three factor kernels, then each update kernel on fresh tiles with
/// the factor's V and T. Returns every output buffer.
fn outputs(arm: SimdArm, ib: usize, trans: Trans) -> Vec<Vec<f64>> {
    let t = || vec![0.0; t_len(B, ib)];
    let (mut a, mut tg) = (tile(1), t());
    geqrt_ib_arm(arm, B, ib, &mut a, &mut tg);
    let mut c = tile(2);
    unmqr_ib_arm(arm, B, ib, &a, &tg, &mut c, trans);

    let (mut r1, mut a2, mut ts) = (upper(&a), tile(3), t());
    tsqrt_ib_arm(arm, B, ib, &mut r1, &mut a2, &mut ts);
    let (mut c1, mut c2) = (tile(4), tile(5));
    tsmqr_ib_arm(arm, B, ib, &a2, &ts, &mut c1, &mut c2, trans);

    let (mut r3, mut r4, mut tt) = (upper(&r1), upper(&tile(6)), t());
    ttqrt_ib_arm(arm, B, ib, &mut r3, &mut r4, &mut tt);
    // TTQRT leaves the strict lower triangle alone; fill it with values a
    // kernel reading it would fold into its result.
    let mut v4 = r4.clone();
    let junk = tile(9);
    for j in 0..B {
        v4[j * B + j + 1..(j + 1) * B].copy_from_slice(&junk[j * B + j + 1..(j + 1) * B]);
    }
    let (mut d1, mut d2) = (tile(7), tile(8));
    ttmqr_ib_arm(arm, B, ib, &v4, &tt, &mut d1, &mut d2, trans);
    for t in [&tg, &ts, &tt] {
        assert_eq!(t.len(), t_len(B, ib), "a T is its packed triangles and nothing else");
    }
    let [tg, ts, tt] = [tg, ts, tt].map(|t| support::expand_t(B, ib, &t));
    let out = vec![a, tg, c, r1, a2, ts, c1, c2, r3, r4, tt, d1, d2];
    assert!(
        out.iter().flatten().all(|x| x.is_finite()),
        "ib = {ib}, {trans:?}: a dead entry was read"
    );
    out
}

fn digest(bufs: &[Vec<f64>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in bufs.iter().flatten() {
        for byte in x.to_bits().to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn check_arm(arm: SimdArm) {
    let cases = IBS.into_iter().flat_map(|ib| [Trans::Trans, Trans::NoTrans].map(|tr| (ib, tr)));
    let got: Vec<u64> = cases.clone().map(|(ib, tr)| digest(&outputs(arm, ib, tr))).collect();
    for ((ib, tr), (g, want)) in cases.zip(got.iter().zip(pinned(arm))) {
        assert_eq!(*g, want, "{arm:?}, ib = {ib}, {tr:?}: {g:#018x} (all: {got:x?})");
    }
}

#[test]
fn b128_kernel_outputs_are_pinned_scalar() {
    check_arm(SimdArm::Scalar);
}

#[test]
fn b128_kernel_outputs_are_pinned_avx2() {
    if simd_detected() == SimdArm::Avx2 {
        check_arm(SimdArm::Avx2);
    }
}
