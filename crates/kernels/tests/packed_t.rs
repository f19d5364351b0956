//! The T factor is stored packed: `t_len(b, ib)` doubles, the upper
//! triangle of each `ib` panel's T column by column. Before, it was a
//! `b × b` tile whose rows `ib..b` and whose strict lower triangles only
//! ever held zeros. Packing must drop exactly those zeros: run all six
//! kernels with a T of exactly `t_len(b, ib)` doubles, expand each T back
//! to `b × b`, and the digest of every output must be the one the padded
//! layout produced (pinned below per dispatch arm), so not one bit of a
//! factor or of an updated tile moved.

mod support;

use hqr_kernels::blocked::{
    geqrt_ib_arm, tsmqr_ib_arm, tsqrt_ib_arm, ttmqr_ib_arm, ttqrt_ib_arm, unmqr_ib_arm,
};
use hqr_kernels::{simd_detected, t_len, SimdArm, Trans};
use hqr_tile::DenseMatrix;

const B: usize = 64;
/// Even panels, one level and two levels of panel recursion, a ragged last
/// panel (48 does not divide 64), and the plain kernels' `ib = b`.
const IBS: [usize; 4] = [4, 32, 48, B];

/// FNV-1a digests of [`outputs`] in the padded `b × b` T layout, by arm,
/// in [`IBS`] order.
fn padded_layout_digests(arm: SimdArm) -> [u64; 4] {
    match arm {
        SimdArm::Avx2 => [
            0xa0ea_486a_db2b_4ca5,
            0x95de_4040_1ddf_2eeb,
            0xace8_a945_48c7_43b7,
            0x03ae_1dd3_5223_84fe,
        ],
        SimdArm::Scalar => [
            0xf738_5898_32c4_3e39,
            0x8c3e_38a3_3b23_0ace,
            0xc23e_ec09_794f_0a05,
            0xc684_a7a2_123b_7549,
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

/// `t`'s first `t_len(b, ib)` doubles as the `b × b` tile the padded
/// layout stored: column `j` holds its panel's triangle at rows `0..ib`,
/// zeros below.
fn padded(ib: usize, t: &[f64]) -> Vec<f64> {
    let mut tile = vec![0.0; B * B];
    let old = support::expand_t(B, ib, &t[..t_len(B, ib)]);
    for (col, src) in tile.chunks_exact_mut(B).zip(old.chunks_exact(ib)) {
        col[..ib].copy_from_slice(src);
    }
    tile
}

/// Every kernel once, each factor kernel feeding its update kernel, with
/// T buffers `t_size` doubles long. Returns every output buffer, T ones
/// zero-padded to `b × b`.
fn outputs(arm: SimdArm, ib: usize, t_size: usize) -> Vec<Vec<f64>> {
    let t = || vec![f64::NAN; t_size];
    // GEQRT, then UNMQR with its V and T.
    let (mut a, mut tg) = (tile(1), t());
    geqrt_ib_arm(arm, B, ib, &mut a, &mut tg);
    let mut c = tile(2);
    unmqr_ib_arm(arm, B, ib, &a, &tg, &mut c, Trans::Trans);
    // TSQRT of GEQRT's R over a full tile, then TSMQR.
    let (mut r1, mut a2, mut ts) = (upper(&a), tile(3), t());
    tsqrt_ib_arm(arm, B, ib, &mut r1, &mut a2, &mut ts);
    let (mut c1, mut c2) = (tile(4), tile(5));
    tsmqr_ib_arm(arm, B, ib, &a2, &ts, &mut c1, &mut c2, Trans::Trans);
    // TTQRT of two triangles, then TTMQR.
    let (mut r3, mut r4, mut tt) = (upper(&r1), upper(&tile(6)), t());
    ttqrt_ib_arm(arm, B, ib, &mut r3, &mut r4, &mut tt);
    let (mut d1, mut d2) = (tile(7), tile(8));
    ttmqr_ib_arm(arm, B, ib, &r4, &tt, &mut d1, &mut d2, Trans::Trans);
    for t in [&tg, &ts, &tt] {
        let tail = &t[t_len(B, ib)..];
        assert!(tail.iter().all(|x| x.is_nan()), "ib = {ib}: a kernel wrote past t_len");
    }
    let [tg, ts, tt] = [tg, ts, tt].map(|t| padded(ib, &t));
    vec![a, tg, c, r1, a2, ts, c1, c2, r3, r4, tt, d1, d2]
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
    for (ib, want) in IBS.into_iter().zip(padded_layout_digests(arm)) {
        let packed = outputs(arm, ib, t_len(B, ib));
        let got = digest(&packed);
        assert_eq!(got, want, "{arm:?}, ib = {ib}: {got:#018x} differs from the padded layout");
        // A longer T buffer (a full tile) is accepted, and nothing past
        // `t_len` is read or written.
        let roomy = outputs(arm, ib, B * B);
        assert!(packed
            .iter()
            .flatten()
            .zip(roomy.iter().flatten())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }
}

#[test]
fn packed_t_is_the_padded_layout_without_its_zero_rows_scalar() {
    check_arm(SimdArm::Scalar);
}

#[test]
fn packed_t_is_the_padded_layout_without_its_zero_rows_avx2() {
    if simd_detected() == SimdArm::Avx2 {
        check_arm(SimdArm::Avx2);
    }
}
