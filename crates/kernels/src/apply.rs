//! Update kernels: UNMQR, TSMQR, TTMQR (apply op(Q) of a factor kernel) —
//! the inner-blocked routines of [`crate::blocked`] run with one panel
//! spanning the whole tile (`ib = b`), exactly as [`crate::factor`] does
//! for the factor kernels. There is no second code path: every panel is
//! one call of the factor routine's block apply in [`crate::panel`], and
//! with a single full-width panel that is the classic unblocked apply
//! `C −= V·op(T)·Vᵀ·C`, bit for bit and flop for flop.

use crate::blocked::{tsmqr_ib_arm, ttmqr_ib_arm, unmqr_ib_arm};
use crate::micro::{simd_arm, SimdArm};
use crate::Trans;

/// Apply op(Q) of a [`crate::geqrt`] factorization to a tile `c`
/// (PLASMA `CORE_dormqr`, left side): C := op(Q)·C with Q = I − V·T·Vᵀ.
///
/// `v` is the factored tile (V in its strict lower triangle, unit diagonal
/// implicit; its upper triangle — R — is ignored), `t` the T factor.
pub fn unmqr(b: usize, v: &[f64], t: &[f64], c: &mut [f64], trans: Trans) {
    unmqr_ib_arm(simd_arm(), b, b, v, t, c, trans);
}

/// [`unmqr`] on an explicit dispatch arm (parity tests and benches).
pub fn unmqr_arm(arm: SimdArm, b: usize, v: &[f64], t: &[f64], c: &mut [f64], trans: Trans) {
    unmqr_ib_arm(arm, b, b, v, t, c, trans);
}

/// Apply op(Q) of a [`crate::tsqrt`] to the stacked tile pair `[A1; A2]`
/// (PLASMA `CORE_dtsmqr`): Q = I − V̂·T·V̂ᵀ with V̂ = [I; V2], where `v2`
/// is the square V block stored by TSQRT.
pub fn tsmqr(b: usize, v2: &[f64], t: &[f64], a1: &mut [f64], a2: &mut [f64], trans: Trans) {
    tsmqr_ib_arm(simd_arm(), b, b, v2, t, a1, a2, trans);
}

/// [`tsmqr`] on an explicit dispatch arm (parity tests and benches).
pub fn tsmqr_arm(
    arm: SimdArm,
    b: usize,
    v2: &[f64],
    t: &[f64],
    a1: &mut [f64],
    a2: &mut [f64],
    trans: Trans,
) {
    tsmqr_ib_arm(arm, b, b, v2, t, a1, a2, trans);
}

/// Apply op(Q) of a [`crate::ttqrt`] to the stacked tile pair `[A1; A2]`
/// (PLASMA `CORE_dttmqr`). `v2` is upper triangular; only its upper part is
/// read, which is what makes TTMQR weight 6 versus TSMQR's 12.
pub fn ttmqr(b: usize, v2: &[f64], t: &[f64], a1: &mut [f64], a2: &mut [f64], trans: Trans) {
    ttmqr_ib_arm(simd_arm(), b, b, v2, t, a1, a2, trans);
}

/// [`ttmqr`] on an explicit dispatch arm (parity tests and benches).
pub fn ttmqr_arm(
    arm: SimdArm,
    b: usize,
    v2: &[f64],
    t: &[f64],
    a1: &mut [f64],
    a2: &mut [f64],
    trans: Trans,
) {
    ttmqr_ib_arm(arm, b, b, v2, t, a1, a2, trans);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::{geqrt, tsqrt, ttqrt};
    use hqr_tile::DenseMatrix;

    const B: usize = 6;

    fn tile_random(seed: u64) -> Vec<f64> {
        DenseMatrix::random(B, B, seed).data().to_vec()
    }

    fn upper(a: &[f64]) -> Vec<f64> {
        let mut u = vec![0.0; B * B];
        for j in 0..B {
            for i in 0..=j {
                u[i + j * B] = a[i + j * B];
            }
        }
        u
    }

    fn norm(a: &[f64]) -> f64 {
        a.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    #[test]
    fn unmqr_q_then_qt_roundtrips() {
        let mut v = tile_random(21);
        let mut t = vec![0.0; B * B];
        geqrt(B, &mut v, &mut t);
        let c0 = tile_random(22);
        let mut c = c0.clone();
        unmqr(B, &v, &t, &mut c, Trans::Trans);
        unmqr(B, &v, &t, &mut c, Trans::NoTrans);
        let d: Vec<f64> = c.iter().zip(&c0).map(|(a, b)| a - b).collect();
        assert!(norm(&d) < 1e-12, "Q·Qᵀ·C != C, err {}", norm(&d));
    }

    #[test]
    fn unmqr_preserves_frobenius_norm() {
        let mut v = tile_random(23);
        let mut t = vec![0.0; B * B];
        geqrt(B, &mut v, &mut t);
        let mut c = tile_random(24);
        let before = norm(&c);
        unmqr(B, &v, &t, &mut c, Trans::Trans);
        assert!((norm(&c) - before).abs() < 1e-12, "orthogonal transforms preserve norms");
    }

    #[test]
    fn unmqr_ignores_upper_triangle_of_v() {
        let mut v = tile_random(40);
        let mut t = vec![0.0; B * B];
        geqrt(B, &mut v, &mut t);
        let mut v_poison = v.clone();
        for j in 0..B {
            for i in 0..=j {
                v_poison[i + j * B] = f64::NAN;
            }
        }
        let c0 = tile_random(41);
        let (mut c, mut cp) = (c0.clone(), c0);
        unmqr(B, &v, &t, &mut c, Trans::Trans);
        unmqr(B, &v_poison, &t, &mut cp, Trans::Trans);
        assert_eq!(c, cp);
    }

    #[test]
    fn tsmqr_roundtrip_and_isometry() {
        let mut a1 = upper(&tile_random(25));
        let mut a2 = tile_random(26);
        let mut t = vec![0.0; B * B];
        tsqrt(B, &mut a1, &mut a2, &mut t);
        let c1_0 = tile_random(27);
        let c2_0 = tile_random(28);
        let (mut c1, mut c2) = (c1_0.clone(), c2_0.clone());
        let before = (norm(&c1).powi(2) + norm(&c2).powi(2)).sqrt();
        tsmqr(B, &a2, &t, &mut c1, &mut c2, Trans::Trans);
        let after = (norm(&c1).powi(2) + norm(&c2).powi(2)).sqrt();
        assert!((before - after).abs() < 1e-12, "stacked isometry");
        tsmqr(B, &a2, &t, &mut c1, &mut c2, Trans::NoTrans);
        let d1: Vec<f64> = c1.iter().zip(&c1_0).map(|(a, b)| a - b).collect();
        let d2: Vec<f64> = c2.iter().zip(&c2_0).map(|(a, b)| a - b).collect();
        assert!(norm(&d1) < 1e-12 && norm(&d2) < 1e-12);
    }

    #[test]
    fn ttmqr_roundtrip() {
        let mut a1 = upper(&tile_random(29));
        let mut a2 = upper(&tile_random(30));
        let mut t = vec![0.0; B * B];
        ttqrt(B, &mut a1, &mut a2, &mut t);
        let c1_0 = tile_random(31);
        let c2_0 = tile_random(32);
        let (mut c1, mut c2) = (c1_0.clone(), c2_0.clone());
        ttmqr(B, &a2, &t, &mut c1, &mut c2, Trans::Trans);
        ttmqr(B, &a2, &t, &mut c1, &mut c2, Trans::NoTrans);
        let d1: Vec<f64> = c1.iter().zip(&c1_0).map(|(a, b)| a - b).collect();
        let d2: Vec<f64> = c2.iter().zip(&c2_0).map(|(a, b)| a - b).collect();
        assert!(norm(&d1) < 1e-12 && norm(&d2) < 1e-12);
    }

    #[test]
    fn ttmqr_ignores_strict_lower_of_v2() {
        let mut a1 = upper(&tile_random(33));
        let mut a2 = upper(&tile_random(34));
        let mut t = vec![0.0; B * B];
        ttqrt(B, &mut a1, &mut a2, &mut t);
        let mut c1 = tile_random(35);
        let mut c2 = tile_random(36);
        let (mut c1p, mut c2p) = (c1.clone(), c2.clone());
        // Poisoned V2 lower triangle must not change the result.
        let mut v2_poison = a2.clone();
        for j in 0..B {
            for i in (j + 1)..B {
                v2_poison[i + j * B] = f64::NAN;
            }
        }
        ttmqr(B, &a2, &t, &mut c1, &mut c2, Trans::Trans);
        ttmqr(B, &v2_poison, &t, &mut c1p, &mut c2p, Trans::Trans);
        assert_eq!(c1, c1p);
        assert_eq!(c2, c2p);
    }

    #[test]
    fn unmqr_identity_v_is_noop_when_tau_zero() {
        // geqrt of the identity produces tau=0 reflectors -> Q = I.
        let mut v = vec![0.0; B * B];
        for d in 0..B {
            v[d + d * B] = 1.0;
        }
        let mut t = vec![0.0; B * B];
        geqrt(B, &mut v, &mut t);
        let c0 = tile_random(37);
        let mut c = c0.clone();
        unmqr(B, &v, &t, &mut c, Trans::Trans);
        let d: Vec<f64> = c.iter().zip(&c0).map(|(a, b)| a - b).collect();
        // Q may only flip signs it introduced; for identity input tau=0 so no-op.
        assert!(norm(&d) < 1e-13);
    }
}
