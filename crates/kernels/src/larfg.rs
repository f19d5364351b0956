//! Householder reflector generation (LAPACK `dlarfg`).

use crate::micro::{dot_cols, SimdArm};

/// Smallest `Σx²` the unscaled path trusts: below it squares of the
/// larger entries may already have lost bits to underflow.
const SAFE_SIGMA: f64 = f64::MIN_POSITIVE / f64::EPSILON;

/// `2^-e` for `big ∈ [2^e, 2^(e+1))`, `e` clamped to the normal range.
fn pow2_recip(big: f64) -> f64 {
    let e = (((big.to_bits() >> 52) & 0x7ff) as i64 - 1023).clamp(-1022, 1022);
    f64::from_bits(((1023 - e) as u64) << 52)
}

/// Generate an elementary Householder reflector H = I − τ·v·vᵀ with
/// v = [1; x'] such that H·[α; x] = [β; 0].
///
/// On return `x` holds the tail of v (x'), and `(β, τ)` is returned.
/// When `x` is already zero, τ = 0 (H = I) and β = α, as in LAPACK.
/// `Σx²` is taken unscaled; only when it (or `α² + Σx²`) leaves the safe
/// range — entries near 1e±155 and beyond — is the column first rescaled
/// by a power of two, so ordinary columns see no extra rounding.
pub(crate) fn larfg(arm: SimdArm, alpha: f64, x: &mut [f64]) -> (f64, f64) {
    let sumsq = |x: &[f64]| {
        let mut s = [0.0];
        dot_cols(arm, x, x, 0, &mut s);
        s[0]
    };
    let mut sigma = sumsq(x);
    let (mut alpha_s, mut unscale) = (alpha, 1.0);
    if !(sigma >= SAFE_SIGMA && (alpha * alpha + sigma).is_finite()) {
        let xmax = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        if xmax == 0.0 {
            return (alpha, 0.0);
        }
        let s = pow2_recip(xmax.max(alpha.abs()));
        for v in x.iter_mut() {
            *v *= s;
        }
        (sigma, alpha_s, unscale) = (sumsq(x), alpha * s, s);
    }
    let mu = (alpha_s * alpha_s + sigma).sqrt();
    // beta = -sign(alpha) * mu avoids cancellation in alpha - beta.
    let beta = if alpha_s <= 0.0 { mu } else { -mu };
    let tau = (beta - alpha_s) / beta;
    let scale = 1.0 / (alpha_s - beta);
    for v in x.iter_mut() {
        *v *= scale;
    }
    (beta / unscale, tau)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ARM: SimdArm = SimdArm::Scalar;

    fn apply_reflector(alpha: f64, orig_x: &[f64], v: &[f64], tau: f64) -> Vec<f64> {
        // H [alpha; x] = [alpha; x] - tau * vhat * (vhatᵀ [alpha; x]),
        // vhat = [1; v].
        let mut w = alpha;
        for (vi, xi) in v.iter().zip(orig_x) {
            w += vi * xi;
        }
        w *= tau;
        let mut out = Vec::with_capacity(1 + orig_x.len());
        out.push(alpha - w);
        for (vi, xi) in v.iter().zip(orig_x) {
            out.push(xi - w * vi);
        }
        out
    }

    #[test]
    fn annihilates_tail() {
        let alpha = 3.0;
        let orig = vec![1.0, -2.0, 0.5];
        let mut x = orig.clone();
        let (beta, tau) = larfg(ARM, alpha, &mut x);
        let out = apply_reflector(alpha, &orig, &x, tau);
        assert!((out[0] - beta).abs() < 1e-14, "head should become beta");
        for (i, &v) in out.iter().enumerate().skip(1) {
            assert!(v.abs() < 1e-14, "tail entry {i} should vanish, got {v}");
        }
    }

    #[test]
    fn preserves_two_norm() {
        let alpha = -1.5;
        let orig = vec![2.0, 4.0, -1.0, 0.25];
        let mut x = orig.clone();
        let (beta, _tau) = larfg(ARM, alpha, &mut x);
        let norm_in = (alpha * alpha + orig.iter().map(|v| v * v).sum::<f64>()).sqrt();
        assert!((beta.abs() - norm_in).abs() < 1e-14);
    }

    #[test]
    fn zero_tail_gives_identity() {
        let mut x = vec![0.0, 0.0];
        let (beta, tau) = larfg(ARM, 7.0, &mut x);
        assert_eq!(beta, 7.0);
        assert_eq!(tau, 0.0);
        assert_eq!(x, vec![0.0, 0.0]);
    }

    #[test]
    fn beta_sign_is_opposite_of_alpha() {
        for &alpha in &[5.0, -5.0] {
            let mut x = vec![1.0];
            let (beta, _) = larfg(ARM, alpha, &mut x);
            assert!(beta * alpha < 0.0, "alpha {alpha} -> beta {beta}");
        }
    }

    #[test]
    fn extreme_columns_are_rescaled_not_lost() {
        // Unscaled, Σx² is inf for the first, 0 for the second (τ = 0, the
        // column silently kept) and subnormal garbage for the third.
        for scale in [1e200, 1e-200, 1e-310] {
            let alpha = 3.0 * scale;
            let orig = [scale, -2.0 * scale, 0.5 * scale];
            let mut x = orig;
            let (beta, tau) = larfg(ARM, alpha, &mut x);
            let norm = (3.0f64 * 3.0 + 1.0 + 4.0 + 0.25).sqrt() * scale;
            assert!((beta.abs() - norm).abs() <= 1e-13 * norm, "scale {scale:e}: beta {beta:e}");
            assert!((1.0..=2.0).contains(&tau), "scale {scale:e}: tau {tau}");
            let out = apply_reflector(alpha / scale, &orig.map(|v| v / scale), &x, tau);
            assert!(out[1..].iter().all(|v| v.abs() < 1e-13), "scale {scale:e}: {out:?}");
        }
    }

    #[test]
    fn ordinary_columns_take_the_unscaled_path() {
        // The guard must not perturb well-scaled data: same bits as the
        // textbook formula evaluated in the same summation order.
        let (alpha, orig) = (0.7, [0.3, -1.1, 0.25, 0.9]);
        let mut x = orig;
        let (beta, tau) = larfg(ARM, alpha, &mut x);
        let sigma: f64 = orig.iter().map(|v| v * v).sum();
        let mu = (alpha * alpha + sigma).sqrt();
        assert_eq!((beta, tau), (-mu, (-mu - alpha) / -mu));
        assert_eq!(x, orig.map(|v| v * (1.0 / (alpha + mu))));
    }

    #[test]
    fn empty_tail_is_identity() {
        let mut x: Vec<f64> = vec![];
        let (beta, tau) = larfg(ARM, -2.0, &mut x);
        assert_eq!(beta, -2.0);
        assert_eq!(tau, 0.0);
    }

    #[test]
    fn tau_within_stability_range() {
        // LAPACK guarantees 1 <= tau <= 2 for real reflectors (when nonzero).
        let mut x = vec![0.3, -0.7, 2.0];
        let (_, tau) = larfg(ARM, 0.1, &mut x);
        assert!((1.0..=2.0).contains(&tau), "tau = {tau}");
    }
}
