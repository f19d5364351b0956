//! Factorization kernels: GEQRT, TSQRT, TTQRT — the recursive panel
//! routine of [`crate::panel`] run once over the whole tile (`ib = b`), so
//! the T factor is the full `b × b` triangle.

use crate::micro::simd_arm;
use crate::panel::tile_qrt;

/// QR factorization of a square `b × b` tile (PLASMA `CORE_dgeqrt`).
///
/// On exit, `a` holds R in its upper triangle (diagonal included) and the
/// Householder vectors V in its strict lower triangle (unit diagonal
/// implicit); `t` holds the upper-triangular block-reflector factor T, with
/// the τ values on its diagonal, such that Q = I − V·T·Vᵀ and A = Q·R.
pub fn geqrt(b: usize, a: &mut [f64], t: &mut [f64]) {
    tile_qrt(simd_arm(), b, b, a, None, false, t);
}

/// TSQRT (PLASMA `CORE_dtsqrt`): QR of `[A1; A2]` where `A1` is the upper
/// triangle produced by a previous GEQRT/TSQRT on the pivot row and `A2` is
/// a full square tile of the victim row.
///
/// On exit `A1` holds the updated R, `A2` holds the (full square) block of
/// Householder vectors V2, and `t` the block-reflector factor for
/// Q = I − V̂·T·V̂ᵀ with V̂ = [I; V2]. The strict lower triangle of `A1`
/// (which stores unrelated V data from GEQRT) is left untouched.
pub fn tsqrt(b: usize, a1: &mut [f64], a2: &mut [f64], t: &mut [f64]) {
    tile_qrt(simd_arm(), b, b, a1, Some(a2), false, t);
}

/// TTQRT (PLASMA `CORE_dttqrt`): QR of `[A1; A2]` where **both** tiles are
/// upper triangular (two killers meeting): column `j` of `A2` has only rows
/// `0..=j` active — the source of the 3× flop saving of the TT kernels.
/// `A2`'s strict lower triangle is preserved; V2 is upper triangular, which
/// is what makes this kernel cost weight 2 instead of TSQRT's 6.
pub fn ttqrt(b: usize, a1: &mut [f64], a2: &mut [f64], t: &mut [f64]) {
    tile_qrt(simd_arm(), b, b, a1, Some(a2), true, t);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::{tsmqr, ttmqr, unmqr};
    use crate::reference::dense_householder_qr;
    use crate::Trans;
    use hqr_tile::DenseMatrix;

    const B: usize = 8;

    fn tile_random(b: usize, seed: u64) -> Vec<f64> {
        DenseMatrix::random(b, b, seed).data().to_vec()
    }

    fn tile_identity(b: usize) -> Vec<f64> {
        let mut eye = vec![0.0; b * b];
        for d in 0..b {
            eye[d + d * b] = 1.0;
        }
        eye
    }

    fn upper_of(b: usize, a: &[f64]) -> DenseMatrix {
        let mut u = DenseMatrix::zeros(b, b);
        for j in 0..b {
            for i in 0..=j {
                u.set(i, j, a[i + j * b]);
            }
        }
        u
    }

    /// |R1| == |R2| entrywise (QR unique up to diagonal signs).
    fn assert_same_r_up_to_signs(r1: &DenseMatrix, r2: &DenseMatrix, tol: f64) {
        assert_eq!(r1.rows(), r2.rows());
        for i in 0..r1.rows().min(r1.cols()) {
            let sign = if r1.get(i, i) * r2.get(i, i) >= 0.0 { 1.0 } else { -1.0 };
            for j in i..r1.cols() {
                let d = (r1.get(i, j) - sign * r2.get(i, j)).abs();
                assert!(d < tol, "R mismatch at ({i},{j}): {} vs {}", r1.get(i, j), r2.get(i, j));
            }
        }
    }

    #[test]
    fn geqrt_r_matches_dense_reference() {
        let a0 = tile_random(B, 1);
        let mut a = a0.clone();
        let mut t = vec![0.0; B * B];
        geqrt(B, &mut a, &mut t);
        let r_tile = upper_of(B, &a);
        let dense = DenseMatrix::from_col_major(B, B, &a0);
        let (_, r_ref) = dense_householder_qr(&dense);
        assert_same_r_up_to_signs(&r_tile, &r_ref, 1e-12);
    }

    #[test]
    fn geqrt_q_is_orthogonal_and_reproduces_a() {
        let a0 = tile_random(B, 2);
        let mut a = a0.clone();
        let mut t = vec![0.0; B * B];
        geqrt(B, &mut a, &mut t);
        // Q = unmqr(NoTrans) applied to identity.
        let mut q = tile_identity(B);
        unmqr(B, &a, &t, &mut q, Trans::NoTrans);
        let qm = DenseMatrix::from_col_major(B, B, &q);
        assert!(qm.orthogonality_error() < 1e-13, "Q not orthogonal");
        let qr = qm.matmul(&upper_of(B, &a));
        let a0m = DenseMatrix::from_col_major(B, B, &a0);
        assert!(a0m.sub(&qr).frob_norm() < 1e-13 * a0m.frob_norm().max(1.0));
    }

    #[test]
    fn geqrt_qt_times_a_equals_r() {
        let a0 = tile_random(B, 3);
        let mut a = a0.clone();
        let mut t = vec![0.0; B * B];
        geqrt(B, &mut a, &mut t);
        let mut c = a0.clone();
        unmqr(B, &a, &t, &mut c, Trans::Trans);
        // Qᵀ·A should equal R: strict lower ~ 0, upper == stored R.
        let cm = DenseMatrix::from_col_major(B, B, &c);
        assert!(cm.max_abs_below_diagonal() < 1e-13);
        let diff = cm.upper_triangle().sub(&upper_of(B, &a));
        assert!(diff.frob_norm() < 1e-13);
    }

    #[test]
    fn geqrt_on_identity_is_trivial() {
        let mut a = tile_identity(B);
        let mut t = vec![0.0; B * B];
        geqrt(B, &mut a, &mut t);
        // R = I (possibly with sign flips), V = 0, so T diag in {0} (tau=0).
        for j in 0..B {
            for i in (j + 1)..B {
                assert_eq!(a[i + j * B], 0.0, "V must stay zero");
            }
            assert!((a[j + j * B].abs() - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn tsqrt_stacked_r_matches_dense_reference() {
        let top0 = tile_random(B, 4);
        let bot0 = tile_random(B, 5);
        // First triangularize the top.
        let mut top = top0.clone();
        let mut t_ge = vec![0.0; B * B];
        geqrt(B, &mut top, &mut t_ge);
        let r_top = upper_of(B, &top);
        // TSQRT of [R_top; bottom].
        let mut bot = bot0.clone();
        let mut t_ts = vec![0.0; B * B];
        let mut a1 = r_top.data().to_vec();
        tsqrt(B, &mut a1, &mut bot, &mut t_ts);
        // Reference: dense QR of the 2b×b stack [R_top; bot0].
        let mut stack = DenseMatrix::zeros(2 * B, B);
        for j in 0..B {
            for i in 0..B {
                stack.set(i, j, r_top.get(i, j));
                stack.set(B + i, j, bot0[i + j * B]);
            }
        }
        let (_, r_ref) = dense_householder_qr(&stack);
        let mut r_ref_sq = DenseMatrix::zeros(B, B);
        for j in 0..B {
            for i in 0..=j {
                r_ref_sq.set(i, j, r_ref.get(i, j));
            }
        }
        assert_same_r_up_to_signs(&upper_of(B, &a1), &r_ref_sq, 1e-12);
    }

    #[test]
    fn tsqrt_with_apply_reproduces_stack() {
        // Factor [R; A2], then verify Q·[Rnew; 0] == [R; A2] by applying
        // NoTrans to the stacked R.
        let mut a1 = upper_of(B, &tile_random(B, 6)).data().to_vec();
        let a1_orig = a1.clone();
        let a2_orig = tile_random(B, 7);
        let mut a2 = a2_orig.clone();
        let mut t = vec![0.0; B * B];
        tsqrt(B, &mut a1, &mut a2, &mut t);
        let mut c1 = upper_of(B, &a1).data().to_vec();
        let mut c2 = vec![0.0; B * B];
        tsmqr(B, &a2, &t, &mut c1, &mut c2, Trans::NoTrans);
        let d1 = DenseMatrix::from_col_major(B, B, &c1)
            .sub(&DenseMatrix::from_col_major(B, B, &a1_orig));
        let d2 = DenseMatrix::from_col_major(B, B, &c2)
            .sub(&DenseMatrix::from_col_major(B, B, &a2_orig));
        assert!(d1.frob_norm() < 1e-12, "top reconstruction off by {}", d1.frob_norm());
        assert!(d2.frob_norm() < 1e-12, "bottom reconstruction off by {}", d2.frob_norm());
    }

    #[test]
    fn tsqrt_annihilates_bottom_tile() {
        let mut a1 = upper_of(B, &tile_random(B, 8)).data().to_vec();
        let mut a2 = tile_random(B, 9);
        let a2_orig = a2.clone();
        let a1_orig = a1.clone();
        let mut t = vec![0.0; B * B];
        tsqrt(B, &mut a1, &mut a2, &mut t);
        // Apply Qᵀ to the original stack: bottom should vanish.
        let mut c1 = a1_orig;
        let mut c2 = a2_orig;
        tsmqr(B, &a2, &t, &mut c1, &mut c2, Trans::Trans);
        let bot_norm = c2.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(bot_norm < 1e-12, "bottom tile should be annihilated, norm={bot_norm}");
    }

    #[test]
    fn tsqrt_preserves_pivot_v_storage() {
        // The strict lower triangle of A1 (GEQRT's V) must be untouched.
        let mut a1 = tile_random(B, 10);
        let lower_before: Vec<f64> = (0..B)
            .flat_map(|j| ((j + 1)..B).map(move |i| (i, j)))
            .map(|(i, j)| a1[i + j * B])
            .collect();
        let mut a2 = tile_random(B, 11);
        let mut t = vec![0.0; B * B];
        tsqrt(B, &mut a1, &mut a2, &mut t);
        let lower_after: Vec<f64> = (0..B)
            .flat_map(|j| ((j + 1)..B).map(move |i| (i, j)))
            .map(|(i, j)| a1[i + j * B])
            .collect();
        assert_eq!(lower_before, lower_after);
    }

    #[test]
    fn ttqrt_keeps_v2_upper_triangular() {
        let mut a1 = upper_of(B, &tile_random(B, 12)).data().to_vec();
        let mut a2 = upper_of(B, &tile_random(B, 13)).data().to_vec();
        // Poison the strict lower of a2 to verify it is never read/written.
        for j in 0..B {
            for i in (j + 1)..B {
                a2[i + j * B] = 1e9;
            }
        }
        let mut t = vec![0.0; B * B];
        ttqrt(B, &mut a1, &mut a2, &mut t);
        for j in 0..B {
            for i in (j + 1)..B {
                assert_eq!(a2[i + j * B], 1e9, "strict lower of A2 must be preserved");
            }
        }
    }

    #[test]
    fn ttqrt_stacked_r_matches_dense_reference() {
        let r1 = upper_of(B, &tile_random(B, 14));
        let r2 = upper_of(B, &tile_random(B, 15));
        let mut a1 = r1.data().to_vec();
        let mut a2 = r2.data().to_vec();
        let mut t = vec![0.0; B * B];
        ttqrt(B, &mut a1, &mut a2, &mut t);
        let mut stack = DenseMatrix::zeros(2 * B, B);
        for j in 0..B {
            for i in 0..B {
                stack.set(i, j, r1.get(i, j));
                stack.set(B + i, j, r2.get(i, j));
            }
        }
        let (_, r_ref) = dense_householder_qr(&stack);
        let mut r_ref_sq = DenseMatrix::zeros(B, B);
        for j in 0..B {
            for i in 0..=j {
                r_ref_sq.set(i, j, r_ref.get(i, j));
            }
        }
        assert_same_r_up_to_signs(&upper_of(B, &a1), &r_ref_sq, 1e-12);
    }

    #[test]
    fn ttqrt_with_apply_reproduces_stack() {
        let r1 = upper_of(B, &tile_random(B, 16)).data().to_vec();
        let r2 = upper_of(B, &tile_random(B, 17)).data().to_vec();
        let mut a1 = r1.clone();
        let mut a2 = r2.clone();
        let mut t = vec![0.0; B * B];
        ttqrt(B, &mut a1, &mut a2, &mut t);
        let mut c1 = upper_of(B, &a1).data().to_vec();
        let mut c2 = vec![0.0; B * B];
        ttmqr(B, &a2, &t, &mut c1, &mut c2, Trans::NoTrans);
        let d1 =
            DenseMatrix::from_col_major(B, B, &c1).sub(&DenseMatrix::from_col_major(B, B, &r1));
        let d2 =
            DenseMatrix::from_col_major(B, B, &c2).sub(&DenseMatrix::from_col_major(B, B, &r2));
        assert!(d1.frob_norm() < 1e-12);
        assert!(d2.frob_norm() < 1e-12);
    }

    #[test]
    fn tsqrt_zero_bottom_is_identity_transform() {
        let r = upper_of(B, &tile_random(B, 18)).data().to_vec();
        let mut a1 = r.clone();
        let mut a2 = vec![0.0; B * B];
        let mut t = vec![0.0; B * B];
        tsqrt(B, &mut a1, &mut a2, &mut t);
        assert_eq!(a1, r, "R must be unchanged when the victim is zero");
        assert!(t.iter().enumerate().all(|(idx, &v)| v == 0.0 || idx % (B + 1) == 0));
    }

    #[test]
    fn kernels_handle_b_equals_one() {
        let mut a1 = vec![3.0];
        let mut a2 = vec![4.0];
        let mut t = vec![0.0];
        tsqrt(1, &mut a1, &mut a2, &mut t);
        assert!((a1[0].abs() - 5.0).abs() < 1e-14, "hypot(3,4)=5, got {}", a1[0]);
    }
}
