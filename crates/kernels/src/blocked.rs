//! The tile kernels, with PLASMA's inner block size `ib` as a parameter.
//!
//! Production tile kernels split each b×b tile into column panels of width
//! `ib` (PLASMA's inner block size, typically 32–64 for b ≈ 200–300): each
//! panel is factored, its compact T factor built, and the panel's block
//! reflector applied to the remaining columns with level-3 BLAS. This
//! bounds the T factors to `ib × b` and improves cache behaviour;
//! mathematically the factorization is identical (same V, same R up to
//! rounding), only the grouping of reflector applications changes.
//!
//! This file is the only implementation of the six kernels: the "plain"
//! entry points ([`crate::geqrt`], [`crate::unmqr`], …) are the
//! `ib = b` call of the functions here (one panel spanning the tile), so
//! no caller ever chooses between a blocked and an unblocked routine.
//!
//! Everything here is level 3. The update kernels and every trailing
//! block-apply are packed calls into the shared gemm core
//! ([`crate::micro`]): triangular operands are pack-cleaned (the ignored
//! triangle zeroed, unit diagonals materialized) so the vector arm can
//! run dense register blocks while the structure mask preserves the
//! kernels' nominal flop counts. The three factor kernels are one
//! recursive compact-WY routine ([`crate::panel`]) that halves a panel
//! down to blocks of eight columns, so reflector application inside the
//! panel and the T build ride the microkernel too, and only those
//! eight-column blocks run fused dot / rank-1 steps. Split points are a
//! function of `(b, ib)`, both arms accumulate in a fixed order, and the
//! only data-dependent branch is the reflector generator's rescaling
//! guard, so per-call flop counts are a function of `(b, ib)` and results
//! are bitwise deterministic run-to-run on a fixed dispatch arm.
//!
//! Layout convention: the `t` buffer is `ib × b`, column-major with
//! leading dimension `ib` ([`crate::t_len`] doubles); the T factor of the
//! panel starting at column `s` (width `w = min(ib, b−s)`) is the `w × w`
//! upper triangle at rows `0..w`, columns `s..s+w`. Nothing else is
//! stored, so at `ib < b` no row of the buffer is padding.

use crate::micro::{gemm_core, simd_arm, MaskA, SimdArm};
use crate::panel::tile_qrt;
use crate::Trans;
use crate::{check_t, check_tile};

pub(crate) fn check_ib(b: usize, ib: usize) {
    assert!(ib > 0 && ib <= b, "inner block size must be in 1..=b (got {ib} for b={b})");
}

/// Panel start offsets for tile size `b` and inner block `ib`.
pub(crate) fn panels(b: usize, ib: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..b).step_by(ib).map(move |s| (s, (s + ib).min(b)))
}

/// Multiply the `w × n` workspace `wbuf` in place by op(T_panel), where the
/// panel T is stored at rows 0..w, cols s..s+w of `t` (leading dimension
/// `ib`; strict lower of the panel triangle ignored).
#[allow(clippy::too_many_arguments)]
fn apply_t_panel(
    arm: SimdArm,
    ib: usize,
    t: &[f64],
    s: usize,
    w: usize,
    n: usize,
    wbuf: &mut [f64],
    trans: Trans,
) {
    let mut tc = vec![0.0; w * w];
    let mask = match trans {
        Trans::Trans => {
            for j in 0..w {
                for i in 0..=j {
                    tc[j + i * w] = t[i + (s + j) * ib];
                }
            }
            MaskA::Lower
        }
        Trans::NoTrans => {
            for j in 0..w {
                for i in 0..=j {
                    tc[i + j * w] = t[i + (s + j) * ib];
                }
            }
            MaskA::Upper
        }
    };
    let src = wbuf.to_vec();
    gemm_core(arm, w, n, w, 1.0, &tc, w, mask, &src, w, 0.0, wbuf, w);
}

/// Store `col` as rows `r..` of column `c` of a packed reflector panel `vp`
/// (`rows × w`) and of its transpose `vpt` (`w × rows`).
pub(crate) fn pack_column(
    vp: &mut [f64],
    rows: usize,
    vpt: &mut [f64],
    w: usize,
    r: usize,
    c: usize,
    col: &[f64],
) {
    vp[r + c * rows..][..col.len()].copy_from_slice(col);
    for (i, x) in col.iter().enumerate() {
        vpt[c + (r + i) * w] = *x;
    }
}

/// Pack the unit-lower reflector panel of columns `s..s+w` of `v` (rows
/// `s..b`, unit diagonal at row `s+r`, entries above it zero) and its
/// transpose, both with local row indexing.
fn pack_unit_lower_panel(b: usize, s: usize, w: usize, v: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let mrows = b - s;
    let mut vp = vec![0.0; mrows * w];
    let mut vpt = vec![0.0; w * mrows];
    for r in 0..w {
        vp[r + r * mrows] = 1.0;
        vpt[r + r * w] = 1.0;
        let below = &v[(s + r + 1) + (s + r) * b..b + (s + r) * b];
        pack_column(&mut vp, mrows, &mut vpt, w, r + 1, r, below);
    }
    (vp, vpt)
}

/// Pack the stacked-bottom reflector panel of columns `s..s+w` of `v2`
/// (rows `0..support(col)` active, the rest zero) and its transpose.
/// `keff` is the packed row count (`s+w` for triangular support, `b`
/// otherwise).
fn pack_stacked_panel(
    b: usize,
    s: usize,
    w: usize,
    keff: usize,
    v2: &[f64],
    tri: bool,
) -> (Vec<f64>, Vec<f64>) {
    let mut vp = vec![0.0; keff * w];
    let mut vpt = vec![0.0; w * keff];
    for r in 0..w {
        let sup = if tri { (s + r + 1).min(keff) } else { keff };
        pack_column(&mut vp, keff, &mut vpt, w, 0, r, &v2[(s + r) * b..][..sup]);
    }
    (vp, vpt)
}

/// Inner-blocked GEQRT (PLASMA `CORE_dgeqrt` with inner blocking).
pub fn geqrt_ib(b: usize, ib: usize, a: &mut [f64], t: &mut [f64]) {
    geqrt_ib_arm(simd_arm(), b, ib, a, t);
}

/// [`geqrt_ib`] on an explicit dispatch arm (parity tests and benches).
pub fn geqrt_ib_arm(arm: SimdArm, b: usize, ib: usize, a: &mut [f64], t: &mut [f64]) {
    tile_qrt(arm, b, ib, a, None, false, t);
}

/// Apply op(Q) of a [`geqrt_ib`] factorization to tile `c`
/// (inner-blocked UNMQR). `Trans` applies panels forward, `NoTrans`
/// in reverse.
pub fn unmqr_ib(b: usize, ib: usize, v: &[f64], t: &[f64], c: &mut [f64], trans: Trans) {
    unmqr_ib_arm(simd_arm(), b, ib, v, t, c, trans);
}

/// [`unmqr_ib`] on an explicit dispatch arm (parity tests and benches).
pub fn unmqr_ib_arm(
    arm: SimdArm,
    b: usize,
    ib: usize,
    v: &[f64],
    t: &[f64],
    c: &mut [f64],
    trans: Trans,
) {
    check_tile(b, v);
    check_t(b, ib, t);
    check_tile(b, c);
    check_ib(b, ib);
    let plist: Vec<(usize, usize)> = panels(b, ib).collect();
    let iter: Box<dyn Iterator<Item = &(usize, usize)>> = match trans {
        Trans::Trans => Box::new(plist.iter()),
        Trans::NoTrans => Box::new(plist.iter().rev()),
    };
    for &(s, e) in iter {
        let w = e - s;
        let mrows = b - s;
        let (vp, vpt) = pack_unit_lower_panel(b, s, w, v);
        let mut wbuf = vec![0.0; w * b];
        gemm_core(arm, w, b, mrows, 1.0, &vpt, w, MaskA::Upper, &c[s..], b, 0.0, &mut wbuf, w);
        apply_t_panel(arm, ib, t, s, w, b, &mut wbuf, trans);
        gemm_core(arm, mrows, b, w, -1.0, &vp, mrows, MaskA::Lower, &wbuf, w, 1.0, &mut c[s..], b);
    }
}

/// Inner-blocked TSQRT.
pub fn tsqrt_ib(b: usize, ib: usize, a1: &mut [f64], a2: &mut [f64], t: &mut [f64]) {
    tile_qrt(simd_arm(), b, ib, a1, Some(a2), false, t);
}

/// [`tsqrt_ib`] on an explicit dispatch arm (parity tests and benches).
pub fn tsqrt_ib_arm(
    arm: SimdArm,
    b: usize,
    ib: usize,
    a1: &mut [f64],
    a2: &mut [f64],
    t: &mut [f64],
) {
    tile_qrt(arm, b, ib, a1, Some(a2), false, t);
}

/// Inner-blocked TTQRT.
pub fn ttqrt_ib(b: usize, ib: usize, a1: &mut [f64], a2: &mut [f64], t: &mut [f64]) {
    tile_qrt(simd_arm(), b, ib, a1, Some(a2), true, t);
}

/// [`ttqrt_ib`] on an explicit dispatch arm (parity tests and benches).
pub fn ttqrt_ib_arm(
    arm: SimdArm,
    b: usize,
    ib: usize,
    a1: &mut [f64],
    a2: &mut [f64],
    t: &mut [f64],
) {
    tile_qrt(arm, b, ib, a1, Some(a2), true, t);
}

/// Shared inner-blocked TSMQR/TTMQR.
#[allow(clippy::too_many_arguments)]
fn stacked_mqr_ib(
    arm: SimdArm,
    b: usize,
    ib: usize,
    v2: &[f64],
    t: &[f64],
    a1: &mut [f64],
    a2: &mut [f64],
    trans: Trans,
    tri: bool,
) {
    check_tile(b, v2);
    check_t(b, ib, t);
    check_tile(b, a1);
    check_tile(b, a2);
    check_ib(b, ib);
    let plist: Vec<(usize, usize)> = panels(b, ib).collect();
    let iter: Box<dyn Iterator<Item = &(usize, usize)>> = match trans {
        Trans::Trans => Box::new(plist.iter()),
        Trans::NoTrans => Box::new(plist.iter().rev()),
    };
    for &(s, e) in iter {
        let w = e - s;
        let keff = if tri { e } else { b };
        let (vp, vpt) = pack_stacked_panel(b, s, w, keff, v2, tri);
        // A triangular V2 under one full-width panel is a square
        // triangular operand, which the gemm core can mask (skipping the
        // zero half's flops); a narrower panel of it is a trapezoid, which
        // it cannot.
        let (mask_vt, mask_v) =
            if tri && w == b { (MaskA::Lower, MaskA::Upper) } else { (MaskA::Full, MaskA::Full) };
        // W = A1[s..e, :] + Vᵀ·A2[0..keff, :].
        let mut wbuf = vec![0.0; w * b];
        for col in 0..b {
            for r in 0..w {
                wbuf[r + col * w] = a1[(s + r) + col * b];
            }
        }
        gemm_core(arm, w, b, keff, 1.0, &vpt, w, mask_vt, a2, b, 1.0, &mut wbuf, w);
        apply_t_panel(arm, ib, t, s, w, b, &mut wbuf, trans);
        // A1[s..e, :] -= W; A2[0..keff, :] -= V·W.
        for col in 0..b {
            for r in 0..w {
                a1[(s + r) + col * b] -= wbuf[r + col * w];
            }
        }
        gemm_core(arm, keff, b, w, -1.0, &vp, keff, mask_v, &wbuf, w, 1.0, a2, b);
    }
}

/// Inner-blocked TSMQR.
pub fn tsmqr_ib(
    b: usize,
    ib: usize,
    v2: &[f64],
    t: &[f64],
    a1: &mut [f64],
    a2: &mut [f64],
    trans: Trans,
) {
    stacked_mqr_ib(simd_arm(), b, ib, v2, t, a1, a2, trans, false);
}

/// [`tsmqr_ib`] on an explicit dispatch arm (parity tests and benches).
#[allow(clippy::too_many_arguments)]
pub fn tsmqr_ib_arm(
    arm: SimdArm,
    b: usize,
    ib: usize,
    v2: &[f64],
    t: &[f64],
    a1: &mut [f64],
    a2: &mut [f64],
    trans: Trans,
) {
    stacked_mqr_ib(arm, b, ib, v2, t, a1, a2, trans, false);
}

/// Inner-blocked TTMQR.
pub fn ttmqr_ib(
    b: usize,
    ib: usize,
    v2: &[f64],
    t: &[f64],
    a1: &mut [f64],
    a2: &mut [f64],
    trans: Trans,
) {
    stacked_mqr_ib(simd_arm(), b, ib, v2, t, a1, a2, trans, true);
}

/// [`ttmqr_ib`] on an explicit dispatch arm (parity tests and benches).
#[allow(clippy::too_many_arguments)]
pub fn ttmqr_ib_arm(
    arm: SimdArm,
    b: usize,
    ib: usize,
    v2: &[f64],
    t: &[f64],
    a1: &mut [f64],
    a2: &mut [f64],
    trans: Trans,
) {
    stacked_mqr_ib(arm, b, ib, v2, t, a1, a2, trans, true);
}
