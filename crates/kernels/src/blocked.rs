//! The tile kernels, with PLASMA's inner block size `ib` as a parameter.
//!
//! Production tile kernels split each b×b tile into column panels of width
//! `ib` (PLASMA's inner block size, typically 32–64 for b ≈ 200–300): each
//! panel is factored, its compact T factor built, and the panel's block
//! reflector applied to the remaining columns with level-3 BLAS. This
//! bounds a T factor to `b/ib` triangles of `ib × ib` and improves cache
//! behaviour; mathematically the factorization is identical (same V, same
//! R up to rounding), only the grouping of reflector applications changes.
//!
//! This file holds the entry points of the six kernels, and only those:
//! the "plain" entry points ([`crate::geqrt`], [`crate::unmqr`], …) are the
//! `ib = b` call of the functions here (one panel spanning the tile), so
//! no caller ever chooses between a blocked and an unblocked routine.
//!
//! Everything behind them is level 3 and lives in the `panel` module. The
//! three factor kernels are one recursive compact-WY routine that halves a
//! panel down to blocks of eight columns, so reflector application inside
//! the panel and the T build ride the gemm core ([`crate::micro`]), and
//! only those eight-column blocks run fused dot / rank-1 steps. The three
//! update kernels are the same routine's block apply, once per `ib` panel:
//! triangular operands are pack-cleaned (the ignored triangle zeroed, unit
//! diagonals materialized) so the vector arm can run dense register blocks
//! while the structure mask preserves the kernels' nominal flop counts.
//! Split points are a function of `(b, ib)`, both arms accumulate in a
//! fixed order, and the only data-dependent branch is the reflector
//! generator's rescaling guard, so per-call flop counts are a function of
//! `(b, ib)` and results are bitwise deterministic run-to-run on a fixed
//! dispatch arm.
//!
//! Layout convention: the `t` buffer holds one packed upper triangle per
//! panel, in panel order ([`crate::t_len`] doubles). The T factor of the
//! panel starting at column `s` (width `w = min(ib, b−s)`) begins at
//! `t_len(s, ib)`, and its entry `T[i, j]` (`i ≤ j < w`) sits at
//! `j(j+1)/2 + i` past that. Only the triangles are stored: no double of
//! the buffer is a structural zero.

use crate::micro::{simd_arm, SimdArm};
use crate::panel::{tile_mqr, tile_qrt, Refl};
use crate::{KernelKind, Trans};

/// Rebuild the T factor kernel `kind` made at inner block size `ib` from
/// the factored tile `v` it left V in — GEQRT's strict lower triangle,
/// TSQRT's whole victim, TTQRT's victim's upper triangle — and τ
/// ([`crate::tau_from_t`]): on the same arm, the kernel's T bit for bit.
pub fn t_from_tau(kind: KernelKind, b: usize, ib: usize, v: &[f64], tau: &[f64], t: &mut [f64]) {
    t_from_tau_arm(simd_arm(), kind, b, ib, v, tau, t);
}

/// [`t_from_tau`] on an explicit dispatch arm (parity tests and benches).
pub fn t_from_tau_arm(
    arm: SimdArm,
    kind: KernelKind,
    b: usize,
    ib: usize,
    v: &[f64],
    tau: &[f64],
    t: &mut [f64],
) {
    assert!(kind.is_factor(), "{kind:?} makes no T factor");
    let bottom = (kind != KernelKind::Geqrt).then_some(&mut [][..]);
    tile_qrt(arm, b, ib, &mut [], bottom, kind == KernelKind::Ttqrt, Some((v, tau)), t);
}

/// Inner-blocked GEQRT (PLASMA `CORE_dgeqrt` with inner blocking).
pub fn geqrt_ib(b: usize, ib: usize, a: &mut [f64], t: &mut [f64]) {
    geqrt_ib_arm(simd_arm(), b, ib, a, t);
}

/// [`geqrt_ib`] on an explicit dispatch arm (parity tests and benches).
pub fn geqrt_ib_arm(arm: SimdArm, b: usize, ib: usize, a: &mut [f64], t: &mut [f64]) {
    tile_qrt(arm, b, ib, a, None, false, None, t);
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
    tile_mqr(arm, b, ib, Refl::Tile(v), t, None, c, false, trans);
}

/// Inner-blocked TSQRT.
pub fn tsqrt_ib(b: usize, ib: usize, a1: &mut [f64], a2: &mut [f64], t: &mut [f64]) {
    tile_qrt(simd_arm(), b, ib, a1, Some(a2), false, None, t);
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
    tile_qrt(arm, b, ib, a1, Some(a2), false, None, t);
}

/// Inner-blocked TTQRT.
pub fn ttqrt_ib(b: usize, ib: usize, a1: &mut [f64], a2: &mut [f64], t: &mut [f64]) {
    tile_qrt(simd_arm(), b, ib, a1, Some(a2), true, None, t);
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
    tile_qrt(arm, b, ib, a1, Some(a2), true, None, t);
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
    tsmqr_ib_arm(simd_arm(), b, ib, v2, t, a1, a2, trans);
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
    tile_mqr(arm, b, ib, Refl::Tile(v2), t, Some(a1), a2, false, trans);
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
    ttmqr_ib_arm(simd_arm(), b, ib, v2, t, a1, a2, trans);
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
    tile_mqr(arm, b, ib, Refl::Tile(v2), t, Some(a1), a2, true, trans);
}
