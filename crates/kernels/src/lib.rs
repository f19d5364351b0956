//! From-scratch sequential tile QR kernels.
//!
//! These are the six kernels of the paper's §II (Algorithm 2), implemented
//! with Householder reflections in compact WY form, exactly as PLASMA's
//! CORE_BLAS kernels do:
//!
//! | kernel | operation | weight (b³/3 flops) |
//! |---|---|---|
//! | [`geqrt`]  | QR of a square tile: A → (V, R), T | 4 |
//! | [`unmqr`]  | apply op(Q) of a GEQRT to a tile | 6 |
//! | [`tsqrt`]  | QR of [R; A] (triangle on top of square) | 6 |
//! | [`tsmqr`]  | apply op(Q) of a TSQRT to a tile pair | 12 |
//! | [`ttqrt`]  | QR of [R; R] (triangle on top of triangle) | 2 |
//! | [`ttmqr`]  | apply op(Q) of a TTQRT to a tile pair | 6 |
//!
//! Each kernel is implemented once, in [`blocked`], with PLASMA's inner
//! block size `ib` as a parameter; the plain entry points above are the
//! `ib = b` call. Executors do not call kernels by name: they hand a
//! task's operands to [`run_kernel`], the one task→kernel dispatcher.
//!
//! All tiles are square `b × b`, column-major slices of length `b²`. A T
//! factor is smaller: [`t_len`]`(b, ib)` doubles, the upper triangle of
//! each `ib` panel's T packed column by column (`b(b+1)/2` for the plain
//! kernels' one panel; see [`crate::blocked`] for the layout). So is the
//! copy of GEQRT's reflectors that [`run_kernel`] makes for UNMQR:
//! [`v_len`]`(b)` doubles, V's strict lower triangle column by column
//! ([`pack_v`]). A finished factorization keeps each T's τ
//! ([`tau_len`], [`tau_from_t`]), and [`t_from_tau`] rebuilds T from it.
//! TT kernels exploit the triangular structure of the second tile and so
//! perform roughly a third of the floating-point work of their TS
//! counterparts per call, but "the sequential performance of the TS kernels
//! is higher" per *flop* (§II) — which the repo benchmark measures on this
//! implementation (`kernels.tsmqr_*_gflops` vs `kernels.ttmqr_*_gflops`).
//!
//! Conventions (LAPACK-style): `geqrt` factors A = Q·R with
//! Q = I − V·T·Vᵀ (V unit lower triangular, T upper triangular);
//! applying `Trans` computes Qᵀ·C (used during factorization, since
//! R = Qᵀ·A), `NoTrans` computes Q·C (used to rebuild Q against the
//! identity, as the paper's checks do).
//!
//! ```
//! use hqr_kernels::{geqrt, t_len, unmqr, Trans};
//! use hqr_tile::DenseMatrix;
//! let b = 8;
//! let a0 = DenseMatrix::random(b, b, 7).data().to_vec();
//! let (mut a, mut t) = (a0.clone(), vec![0.0; t_len(b, b)]);
//! geqrt(b, &mut a, &mut t);
//! // Qᵀ·A0 reproduces R: strictly-lower part vanishes.
//! let mut c = a0.clone();
//! unmqr(b, &a, &t, &mut c, Trans::Trans);
//! for j in 0..b {
//!     for i in (j + 1)..b {
//!         assert!(c[i + j * b].abs() < 1e-12);
//!     }
//! }
//! ```

mod apply;
pub mod blas;
pub mod blocked;
mod dispatch;
mod error;
mod factor;
mod larfg;
pub mod micro;
mod panel;
pub mod reference;
pub mod weights;

pub use apply::{tsmqr, tsmqr_arm, ttmqr, ttmqr_arm, unmqr, unmqr_arm};
pub use blocked::t_from_tau;
pub use dispatch::run_kernel;
pub use error::KernelError;
pub use factor::{geqrt, tsqrt, ttqrt};
pub use micro::{simd_arm, simd_description, simd_detected, SimdArm};
pub use weights::{KernelClass, KernelKind};

/// Whether to apply `Q` or `Qᵀ`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trans {
    /// Apply Q (used when reconstructing Q or computing Q·R).
    NoTrans,
    /// Apply Qᵀ (used during factorization: R = Qᵀ·A).
    Trans,
}

/// Doubles in the T factor of one tile kernel at tile size `b` and inner
/// block size `ib`: the upper triangle of each panel's `w × w` T, packed
/// column by column, panel after panel, so `Σ w(w+1)/2` over the panels
/// (2 112 at `(128, 32)`, 2 080 at `(64, 64)`). Every buffer that holds a
/// T factor — in a store, a spill record, a checkpoint, a stored result or
/// a wire frame — is sized by this function and by no other.
#[inline]
pub fn t_len(b: usize, ib: usize) -> usize {
    let tri = |w: usize| w * (w + 1) / 2;
    b.checked_div(ib).map_or(0, |full| full * tri(ib) + tri(b % ib))
}

/// Doubles in one factor kernel's τ, its T's diagonal: what a result, a
/// checkpoint or a gather keeps of T ([`t_from_tau`] rebuilds it).
#[inline]
pub fn tau_len(b: usize) -> usize {
    b
}

/// Copy the τ of T factor `t` (inner block size `ib`), its diagonal, into
/// `tau`, a [`tau_len`]`(b)` buffer.
pub fn tau_from_t(b: usize, ib: usize, t: &[f64], tau: &mut [f64]) {
    check_t(b, ib, t);
    assert_eq!(tau.len(), tau_len(b), "a τ must be tau_len({b}) elements");
    for (j, x) in tau.iter_mut().enumerate() {
        // Column j % ib of the panel starting at column j − j % ib.
        let c = j % ib;
        *x = t[t_len(j - c, ib) + c * (c + 3) / 2];
    }
}

/// Doubles in GEQRT's copy of its reflectors at tile size `b`: V's strict
/// lower triangle, packed column by column, so `b(b−1)/2` (8 128 at
/// `b = 128`). The unit diagonal is implicit and the tile's upper
/// triangle (R) is not copied: no kernel reads it there. Every buffer that
/// holds a V copy — in a store, a spill record, a checkpoint, a stored
/// result or a wire frame — is sized by this function and by no other.
#[inline]
pub fn v_len(b: usize) -> usize {
    b * b.saturating_sub(1) / 2
}

/// Where column `c`'s `b − 1 − c` entries (tile rows `c + 1..b`) sit in a
/// [`v_len`]`(b)` copy.
#[inline]
pub(crate) fn v_col(b: usize, c: usize) -> std::ops::Range<usize> {
    let at = c * (2 * b - c - 1) / 2;
    at..at + (b - 1 - c)
}

/// Copy V out of a factored `b × b` tile into `v`, a [`v_len`]`(b)` copy:
/// the tile's strict lower triangle, column by column. [`run_kernel`]'s
/// GEQRT arm makes its copy with this, and a copy released during a run is
/// rebuilt with it from the factored tile, whose strict lower triangle no
/// later kernel rewrites.
///
/// # Panics
/// When `tile` is not `b * b` long or `v` not `v_len(b)`.
pub fn pack_v(b: usize, tile: &[f64], v: &mut [f64]) {
    check_tile(b, tile);
    check_v(b, v);
    for (c, col) in tile.chunks_exact(b).enumerate() {
        v[v_col(b, c)].copy_from_slice(&col[c + 1..]);
    }
}

#[inline]
pub(crate) fn check_tile(b: usize, t: &[f64]) {
    assert_eq!(t.len(), b * b, "tile must be b*b = {} elements, got {}", b * b, t.len());
}

/// A V copy must hold exactly [`v_len`] doubles.
#[inline]
pub(crate) fn check_v(b: usize, v: &[f64]) {
    let n = v_len(b);
    assert_eq!(v.len(), n, "a V copy must be v_len({b}) = {n} elements, got {}", v.len());
}

/// A T operand must hold at least [`t_len`] doubles; the kernels read and
/// write only those, so a longer buffer (a full tile) works unchanged.
#[inline]
pub(crate) fn check_t(b: usize, ib: usize, t: &[f64]) {
    let n = t_len(b, ib);
    assert!(t.len() >= n, "T must hold t_len({b}, {ib}) = {n} elements, got {}", t.len());
}
