//! Register-blocked gemm microkernel with one-time SIMD dispatch.
//!
//! Every level-3 operation in this crate — the update kernels
//! (UNMQR/TSMQR/TTMQR), the recursive panel routine of the factor kernels
//! ([`crate::panel`]: block-applies, T merges, trailing updates), and
//! [`crate::blas::gemm`] — funnels into
//! [`gemm_core`]: `C := α·A·B + β·C` on column-major buffers with
//! explicit leading dimensions, where `A` may carry a triangular
//! structure mask so triangle-shaped operands (TT kernels, T factors,
//! unit-lower V blocks) keep their flop savings.
//!
//! Two arms implement the core:
//!
//! * **Scalar** — portable Rust, axpy-ordered (`j`-outer, `l`-middle,
//!   contiguous `i`-inner) so the compiler can autovectorize with
//!   baseline features. Always available; the fallback on every target.
//! * **Avx2** — `core::arch` FMA intrinsics streaming columns of `A`
//!   against broadcast elements of `B`. Only compiled on x86-64 and only
//!   selected when the CPU reports both `avx2` and `fma`.
//!
//! The arm names the arithmetic; the CPU picks the register width under
//! it. Where the CPU reports `avx512f` (checked once, `wide_registers`),
//! `gemm_core` runs 16×8 blocks of `__m512d` accumulators, two vectors
//! per column; elsewhere 8×4 blocks of `__m256d`. The `m mod 16` rows and
//! `n mod 8` columns of the wide driver go through the 256-bit blocks.
//! Both widths give every `C` element the same operation sequence — one
//! FMA chain `acc = fma(a_il, b_lj, acc)` from `+0.0` over the `l` range
//! its 8-row group's mask allows, then the same `α`/`β` epilogue — so
//! they produce the same bits, and a fleet mixing AVX2 and AVX-512 hosts
//! stays bitwise.
//!
//! The arm is chosen **once per process** ([`simd_arm`], a `OnceLock`):
//! runtime feature detection, overridable with `HQR_SIMD=off|scalar`
//! (force the portable arm) or `HQR_SIMD=avx2` (force the vector arm,
//! falling back with a warning if the CPU lacks it). A fixed arm plus
//! input-independent control flow (no data-dependent early-outs
//! anywhere in the core) makes every kernel bitwise deterministic
//! run-to-run on the same machine — the property the checkpoint-resume
//! and multi-job solo-parity suites rely on. The two arms agree only up
//! to rounding (FMA contracts the multiply-add), which is why
//! cross-arm tests are tolerance-based while same-arm tests are exact.
//!
//! The same two arms implement the fused level-2 steps that end the panel
//! recursion ([`dot_cols`], [`axpy_cols`]); those stay 256-bit, which
//! measured faster than 512-bit leaves in the factor kernels. The
//! reflector packs' [`transpose`] runs at the gemm's width.

use std::sync::OnceLock;

/// A dispatch arm of the microkernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdArm {
    /// Portable Rust loops (autovectorizable, no target features).
    Scalar,
    /// FMA intrinsics on AVX2 hosts (x86-64 only, runtime-detected). The
    /// arm fixes the arithmetic; `gemm_core` runs it in 512-bit registers
    /// where the CPU has `avx512f` and in 256-bit ones elsewhere, with
    /// identical results.
    Avx2,
}

impl SimdArm {
    /// Short stable name, e.g. for bench metadata: `"scalar"` / `"avx2"`.
    pub fn name(self) -> &'static str {
        match self {
            SimdArm::Scalar => "scalar",
            SimdArm::Avx2 => "avx2",
        }
    }
}

/// The arm the hardware supports (ignoring `HQR_SIMD`).
pub fn simd_detected() -> SimdArm {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return SimdArm::Avx2;
        }
    }
    SimdArm::Scalar
}

fn resolve_arm() -> (SimdArm, &'static str) {
    let detected = simd_detected();
    match std::env::var("HQR_SIMD").ok().as_deref() {
        None => (detected, "runtime-detected"),
        Some("off") | Some("scalar") | Some("0") => (SimdArm::Scalar, "forced via HQR_SIMD"),
        Some("avx2") | Some("on") | Some("1") => {
            if detected == SimdArm::Avx2 {
                (SimdArm::Avx2, "forced via HQR_SIMD")
            } else {
                eprintln!("HQR_SIMD requested avx2 but the CPU lacks avx2+fma; using scalar");
                (SimdArm::Scalar, "avx2 unavailable, fell back to scalar")
            }
        }
        Some(other) => {
            eprintln!("unknown HQR_SIMD value `{other}` (use off|scalar|avx2); auto-detecting");
            (detected, "runtime-detected")
        }
    }
}

fn dispatch() -> &'static (SimdArm, &'static str) {
    static ARM: OnceLock<(SimdArm, &'static str)> = OnceLock::new();
    ARM.get_or_init(resolve_arm)
}

/// The arm every public kernel entry point uses, selected once at startup.
pub fn simd_arm() -> SimdArm {
    dispatch().0
}

/// Whether the Avx2 arm's gemm runs in 512-bit registers: the CPU reports
/// `avx512f`. Detected once per process; `HQR_SIMD` does not choose it.
pub(crate) fn wide_registers() -> bool {
    static WIDE: OnceLock<bool> = OnceLock::new();
    *WIDE.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx512f")
        }
        #[cfg(not(target_arch = "x86_64"))]
        false
    })
}

/// Human-readable dispatch description, e.g.
/// `"avx2 (runtime-detected, 512-bit registers)"`.
pub fn simd_description() -> String {
    let (arm, how) = dispatch();
    match arm {
        SimdArm::Scalar => format!("{} ({how})", arm.name()),
        SimdArm::Avx2 => {
            let bits = if wide_registers() { 512 } else { 256 };
            format!("{} ({how}, {bits}-bit registers)", arm.name())
        }
    }
}

/// Structure of the `A` operand: which `(i, l)` entries may be nonzero.
/// Masked-out entries are never read by the scalar arm and are read but
/// guaranteed zero (callers pack-clean their buffers) by the block-granular
/// AVX2 arm, so both arms skip the corresponding flops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MaskA {
    /// Dense m×k operand.
    Full,
    /// Lower triangular including the diagonal: nonzero iff `l <= i`.
    Lower,
    /// Upper triangular including the diagonal: nonzero iff `l >= i`.
    Upper,
}

impl MaskA {
    /// Column range of `A` that can touch rows `[i0, i1)`, intersected
    /// with `[0, k)`.
    #[inline]
    fn k_range(self, i0: usize, i1: usize, k: usize) -> (usize, usize) {
        match self {
            MaskA::Full => (0, k),
            // A[i, l] nonzero iff l <= i: columns 0..=max_i.
            MaskA::Lower => (0, i1.min(k)),
            // A[i, l] nonzero iff l >= i: columns min_i onward.
            MaskA::Upper => (i0.min(k), k),
        }
    }
}

/// `C := α·A·B + β·C` where `A` is `m × k` (leading dimension `lda`,
/// structure `mask`), `B` is `k × n` (`ldb`), `C` is `m × n` (`ldc`), all
/// column-major. `β == 0` overwrites `C` without reading it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_core(
    arm: SimdArm,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    mask: MaskA,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    gemm_any(arm, m, n, k, alpha, a, lda, mask, b, ldb, beta, None, c, ldc);
}

/// `C := α·A·B + S`, `S` an `m × n` operand at leading dimension `lds`:
/// [`gemm_core`] with `β = 1` whose epilogue reads the `β` term from `S`
/// instead of from `C`. The bits are those of copying `S` into `C` and
/// calling [`gemm_core`], without the copy.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_seeded(
    arm: SimdArm,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    mask: MaskA,
    b: &[f64],
    ldb: usize,
    s: &[f64],
    lds: usize,
    c: &mut [f64],
    ldc: usize,
) {
    check_cols(m, n, s, lds);
    gemm_any(arm, m, n, k, alpha, a, lda, mask, b, ldb, 1.0, Some((s, lds)), c, ldc);
}

/// The arm and width dispatch behind [`gemm_core`] and [`gemm_seeded`].
#[allow(clippy::too_many_arguments)]
fn gemm_any(
    arm: SimdArm,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    mask: MaskA,
    b: &[f64],
    ldb: usize,
    beta: f64,
    seed: Seed,
    c: &mut [f64],
    ldc: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    debug_assert!(lda >= m && ldc >= m && (k == 0 || ldb >= k));
    match arm {
        SimdArm::Scalar => gemm_scalar(m, n, k, alpha, a, lda, mask, b, ldb, beta, seed, c, ldc),
        SimdArm::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the Avx2 arm is only ever selected when runtime
            // detection confirmed avx2+fma (see `resolve_arm`), and the
            // 512-bit driver only when it confirmed avx512f.
            unsafe {
                if wide_registers() {
                    avx512::gemm(m, n, k, alpha, a, lda, mask, b, ldb, beta, seed, c, ldc)
                } else {
                    avx2::gemm(m, n, k, alpha, a, lda, mask, b, ldb, beta, seed, c, ldc)
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            gemm_scalar(m, n, k, alpha, a, lda, mask, b, ldb, beta, seed, c, ldc)
        }
    }
}

/// Where a `β = 1` epilogue reads its `β` term when not from `C`: an
/// operand and its leading dimension.
type Seed<'a> = Option<(&'a [f64], usize)>;

/// Portable arm: axpy ordering keeps the inner loop contiguous in `i`,
/// and the mask trims each `A` column to its exact nonzero row range.
#[allow(clippy::too_many_arguments)]
fn gemm_scalar(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    mask: MaskA,
    b: &[f64],
    ldb: usize,
    beta: f64,
    seed: Seed,
    c: &mut [f64],
    ldc: usize,
) {
    for j in 0..n {
        let cj = j * ldc;
        let ccol = &mut c[cj..cj + m];
        if let Some((s, lds)) = seed {
            ccol.copy_from_slice(&s[j * lds..j * lds + m]);
        } else if beta == 0.0 {
            ccol.fill(0.0);
        } else if beta != 1.0 {
            for v in ccol.iter_mut() {
                *v *= beta;
            }
        }
        for l in 0..k {
            let blj = alpha * b[l + j * ldb];
            // Rows of column l of A that can be nonzero under the mask.
            let (i0, i1) = match mask {
                MaskA::Full => (0, m),
                MaskA::Lower => (l.min(m), m),
                MaskA::Upper => (0, (l + 1).min(m)),
            };
            let al = &a[l * lda..l * lda + m];
            for i in i0..i1 {
                ccol[i] += blj * al[i];
            }
        }
    }
}

fn check_cols(len: usize, ncols: usize, cols: &[f64], ld: usize) {
    assert!(ncols == 0 || (ncols - 1) * ld + len <= cols.len(), "fused columns out of bounds");
}

/// Fused multi-column dot: `out[k] = vᵀ·cols[k·ld .. k·ld + v.len()]` for
/// every `k < out.len()`. Both arms accumulate in a fixed order — rows
/// `r ≡ i (mod 8)` into partial sum `i`, the eight partials reduced as a
/// fixed tree, then the `len mod 8` tail in row order — so a result
/// depends on the operands and the arm only.
pub(crate) fn dot_cols(arm: SimdArm, v: &[f64], cols: &[f64], ld: usize, out: &mut [f64]) {
    check_cols(v.len(), out.len(), cols, ld);
    match arm {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `check_cols` proved every column read in bounds; the Avx2
        // arm is only selected after runtime detection of avx2+fma.
        SimdArm::Avx2 => unsafe { avx2::dot_cols(v, cols, ld, out) },
        _ => {
            for (k, o) in out.iter_mut().enumerate() {
                let c = &cols[k * ld..k * ld + v.len()];
                let mut acc = [0.0f64; 8];
                let (v8, c8) = (v.chunks_exact(8), c.chunks_exact(8));
                let (vt, ct) = (v8.remainder(), c8.remainder());
                for (vv, cc) in v8.zip(c8) {
                    for i in 0..8 {
                        acc[i] += vv[i] * cc[i];
                    }
                }
                let mut s = ((acc[0] + acc[4]) + (acc[1] + acc[5]))
                    + ((acc[2] + acc[6]) + (acc[3] + acc[7]));
                for (x, y) in vt.iter().zip(ct) {
                    s += x * y;
                }
                *o = s;
            }
        }
    }
}

/// Fused rank-1 step: `cols[k·ld + r] −= w[k]·v[r]` for every `k < w.len()`.
pub(crate) fn axpy_cols(arm: SimdArm, v: &[f64], w: &[f64], cols: &mut [f64], ld: usize) {
    check_cols(v.len(), w.len(), cols, ld);
    match arm {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `dot_cols`.
        SimdArm::Avx2 => unsafe { avx2::axpy_cols(v, w, cols, ld) },
        _ => {
            for (k, &wk) in w.iter().enumerate() {
                for (c, x) in cols[k * ld..k * ld + v.len()].iter_mut().zip(v) {
                    *c -= wk * x;
                }
            }
        }
    }
}

/// `dst[j + i·ldd] = src[i + j·lds]` for `i < rows`, `j < cols`: the
/// `cols × rows` transpose of a column-major `rows × cols` block, which is
/// how the reflector packs build `Vᵀ`. The vector arm moves 8×8 (512-bit)
/// or 4×4 (256-bit) tiles through registers, the scalar arm one element
/// at a time; either way only values move.
pub(crate) fn transpose(
    arm: SimdArm,
    rows: usize,
    cols: usize,
    src: &[f64],
    lds: usize,
    dst: &mut [f64],
    ldd: usize,
) {
    check_cols(rows, cols, src, lds);
    check_cols(cols, rows, dst, ldd);
    match arm {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: both `check_cols` calls proved every access in bounds;
        // the arm was detected as in `dot_cols`, the width as in `gemm_any`.
        SimdArm::Avx2 => unsafe {
            let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
            if wide_registers() {
                avx512::transpose(rows, cols, sp, lds, dp, ldd)
            } else {
                avx2::transpose(rows, cols, sp, lds, dp, ldd)
            }
        },
        _ => {
            for j in 0..cols {
                for (i, x) in src[j * lds..j * lds + rows].iter().enumerate() {
                    dst[j + i * ldd] = *x;
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::MaskA;
    use core::arch::x86_64::*;
    use core::ops::Range;

    /// `NC` columns of [`super::dot_cols`]: two accumulator vectors per
    /// column (rows mod 8), reduced in the order the scalar arm uses.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn dot_nc<const NC: usize>(
        len: usize,
        v: *const f64,
        c: *const f64,
        ld: usize,
    ) -> [f64; NC] {
        let mut acc = [[_mm256_setzero_pd(); 2]; NC];
        let mut r = 0;
        while r + 8 <= len {
            let (v0, v1) = (_mm256_loadu_pd(v.add(r)), _mm256_loadu_pd(v.add(r + 4)));
            for (k, a) in acc.iter_mut().enumerate() {
                let p = c.add(k * ld + r);
                a[0] = _mm256_fmadd_pd(v0, _mm256_loadu_pd(p), a[0]);
                a[1] = _mm256_fmadd_pd(v1, _mm256_loadu_pd(p.add(4)), a[1]);
            }
            r += 8;
        }
        let mut out = [0.0; NC];
        for (k, a) in acc.iter().enumerate() {
            let mut lanes = [0.0f64; 4];
            _mm256_storeu_pd(lanes.as_mut_ptr(), _mm256_add_pd(a[0], a[1]));
            let mut s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
            for i in r..len {
                s = (*v.add(i)).mul_add(*c.add(k * ld + i), s);
            }
            out[k] = s;
        }
        out
    }

    /// # Safety
    /// avx2+fma present; `(out.len() − 1)·ld + v.len() ≤ cols.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_cols(v: &[f64], cols: &[f64], ld: usize, out: &mut [f64]) {
        let (len, vp, mut k) = (v.len(), v.as_ptr(), 0);
        while k < out.len() {
            let c = cols.as_ptr().add(k * ld);
            let step = match out.len() - k {
                1 => {
                    out[k..k + 1].copy_from_slice(&dot_nc::<1>(len, vp, c, ld));
                    1
                }
                2 | 3 => {
                    out[k..k + 2].copy_from_slice(&dot_nc::<2>(len, vp, c, ld));
                    2
                }
                _ => {
                    out[k..k + 4].copy_from_slice(&dot_nc::<4>(len, vp, c, ld));
                    4
                }
            };
            k += step;
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn axpy_nc<const NC: usize>(
        len: usize,
        v: *const f64,
        w: *const f64,
        c: *mut f64,
        ld: usize,
    ) {
        let wv: [__m256d; NC] = core::array::from_fn(|k| _mm256_set1_pd(*w.add(k)));
        let mut r = 0;
        while r + 4 <= len {
            let vv = _mm256_loadu_pd(v.add(r));
            for (k, wk) in wv.iter().enumerate() {
                let p = c.add(k * ld + r);
                _mm256_storeu_pd(p, _mm256_fnmadd_pd(*wk, vv, _mm256_loadu_pd(p)));
            }
            r += 4;
        }
        for i in r..len {
            for k in 0..NC {
                let p = c.add(k * ld + i);
                *p = (-*w.add(k)).mul_add(*v.add(i), *p);
            }
        }
    }

    /// # Safety
    /// avx2+fma present; `(w.len() − 1)·ld + v.len() ≤ cols.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn axpy_cols(v: &[f64], w: &[f64], cols: &mut [f64], ld: usize) {
        let (len, vp, mut k) = (v.len(), v.as_ptr(), 0);
        while k < w.len() {
            let (wp, c) = (w.as_ptr().add(k), cols.as_mut_ptr().add(k * ld));
            k += match w.len() - k {
                1 => {
                    axpy_nc::<1>(len, vp, wp, c, ld);
                    1
                }
                2 | 3 => {
                    axpy_nc::<2>(len, vp, wp, c, ld);
                    2
                }
                _ => {
                    axpy_nc::<4>(len, vp, wp, c, ld);
                    4
                }
            };
        }
    }

    /// The elements of a transpose outside its whole `T × T` tiles: every
    /// row of columns `cols − cols mod T..`, and rows `rows − rows mod T..`
    /// of the others.
    ///
    /// # Safety
    /// Both blocks in bounds at their leading dimensions, as
    /// [`super::transpose`] checks.
    pub(super) unsafe fn transpose_edges<const T: usize>(
        rows: usize,
        cols: usize,
        src: *const f64,
        lds: usize,
        dst: *mut f64,
        ldd: usize,
    ) {
        let (rt, ct) = (rows - rows % T, cols - cols % T);
        for j in 0..cols {
            for i in if j < ct { rt } else { 0 }..rows {
                *dst.add(j + i * ldd) = *src.add(i + j * lds);
            }
        }
    }

    /// [`super::transpose`] in 4×4 register tiles.
    ///
    /// # Safety
    /// avx2 present; both blocks in bounds at their leading dimensions.
    #[target_feature(enable = "avx2")]
    pub unsafe fn transpose(
        rows: usize,
        cols: usize,
        src: *const f64,
        lds: usize,
        dst: *mut f64,
        ldd: usize,
    ) {
        for j in (0..cols - cols % 4).step_by(4) {
            for i in (0..rows - rows % 4).step_by(4) {
                let s = src.add(i + j * lds);
                let r: [__m256d; 4] = core::array::from_fn(|c| _mm256_loadu_pd(s.add(c * lds)));
                let (t0, t1) = (_mm256_unpacklo_pd(r[0], r[1]), _mm256_unpackhi_pd(r[0], r[1]));
                let (t2, t3) = (_mm256_unpacklo_pd(r[2], r[3]), _mm256_unpackhi_pd(r[2], r[3]));
                let d = dst.add(j + i * ldd);
                _mm256_storeu_pd(d, _mm256_permute2f128_pd::<0x20>(t0, t2));
                _mm256_storeu_pd(d.add(ldd), _mm256_permute2f128_pd::<0x20>(t1, t3));
                _mm256_storeu_pd(d.add(2 * ldd), _mm256_permute2f128_pd::<0x31>(t0, t2));
                _mm256_storeu_pd(d.add(3 * ldd), _mm256_permute2f128_pd::<0x31>(t1, t3));
            }
        }
        transpose_edges::<4>(rows, cols, src, lds, dst, ldd);
    }

    /// Microkernel: `C[0..4·MV, 0..NR] = α·(A·B) + β·S` over `kk` terms,
    /// accumulating the full block in `MV × NR` vector registers (`S` is
    /// `C` itself unless the caller seeds from elsewhere).
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn mk<const MV: usize, const NR: usize>(
        kk: usize,
        a: *const f64,
        lda: usize,
        b: *const f64,
        ldb: usize,
        alpha: f64,
        beta: f64,
        s: *const f64,
        lds: usize,
        c: *mut f64,
        ldc: usize,
    ) {
        let mut acc = [[_mm256_setzero_pd(); MV]; NR];
        for l in 0..kk {
            let ap = a.add(l * lda);
            let av: [__m256d; MV] = core::array::from_fn(|v| _mm256_loadu_pd(ap.add(4 * v)));
            for (j, accj) in acc.iter_mut().enumerate() {
                let bv = _mm256_set1_pd(*b.add(l + j * ldb));
                for (avv, accv) in av.iter().zip(accj.iter_mut()) {
                    *accv = _mm256_fmadd_pd(*avv, bv, *accv);
                }
            }
        }
        let va = _mm256_set1_pd(alpha);
        for (j, accj) in acc.iter().enumerate() {
            let (cp, sp) = (c.add(j * ldc), s.add(j * lds));
            for (v, accv) in accj.iter().enumerate() {
                let mut r = _mm256_mul_pd(*accv, va);
                if beta == 1.0 {
                    r = _mm256_add_pd(r, _mm256_loadu_pd(sp.add(4 * v)));
                } else if beta != 0.0 {
                    r = _mm256_fmadd_pd(_mm256_loadu_pd(sp.add(4 * v)), _mm256_set1_pd(beta), r);
                }
                _mm256_storeu_pd(cp.add(4 * v), r);
            }
        }
    }

    /// Scalar cleanup for row tails narrower than one vector.
    #[allow(clippy::too_many_arguments)]
    unsafe fn tail_rows(
        rows: usize,
        nr: usize,
        kk: usize,
        a: *const f64,
        lda: usize,
        b: *const f64,
        ldb: usize,
        alpha: f64,
        beta: f64,
        s: *const f64,
        lds: usize,
        c: *mut f64,
        ldc: usize,
    ) {
        for j in 0..nr {
            for i in 0..rows {
                let mut acc = 0.0;
                for l in 0..kk {
                    acc += *a.add(i + l * lda) * *b.add(l + j * ldb);
                }
                let prev = if beta == 0.0 { 0.0 } else { beta * *s.add(i + j * lds) };
                *c.add(i + j * ldc) = prev + alpha * acc;
            }
        }
    }

    /// The `β` source of a driver call: `seed` if given, else `C` itself.
    pub(super) fn seed_ptr(seed: super::Seed, c: *mut f64, ldc: usize) -> (*const f64, usize) {
        match seed {
            Some((s, lds)) => (s.as_ptr(), lds),
            None => (c as *const f64, ldc),
        }
    }

    /// 256-bit driver for the Avx2 arm.
    ///
    /// # Safety
    /// avx2+fma present; `a`, `b`, `c` (and `seed`, if given) hold their
    /// `m × k`, `k × n`, `m × n` operands at the given leading dimensions.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn gemm(
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        a: &[f64],
        lda: usize,
        mask: MaskA,
        b: &[f64],
        ldb: usize,
        beta: f64,
        seed: super::Seed,
        c: &mut [f64],
        ldc: usize,
    ) {
        let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
        let (sp, lds) = seed_ptr(seed, cp, ldc);
        blocks(0..m, 0..n, k, alpha, ap, lda, mask, bp, ldb, beta, sp, lds, cp, ldc);
    }

    /// The 256-bit blocks of `C[rows, cols]`, indices absolute. The mask
    /// trims the `k` range per 8-row block; diagonal-crossing blocks rely
    /// on callers packing zeros into the masked-out triangle. `rows`
    /// starts on a multiple of 8, so a block's rows and `k` range do not
    /// depend on which driver hands it the rectangle.
    ///
    /// # Safety
    /// avx2+fma present; every element of the rectangle and its operands
    /// in bounds.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn blocks(
        rows: Range<usize>,
        cols: Range<usize>,
        k: usize,
        alpha: f64,
        ap: *const f64,
        lda: usize,
        mask: MaskA,
        bp: *const f64,
        ldb: usize,
        beta: f64,
        sp: *const f64,
        lds: usize,
        cp: *mut f64,
        ldc: usize,
    ) {
        debug_assert!(rows.start.is_multiple_of(8));
        let m = rows.end;
        let mut j = cols.start;
        while j < cols.end {
            let nr = (cols.end - j).min(4);
            let mut i = rows.start;
            while i < m {
                let mr = (m - i).min(8);
                let (klo, khi) = mask.k_range(i, i + mr, k);
                let kk = khi - klo;
                let ab = ap.add(i + klo * lda);
                let bb = bp.add(klo + j * ldb);
                let (sb, cb) = (sp.add(i + j * lds), cp.add(i + j * ldc));
                // The last `cols` columns of the block starting `skip` columns in.
                let part = |mv: usize, cols: usize, skip: usize| {
                    let (b, s, c) = (bb.add(skip * ldb), sb.add(skip * lds), cb.add(skip * ldc));
                    match (mv, cols) {
                        (2, 4) => mk::<2, 4>(kk, ab, lda, b, ldb, alpha, beta, s, lds, c, ldc),
                        (2, 2) => mk::<2, 2>(kk, ab, lda, b, ldb, alpha, beta, s, lds, c, ldc),
                        (2, _) => mk::<2, 1>(kk, ab, lda, b, ldb, alpha, beta, s, lds, c, ldc),
                        (_, 4) => mk::<1, 4>(kk, ab, lda, b, ldb, alpha, beta, s, lds, c, ldc),
                        (_, 2) => mk::<1, 2>(kk, ab, lda, b, ldb, alpha, beta, s, lds, c, ldc),
                        _ => mk::<1, 1>(kk, ab, lda, b, ldb, alpha, beta, s, lds, c, ldc),
                    }
                };
                if mr >= 4 {
                    let mv = if mr >= 8 { 2 } else { 1 };
                    if nr == 3 {
                        part(mv, 2, 0);
                        part(mv, 1, 2);
                    } else {
                        part(mv, nr, 0);
                    }
                }
                // 1..=3 rows, or the 5..=7 the vector kernel's first 4 left.
                let done = mr - mr % 4;
                if mr > done {
                    let (a, s, c) = (ab.add(done), sb.add(done), cb.add(done));
                    tail_rows(mr - done, nr, kk, a, lda, bb, ldb, alpha, beta, s, lds, c, ldc);
                }
                i += mr;
            }
            j += nr;
        }
    }
}

/// The Avx2 arm's gemm in 512-bit registers, for CPUs with `avx512f`.
/// Bit-for-bit the 256-bit driver: each 8-row group keeps its own mask
/// `k` range (one range per 16 rows would feed extra `0·b` terms into the
/// chain, which flips signed zeros and spreads non-finite `b`), and every
/// remainder goes through the 256-bit blocks. The transpose lives here
/// too, at the same width.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{avx2, MaskA};
    use core::arch::x86_64::*;

    /// Columns of one register block; each holds two 8-row vectors.
    const NR: usize = 8;

    /// [`super::transpose`] in 8×8 register tiles: pairs of columns
    /// interleaved, then 128-bit and 256-bit lanes exchanged.
    ///
    /// # Safety
    /// avx512f present; both blocks in bounds at their leading dimensions.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn transpose(
        rows: usize,
        cols: usize,
        src: *const f64,
        lds: usize,
        dst: *mut f64,
        ldd: usize,
    ) {
        // Lanes {0, 1, 4, 5} and {2, 3, 6, 7} of `a` beside the same of `b`.
        let even = _mm512_set_epi64(13, 12, 5, 4, 9, 8, 1, 0);
        let odd = _mm512_set_epi64(15, 14, 7, 6, 11, 10, 3, 2);
        for j in (0..cols - cols % 8).step_by(8) {
            for i in (0..rows - rows % 8).step_by(8) {
                let s = src.add(i + j * lds);
                let r: [__m512d; 8] = core::array::from_fn(|c| _mm512_loadu_pd(s.add(c * lds)));
                // t[2p] holds rows 0, 2, 4, 6 of columns 2p and 2p + 1;
                // t[2p + 1] rows 1, 3, 5, 7.
                let t: [__m512d; 8] = core::array::from_fn(|q| {
                    let (a, b) = (r[q & !1], r[q | 1]);
                    if q % 2 == 0 {
                        _mm512_unpacklo_pd(a, b)
                    } else {
                        _mm512_unpackhi_pd(a, b)
                    }
                });
                // u[h][x]: rows x and x + 4 of columns 4h..4h + 4.
                let u: [[__m512d; 4]; 2] = core::array::from_fn(|h| {
                    let (p, q) = (4 * h, 4 * h + 2);
                    [
                        _mm512_permutex2var_pd(t[p], even, t[q]),
                        _mm512_permutex2var_pd(t[p + 1], even, t[q + 1]),
                        _mm512_permutex2var_pd(t[p], odd, t[q]),
                        _mm512_permutex2var_pd(t[p + 1], odd, t[q + 1]),
                    ]
                });
                let d = dst.add(j + i * ldd);
                for (x, (&lo, &hi)) in u[0].iter().zip(&u[1]).enumerate() {
                    _mm512_storeu_pd(d.add(x * ldd), _mm512_shuffle_f64x2::<0x44>(lo, hi));
                    _mm512_storeu_pd(d.add((x + 4) * ldd), _mm512_shuffle_f64x2::<0xee>(lo, hi));
                }
            }
        }
        avx2::transpose_edges::<8>(rows, cols, src, lds, dst, ldd);
    }

    /// `l` in `l0..l1` for the live 8-row groups (`G0`: rows 0..8, `G1`:
    /// rows 8..16) of a 16-row block.
    #[target_feature(enable = "avx512f")]
    unsafe fn span<const G0: bool, const G1: bool>(
        acc: &mut [[__m512d; 2]; NR],
        l0: usize,
        l1: usize,
        a: *const f64,
        lda: usize,
        b: *const f64,
        ldb: usize,
    ) {
        for l in l0..l1 {
            let ap = a.add(l * lda);
            let a0 = if G0 { _mm512_loadu_pd(ap) } else { _mm512_setzero_pd() };
            let a1 = if G1 { _mm512_loadu_pd(ap.add(8)) } else { _mm512_setzero_pd() };
            for (j, accj) in acc.iter_mut().enumerate() {
                let bv = _mm512_set1_pd(*b.add(l + j * ldb));
                if G0 {
                    accj[0] = _mm512_fmadd_pd(a0, bv, accj[0]);
                }
                if G1 {
                    accj[1] = _mm512_fmadd_pd(a1, bv, accj[1]);
                }
            }
        }
    }

    /// `C[0..16, 0..8] = α·(A·B) + β·S`, rows `8g..8g + 8` summing `l`
    /// over `ranges[g]` in ascending order.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn mk(
        ranges: [(usize, usize); 2],
        a: *const f64,
        lda: usize,
        b: *const f64,
        ldb: usize,
        alpha: f64,
        beta: f64,
        s: *const f64,
        lds: usize,
        c: *mut f64,
        ldc: usize,
    ) {
        let mut acc = [[_mm512_setzero_pd(); 2]; NR];
        // Between consecutive cuts the set of live groups is fixed.
        let mut cuts = [ranges[0].0, ranges[0].1, ranges[1].0, ranges[1].1];
        cuts.sort_unstable();
        for w in cuts.windows(2) {
            let (p, q) = (w[0], w[1]);
            let live = |(lo, hi): (usize, usize)| lo <= p && p < hi;
            match (live(ranges[0]), live(ranges[1])) {
                (true, true) => span::<true, true>(&mut acc, p, q, a, lda, b, ldb),
                (true, false) => span::<true, false>(&mut acc, p, q, a, lda, b, ldb),
                (false, true) => span::<false, true>(&mut acc, p, q, a, lda, b, ldb),
                (false, false) => {}
            }
        }
        let va = _mm512_set1_pd(alpha);
        for (j, accj) in acc.iter().enumerate() {
            let (cp, sp) = (c.add(j * ldc), s.add(j * lds));
            for (g, accv) in accj.iter().enumerate() {
                let mut r = _mm512_mul_pd(*accv, va);
                if beta == 1.0 {
                    r = _mm512_add_pd(r, _mm512_loadu_pd(sp.add(8 * g)));
                } else if beta != 0.0 {
                    r = _mm512_fmadd_pd(_mm512_loadu_pd(sp.add(8 * g)), _mm512_set1_pd(beta), r);
                }
                _mm512_storeu_pd(cp.add(8 * g), r);
            }
        }
    }

    /// 512-bit driver: 16×8 blocks over `C[0..m − m mod 16, 0..n − n mod 8]`,
    /// the 256-bit blocks for the rest.
    ///
    /// # Safety
    /// avx512f (hence avx2+fma) present; operands as for
    /// [`avx2::gemm`].
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn gemm(
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        a: &[f64],
        lda: usize,
        mask: MaskA,
        b: &[f64],
        ldb: usize,
        beta: f64,
        seed: super::Seed,
        c: &mut [f64],
        ldc: usize,
    ) {
        let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
        let (sp, lds) = avx2::seed_ptr(seed, cp, ldc);
        let (m16, n8) = (m - m % 16, n - n % NR);
        for j in (0..n8).step_by(NR) {
            for i in (0..m16).step_by(16) {
                let ranges = [mask.k_range(i, i + 8, k), mask.k_range(i + 8, i + 16, k)];
                let (ab, bb) = (ap.add(i), bp.add(j * ldb));
                let (sb, cb) = (sp.add(i + j * lds), cp.add(i + j * ldc));
                mk(ranges, ab, lda, bb, ldb, alpha, beta, sb, lds, cb, ldc);
            }
        }
        let rest = |rows, cols| {
            avx2::blocks(rows, cols, k, alpha, ap, lda, mask, bp, ldb, beta, sp, lds, cp, ldc)
        };
        rest(0..m16, n8..n);
        rest(m16..m, 0..n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqr_tile::DenseMatrix;

    #[allow(clippy::too_many_arguments)]
    fn reference(
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        a: &[f64],
        lda: usize,
        mask: MaskA,
        b: &[f64],
        ldb: usize,
        beta: f64,
        c: &[f64],
        ldc: usize,
    ) -> Vec<f64> {
        let mut out = c.to_vec();
        for j in 0..n {
            for i in 0..m {
                let mut s = 0.0;
                for l in 0..k {
                    let live = match mask {
                        MaskA::Full => true,
                        MaskA::Lower => l <= i,
                        MaskA::Upper => l >= i,
                    };
                    if live {
                        s += a[i + l * lda] * b[l + j * ldb];
                    }
                }
                out[i + j * ldc] = beta * c[i + j * ldc] + alpha * s;
            }
        }
        out
    }

    /// Pack-cleaned `m × k` operand at leading dimension `ld`: zeros in the
    /// masked-out triangle, NaN in the rows past `m` that no arm may read.
    fn masked_fill(m: usize, k: usize, ld: usize, mask: MaskA, seed: u64) -> Vec<f64> {
        let full = DenseMatrix::random(ld, k, seed).data().to_vec();
        let mut out = vec![f64::NAN; ld * k];
        for l in 0..k {
            for i in 0..m {
                let live = match mask {
                    MaskA::Full => true,
                    MaskA::Lower => l <= i,
                    MaskA::Upper => l >= i,
                };
                out[i + l * ld] = if live { full[i + l * ld] } else { 0.0 };
            }
        }
        out
    }

    const ALPHA_BETA: [(f64, f64); 4] = [(1.0, 0.0), (1.0, 1.0), (-1.0, 1.0), (2.5, -0.5)];

    fn check(arm: SimdArm, m: usize, n: usize, k: usize, mask: MaskA, alpha: f64, beta: f64) {
        let a = masked_fill(m, k, m, mask, 1000 + m as u64 * 7 + n as u64);
        let b = DenseMatrix::random(k, n, 2000 + k as u64).data().to_vec();
        let c0 = DenseMatrix::random(m, n, 3000 + n as u64).data().to_vec();
        let expect = reference(m, n, k, alpha, &a, m, mask, &b, k, beta, &c0, m);
        let mut c = c0.clone();
        gemm_core(arm, m, n, k, alpha, &a, m, mask, &b, k, beta, &mut c, m);
        let err = c.iter().zip(&expect).fold(0.0f64, |acc, (x, y)| acc.max((x - y).abs()));
        assert!(err < 1e-11, "{arm:?} {m}x{n}x{k} {mask:?} alpha={alpha} beta={beta}: err {err}");
    }

    #[test]
    fn all_arms_match_reference_over_shapes() {
        let arms: &[SimdArm] = if simd_detected() == SimdArm::Avx2 {
            &[SimdArm::Scalar, SimdArm::Avx2]
        } else {
            &[SimdArm::Scalar]
        };
        for &arm in arms {
            for &(m, n, k) in &[
                (1, 1, 1),
                (3, 2, 5),
                (4, 4, 4),
                (7, 3, 9),
                (8, 4, 8),
                (8, 5, 13),
                (11, 7, 6),
                (16, 16, 16),
                (24, 9, 17),
                (33, 13, 33),
            ] {
                for &mask in &[MaskA::Full, MaskA::Lower, MaskA::Upper] {
                    for (alpha, beta) in ALPHA_BETA {
                        check(arm, m, n, k, mask, alpha, beta);
                    }
                }
            }
        }
    }

    #[test]
    fn triangular_masks_never_read_dead_entries_on_scalar() {
        // Poison the masked-out triangle: the scalar arm's exact row
        // trimming must never touch it.
        let (m, k, n) = (9usize, 9usize, 4usize);
        let mut a = masked_fill(m, k, m, MaskA::Lower, 7);
        for l in 0..k {
            for i in 0..m {
                if l > i {
                    a[i + l * m] = f64::NAN;
                }
            }
        }
        let b = DenseMatrix::random(k, n, 8).data().to_vec();
        let mut c = vec![0.0; m * n];
        gemm_core(SimdArm::Scalar, m, n, k, 1.0, &a, m, MaskA::Lower, &b, k, 0.0, &mut c, m);
        assert!(c.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn same_arm_is_bitwise_deterministic() {
        let (m, n, k) = (33usize, 17usize, 29usize);
        let a = DenseMatrix::random(m, k, 11).data().to_vec();
        let b = DenseMatrix::random(k, n, 12).data().to_vec();
        for &arm in &[SimdArm::Scalar, simd_detected()] {
            let mut c1 = vec![0.5; m * n];
            let mut c2 = vec![0.5; m * n];
            gemm_core(arm, m, n, k, 1.0, &a, m, MaskA::Full, &b, k, 1.0, &mut c1, m);
            gemm_core(arm, m, n, k, 1.0, &a, m, MaskA::Full, &b, k, 1.0, &mut c2, m);
            let bits1: Vec<u64> = c1.iter().map(|x| x.to_bits()).collect();
            let bits2: Vec<u64> = c2.iter().map(|x| x.to_bits()).collect();
            assert_eq!(bits1, bits2, "{arm:?} not run-to-run deterministic");
        }
    }

    #[test]
    fn dispatch_is_stable_within_a_process() {
        assert_eq!(simd_arm(), simd_arm());
        assert!(!simd_description().is_empty());
        assert_eq!(SimdArm::Scalar.name(), "scalar");
        assert_eq!(SimdArm::Avx2.name(), "avx2");
    }

    /// The Avx2 arm's 512-bit and 256-bit gemm drivers, run directly on the
    /// same inputs, must leave bitwise-equal `C`; at `β = 1` so must both
    /// seeded from a separate operand over a `C` of NaN.
    #[test]
    fn register_widths_compute_the_same_bits() {
        #[cfg(target_arch = "x86_64")]
        {
            type Driver = unsafe fn(
                usize,
                usize,
                usize,
                f64,
                &[f64],
                usize,
                MaskA,
                &[f64],
                usize,
                f64,
                Seed,
                &mut [f64],
                usize,
            );
            if simd_detected() != SimdArm::Avx2 || !wide_registers() {
                println!("register widths: skipped, this CPU lacks avx512f");
                return;
            }
            // Every m, n and k in 1..=40 and 128 occurs, so every m mod 16
            // and n mod 8 does.
            let dims: Vec<usize> = (1..=40).chain([128]).collect();
            let mut shapes = vec![(128, 128, 128)];
            for (x, &m) in dims.iter().enumerate() {
                for (y, &n) in dims.iter().enumerate() {
                    shapes.push((m, n, dims[(3 * x + 5 * y) % dims.len()]));
                }
            }
            let mut compared = 0;
            for &(m, n, k) in &shapes {
                let (lda, ldb, ldc) = (m + 3, k + 2, m + 5);
                let seed = (m * 10_000 + n * 100 + k) as u64;
                let mut b = DenseMatrix::random(ldb, n, seed).data().to_vec();
                // ±∞ in B's first and last rows: a group whose mask range
                // stops short of them must not turn its 0·∞ into NaN.
                b[(n - 1) * ldb] = f64::INFINITY;
                b[k - 1 + (n - 1) * ldb] = f64::NEG_INFINITY;
                let mut c0 = DenseMatrix::random(ldc, n, seed + 1).data().to_vec();
                for (idx, v) in c0.iter_mut().enumerate() {
                    if idx % ldc >= m {
                        *v = 7.0;
                    } else if idx % 3 == 0 {
                        *v = -0.0;
                    }
                }
                for mask in [MaskA::Full, MaskA::Lower, MaskA::Upper] {
                    let a = masked_fill(m, k, lda, mask, seed + 2);
                    for (alpha, beta) in ALPHA_BETA {
                        let run = |gemm: Driver, seeded: bool| {
                            let mut c = c0.clone();
                            if seeded {
                                c.iter_mut().enumerate().for_each(|(i, v)| {
                                    if i % ldc < m {
                                        *v = f64::NAN
                                    }
                                });
                            }
                            let seed = seeded.then_some((&c0[..], ldc));
                            // SAFETY: avx2+fma and avx512f were detected
                            // above; the buffers hold the operands at these
                            // dimensions.
                            unsafe {
                                gemm(
                                    m, n, k, alpha, &a, lda, mask, &b, ldb, beta, seed, &mut c, ldc,
                                )
                            };
                            c
                        };
                        let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        let narrow = bits(&run(avx2::gemm, false));
                        let what = format!("{m}x{n}x{k} {mask:?} alpha={alpha} beta={beta}");
                        let mut runs = vec![(run(avx512::gemm, false), "")];
                        if beta == 1.0 {
                            runs.push((run(avx2::gemm, true), " seeded"));
                            runs.push((run(avx512::gemm, true), " seeded"));
                        }
                        for (c, how) in runs {
                            assert_eq!(narrow, bits(&c), "{what}{how}");
                            assert!(c.iter().enumerate().all(|(i, v)| i % ldc < m || *v == 7.0));
                            compared += 1;
                        }
                    }
                }
            }
            println!("register widths: {compared} products bitwise equal at 512 and 256 bits");
        }
        #[cfg(not(target_arch = "x86_64"))]
        println!("register widths: skipped, not an x86-64 CPU");
    }

    /// The transpose at both register widths must move every element to
    /// the place the scalar arm does, over every shape up to 20×20.
    #[test]
    fn transposes_compute_the_same_bits_at_both_widths() {
        #[cfg(target_arch = "x86_64")]
        {
            if simd_detected() != SimdArm::Avx2 || !wide_registers() {
                println!("transpose widths: skipped, this CPU lacks avx512f");
                return;
            }
            let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let mut compared = 0;
            for rows in 1..=20usize {
                for cols in 1..=20usize {
                    let (lds, ldd) = (rows + 2, cols + 1);
                    let src = DenseMatrix::random(lds, cols, (rows * 32 + cols) as u64);
                    let src = src.data();
                    let mut want = vec![7.0; ldd * rows];
                    transpose(SimdArm::Scalar, rows, cols, src, lds, &mut want, ldd);
                    for i in 0..rows {
                        for j in 0..cols {
                            assert_eq!(want[j + i * ldd], src[i + j * lds]);
                        }
                    }
                    let (mut narrow, mut wide) = (vec![7.0; ldd * rows], vec![7.0; ldd * rows]);
                    // SAFETY: avx2 and avx512f were detected above; both
                    // blocks fit their buffers.
                    unsafe {
                        avx2::transpose(rows, cols, src.as_ptr(), lds, narrow.as_mut_ptr(), ldd);
                        avx512::transpose(rows, cols, src.as_ptr(), lds, wide.as_mut_ptr(), ldd);
                    }
                    assert_eq!(bits(&want), bits(&narrow), "transpose {rows}x{cols} at 256 bits");
                    assert_eq!(bits(&want), bits(&wide), "transpose {rows}x{cols} at 512 bits");
                    compared += 2;
                }
            }
            println!("transpose widths: {compared} transposes bitwise equal at 512 and 256 bits");
        }
        #[cfg(not(target_arch = "x86_64"))]
        println!("transpose widths: skipped, not an x86-64 CPU");
    }
}
