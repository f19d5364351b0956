//! The one factor routine behind GEQRT, TSQRT and TTQRT, plain and
//! inner-blocked: a recursive compact-WY panel factorization
//! (Elmroth–Gustavson).
//!
//! A panel of columns `c0..c1` is split at a fixed point, its left half
//! factored, the left block reflector applied to the right half, the right
//! half factored, and the two T factors merged with
//! `T12 = −T1·(V1ᵀV2)·T2`. Every one of those steps is a packed call into
//! the gemm core ([`crate::micro`]), so reflector application *and* the T
//! build ride the microkernel. Blocks of at most [`BASE`] columns end the
//! recursion: each reflector is generated by [`larfg`] and applied to the
//! block's remaining columns with one fused multi-column dot and one fused
//! rank-1 step ([`dot_cols`] / [`axpy_cols`], scalar and AVX2+FMA arms),
//! and the block's T comes from its Gram matrix `VᵀV`, again through the
//! core.
//!
//! The three kernels differ only in where a reflector lives — the *panel
//! geometry*, answered by [`Panel::vtail`] and [`Panel::span`]:
//!
//! * GEQRT (`bottom` absent): `v_j` is unit-lower in rows `j..b` of the
//!   tile itself;
//! * TSQRT: `v_j = [e_j; A2[:, j]]`, the full bottom column;
//! * TTQRT (`tri`): `v_j = [e_j; A2[0..=j, j]]` — the strict lower triangle
//!   of `A2` is never read or written.
//!
//! The inner-blocked kernels run the recursion once per `ib` panel and
//! block-apply the panel to the trailing columns with the same `apply`
//! step the recursion uses; the plain kernels are the case `ib = b`, one
//! recursion over the whole tile whose merges build the full-width T.
//!
//! That apply, [`block_apply`], is also the whole of the update kernels
//! ([`tile_mqr`]): UNMQR, TSMQR and TTMQR are one block apply per `ib`
//! panel with the reflectors read from a factored tile (or, for UNMQR,
//! from GEQRT's packed V copy) instead of from the panel in flight.
//! TSMQR's `V` is read where it lies; UNMQR's and TTMQR's are copied once,
//! cleaned of what lies beside them.
//!
//! Split points depend on `(b, ib)` only, both arms accumulate in a fixed
//! order, and nothing but [`larfg`]'s rescaling guard looks at the data, so
//! a fixed arm is bitwise deterministic run-to-run.

use crate::larfg::larfg;
use crate::micro::{axpy_cols, dot_cols, gemm_core, gemm_seeded, transpose, MaskA, SimdArm};
use crate::{check_t, check_tile, check_v, t_len, tau_len, v_col, Trans};
use hqr_tile::heap::{LINE, LINE_FROM};
use std::cell::RefCell;

/// Widest column block factored with level-2 code: one row block of the
/// AVX2 microkernel.
const BASE: usize = 8;

thread_local! {
    /// Pack / W / T scratch of all six kernels, grown on first use.
    static SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

pub(crate) fn check_ib(b: usize, ib: usize) {
    assert!(ib > 0 && ib <= b, "inner block size must be in 1..=b (got {ib} for b={b})");
}

/// Panel `(start, end)` column ranges for tile size `b` and inner block `ib`.
fn panels(b: usize, ib: usize) -> impl DoubleEndedIterator<Item = (usize, usize)> {
    (0..b.div_ceil(ib)).map(move |p| (p * ib, (p * ib + ib).min(b)))
}

/// Doubles in a cache line.
const LINE_F64: usize = LINE / std::mem::size_of::<f64>();

/// `SCRATCH` split into slices of the given lengths, grown if short. Each
/// slice starts on a whole line of the buffer, and the buffer is at least
/// [`LINE_FROM`] bytes, which the global allocator starts on a cache line;
/// so every slice starts on one, whatever `(b, ib)` sizes it.
fn carve<const N: usize>(buf: &mut Vec<f64>, lens: [usize; N]) -> [&mut [f64]; N] {
    let need = lens.iter().map(|n| n.next_multiple_of(LINE_F64)).sum::<usize>();
    let need = need.max(LINE_FROM / std::mem::size_of::<f64>());
    if buf.len() < need {
        buf.resize(need, 0.0);
    }
    let mut rest = &mut buf[..];
    lens.map(|n| {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(n.next_multiple_of(LINE_F64));
        rest = tail;
        debug_assert_eq!(head.as_ptr() as usize % LINE, 0, "a scratch piece off a cache line");
        &mut head[..n]
    })
}

/// QR of one tile (`bottom` absent: GEQRT) or of a triangle stacked on a
/// full (`tri` unset: TSQRT) or triangular (`tri` set: TTQRT) tile, with
/// inner block size `ib`. V, R and T are laid out as
/// [`crate::blocked`] documents.
///
/// With `rebuild = Some((v, τ))` (empty tiles) it replays only the T steps
/// on V from the tile `v` the kernel left it in: bit for bit its T.
#[allow(clippy::too_many_arguments)]
pub(crate) fn tile_qrt(
    arm: SimdArm,
    b: usize,
    ib: usize,
    top: &mut [f64],
    mut bottom: Option<&mut [f64]>,
    tri: bool,
    rebuild: Option<(&[f64], &[f64])>,
    t: &mut [f64],
) {
    if let Some((v, tau)) = rebuild {
        check_tile(b, v);
        assert_eq!(tau.len(), tau_len(b), "a τ must be tau_len({b}) elements");
    } else {
        [Some(&*top), bottom.as_deref()].into_iter().flatten().for_each(|x| check_tile(b, x));
    }
    check_t(b, ib, t);
    check_ib(b, ib);
    SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        for (s, e) in panels(b, ib) {
            let w = e - s;
            // Packed V is indexed by tile row − r0 and has `rows` rows.
            let (r0, rows) = match (&bottom, tri) {
                (None, _) => (s, b - s),
                (Some(_), false) => (0, b),
                (Some(_), true) => (0, e),
            };
            let nw = w * (b - e).max(w);
            let [vp, vpt, wa, wb, tc, tw] =
                carve(&mut buf, [rows * w, rows * w, nw, nw, w * w, w * w]);
            // A TSQRT panel packs all `b` rows of every reflector its gemms
            // read; GEQRT's and TTQRT's masks also reach zeros it never packs.
            if bottom.is_none() || tri {
                vp.fill(0.0);
                vpt.fill(0.0);
            }
            tw.fill(0.0);
            let mut p = Panel {
                arm,
                b,
                s,
                w,
                r0,
                rows,
                tri,
                top: &mut *top,
                bottom: bottom.as_deref_mut(),
                t: &mut *tw,
                vp,
                vpt,
                wa,
                wb,
                tc,
            };
            p.factor(s, e, rebuild);
            if rebuild.is_none() {
                p.apply(s, e, e, b);
            }
            // The panel's T leaves as its packed upper triangle.
            let mut at = 0;
            let packed = &mut t[t_len(s, ib)..t_len(e, ib)];
            for (j, col) in tw.chunks_exact(w).enumerate() {
                packed[at..=at + j].copy_from_slice(&col[..=j]);
                at += j + 1;
            }
        }
    });
}

/// One `ib` panel in flight: the tiles, the panel's T (a zeroed `w × w`
/// block whose upper triangle the panel fills), and the pack-clean copies
/// `vp` (`rows × w`) / `vpt` (`w × rows`) of the reflectors generated so
/// far, which every gemm of the panel reads.
struct Panel<'a> {
    arm: SimdArm,
    b: usize,
    s: usize,
    w: usize,
    r0: usize,
    rows: usize,
    tri: bool,
    top: &'a mut [f64],
    bottom: Option<&'a mut [f64]>,
    t: &'a mut [f64],
    vp: &'a mut [f64],
    vpt: &'a mut [f64],
    wa: &'a mut [f64],
    wb: &'a mut [f64],
    tc: &'a mut [f64],
}

impl Panel<'_> {
    /// Rows of the tail tile (the tile itself for GEQRT, `A2` otherwise)
    /// holding the stored part of `v_j`.
    fn vtail(&self, j: usize) -> (usize, usize) {
        match (&self.bottom, self.tri) {
            (None, _) => (j + 1, self.b),
            (Some(_), false) => (0, self.b),
            (Some(_), true) => (0, j + 1),
        }
    }

    /// Rows of the tail tile on which reflectors `c0..c1` can be nonzero.
    fn span(&self, c0: usize, c1: usize) -> (usize, usize) {
        match (&self.bottom, self.tri) {
            (None, _) => (c0, self.b),
            (Some(_), false) => (0, self.b),
            (Some(_), true) => (0, c1),
        }
    }

    /// Offsets of the `(tile row, reflector)` entry in `vp` and `vpt`.
    fn packed(&self, row: usize, col: usize) -> (usize, usize) {
        let (r, c) = (row - self.r0, col - self.s);
        (r + c * self.rows, c + r * self.w)
    }

    /// Offset in `t` of `T[i, j]` of the panel triangle, `i` and `j` tile
    /// columns (a closure, so callers can hold field borrows across it).
    fn t_index(&self) -> impl Fn(usize, usize) -> usize {
        let (s, w) = (self.s, self.w);
        move |i, j| (i - s) + (j - s) * w
    }

    /// Factor columns `c0..c1`, leaving R and V in the tiles, T in `t`;
    /// given the tile `v` the kernel left V in and τ, make only their T.
    fn factor(&mut self, c0: usize, c1: usize, rebuild: Option<(&[f64], &[f64])>) {
        if c1 - c0 <= BASE {
            let Some((v, tau)) = rebuild else { return self.factor_base(c0, c1) };
            let tix = self.t_index();
            (c0..c1).for_each(|j| self.t[tix(j, j)] = tau[j]);
            self.pack(c0, c1, Some(v));
            return self.t_base(c0, c1);
        }
        // Left width: half, rounded down to whole microkernel row blocks.
        let mid = c0 + ((c1 - c0) / 2 / BASE * BASE).max(BASE);
        self.factor(c0, mid, rebuild);
        if rebuild.is_none() {
            self.apply(c0, mid, mid, c1);
        }
        self.factor(mid, c1, rebuild);
        self.merge_t(c0, mid, c1);
    }

    /// Level-2 end of the recursion on at most [`BASE`] columns.
    fn factor_base(&mut self, c0: usize, c1: usize) {
        let (arm, b, tix) = (self.arm, self.b, self.t_index());
        for j in c0..c1 {
            // Row j of the block's later columns: the e_j part of v_j.
            let nf = c1 - j - 1;
            let mut head = [0.0; BASE];
            for (k, h) in head[..nf].iter_mut().enumerate() {
                *h = self.top[j + (j + 1 + k) * b];
            }
            let alpha = self.top[j + j * b];
            let (lo, hi) = self.vtail(j);
            let tail = match self.bottom.as_deref_mut() {
                Some(a2) => a2,
                None => &mut *self.top,
            };
            let (left, right) = tail.split_at_mut((j + 1) * b);
            let v = &mut left[j * b + lo..j * b + hi];
            let (beta, tau) = larfg(arm, alpha, v);
            // w = τ·(head + Vᵀ·cols); head −= w; cols −= v·wᵀ.
            let mut wv = [0.0; BASE];
            if nf > 0 {
                dot_cols(arm, v, &right[lo..], b, &mut wv[..nf]);
                for (x, h) in wv[..nf].iter_mut().zip(&mut head) {
                    *x = tau * (*h + *x);
                    *h -= *x;
                }
                axpy_cols(arm, v, &wv[..nf], &mut right[lo..], b);
            }
            for (k, h) in head[..nf].iter().enumerate() {
                self.top[j + (j + 1 + k) * b] = *h;
            }
            self.top[j + j * b] = beta;
            self.t[tix(j, j)] = tau;
        }
        self.pack(c0, c1, None);
        self.t_base(c0, c1);
    }

    /// T of the block `c0..c1` of packed reflectors, τ on its diagonal,
    /// from its Gram matrix G = VᵀV:
    /// T[c0..j, j] = −τ_j · T[c0..j, c0..j] · G[c0..j, j].
    fn t_base(&mut self, c0: usize, c1: usize) {
        let (arm, tix) = (self.arm, self.t_index());
        let n = c1 - c0;
        let (lo, hi) = self.span(c0, c1);
        let (pv, pvt) = self.packed(lo, c0);
        let mask = if self.bottom.is_some() { MaskA::Full } else { MaskA::Upper };
        let g = &mut self.wa[..n * n];
        gemm_core(
            arm,
            n,
            n,
            hi - lo,
            1.0,
            &self.vpt[pvt..],
            self.w,
            mask,
            &self.vp[pv..],
            self.rows,
            0.0,
            g,
            n,
        );
        for j in c0 + 1..c1 {
            let tau = self.t[tix(j, j)];
            for i in c0..j {
                let mut y = 0.0;
                for r in i..j {
                    y += self.t[tix(i, r)] * g[(r - c0) + (j - c0) * n];
                }
                self.t[tix(i, j)] = -tau * y;
            }
        }
    }

    /// Copy reflectors `c0..c1` into `vp`, then into `vpt` with one
    /// transpose of the block: from the tiles, or from `v`, the tile the
    /// kernel left them in.
    fn pack(&mut self, c0: usize, c1: usize, v: Option<&[f64]>) {
        let b = self.b;
        for j in c0..c1 {
            let (lo, hi) = self.vtail(j);
            let (pv, _) = self.packed(lo, j);
            if self.bottom.is_none() {
                self.vp[self.packed(j, j).0] = 1.0;
            }
            let tail = v.unwrap_or(self.bottom.as_deref().unwrap_or(&*self.top));
            self.vp[pv..pv + hi - lo].copy_from_slice(&tail[lo + j * b..hi + j * b]);
        }
        let (lo, hi) = self.span(c0, c1);
        let (pv, pvt) = self.packed(lo, c0);
        let (vp, vpt) = (&self.vp[pv..], &mut self.vpt[pvt..]);
        transpose(self.arm, hi - lo, c1 - c0, vp, self.rows, vpt, self.w);
    }

    /// `C := (I − V·T·Vᵀ)ᵀ·C` for the reflectors `c0..c1` and the stacked
    /// columns `n0..n1` to their right.
    fn apply(&mut self, c0: usize, c1: usize, n0: usize, n1: usize) {
        let (b, tix) = (self.b, self.t_index());
        if n1 == n0 {
            return;
        }
        let (lo, hi) = self.span(c0, c1);
        let (pv, pvt) = self.packed(lo, c0);
        let (mask_v, mask_vt) = match self.bottom {
            Some(_) => (MaskA::Full, MaskA::Full),
            None => (MaskA::Lower, MaskA::Upper),
        };
        let wy = Wy {
            rows: hi - lo,
            nv: c1 - c0,
            v: &self.vp[pv..],
            ldv: self.rows,
            mask_v,
            vt: &self.vpt[pvt..],
            ldvt: self.w,
            mask_vt,
            t: TriT::Square(&self.t[tix(c0, c0)..], self.w),
        };
        // The e_j rows of a stacked V̂ meet rows c0..c1 of A1.
        let (top, c) = match self.bottom.as_deref_mut() {
            Some(a2) => (Some(&mut self.top[c0 + n0 * b..]), &mut a2[lo + n0 * b..]),
            None => (None, &mut self.top[lo + n0 * b..]),
        };
        let ws = [&mut *self.wa, &mut *self.wb, &mut *self.tc];
        block_apply(self.arm, &wy, Trans::Trans, top, c, n1 - n0, b, ws);
    }

    /// `T[c0..mid, mid..c1] = −T1·(V1ᵀV2)·T2`.
    fn merge_t(&mut self, c0: usize, mid: usize, c1: usize) {
        let (arm, ldt, tix) = (self.arm, self.w, self.t_index());
        let (n1, n2) = (mid - c0, c1 - mid);
        // Rows on which both halves can be nonzero.
        let (lo, hi) = (self.span(mid, c1).0, self.span(c0, mid).1);
        let ((_, pvt), (pv, _)) = (self.packed(lo, c0), self.packed(lo, mid));
        let (wa, wb) = (&mut self.wa[..n1 * n2], &mut self.wb[..n1 * n2]);
        let (vt, v) = (&self.vpt[pvt..], &self.vp[pv..]);
        gemm_core(arm, n1, n2, hi - lo, 1.0, vt, self.w, MaskA::Full, v, self.rows, 0.0, wa, n1);
        let (t1, t2) = (&self.t[tix(c0, c0)..], &self.t[tix(mid, mid)..]);
        gemm_core(arm, n1, n2, n1, 1.0, t1, ldt, MaskA::Upper, wa, n1, 0.0, wb, n1);
        // T2's strict lower triangle in `t` is zero, so a full product is exact.
        gemm_core(arm, n1, n2, n2, -1.0, wb, n1, MaskA::Full, t2, ldt, 0.0, wa, n1);
        for (j, col) in wa.chunks_exact(n1).enumerate() {
            let at = tix(c0, mid + j);
            self.t[at..at + n1].copy_from_slice(col);
        }
    }
}

/// The upper triangle of a block's T as [`block_apply`] reads it.
#[derive(Clone, Copy)]
enum TriT<'a> {
    /// A square block at a leading dimension: a panel's T in flight.
    Square(&'a [f64], usize),
    /// Packed column by column, as a factored tile's T is stored
    /// ([`t_len`]): `T[i, j]` at `j(j+1)/2 + i`.
    Packed(&'a [f64]),
}

impl<'a> TriT<'a> {
    /// `T[0..=j, j]`, the upper part of column `j`.
    #[inline]
    fn col(self, j: usize) -> &'a [f64] {
        match self {
            TriT::Square(t, ld) => &t[j * ld..=j * ld + j],
            TriT::Packed(t) => &t[j * (j + 1) / 2..][..=j],
        }
    }
}

/// A compact-WY block of `nv` reflectors as gemm operands: `V`
/// (`rows × nv`) and `Vᵀ` (`nv × rows`) at their leading dimensions, each
/// pack-clean wherever its mask reaches, and the upper triangle of the
/// block's T.
struct Wy<'a> {
    rows: usize,
    nv: usize,
    v: &'a [f64],
    ldv: usize,
    mask_v: MaskA,
    vt: &'a [f64],
    ldvt: usize,
    mask_vt: MaskA,
    t: TriT<'a>,
}

/// `C := op(I − V·T·Vᵀ)·C`, the one block-reflector apply of all six
/// kernels. `c` holds the tail tile from the block's first row, `nc`
/// columns at leading dimension `ldc`. For a stacked `V̂ = [I; V]`, `top`
/// holds the `nv` rows of the top tile the identity meets (same leading
/// dimension): they seed W through the gemm epilogue and take `−W` back.
/// `ws` is scratch for W, op(T)·W and the packed op(T).
#[allow(clippy::too_many_arguments)]
fn block_apply(
    arm: SimdArm,
    wy: &Wy,
    trans: Trans,
    top: Option<&mut [f64]>,
    c: &mut [f64],
    nc: usize,
    ldc: usize,
    [wa, wb, tc]: [&mut [f64]; 3],
) {
    let nv = wy.nv;
    let (wa, wb, tc) = (&mut wa[..nv * nc], &mut wb[..nv * nc], &mut tc[..nv * nv]);
    // W = Vᵀ·C (+ the top rows).
    let (vt, ldvt, rows) = (wy.vt, wy.ldvt, wy.rows);
    match &top {
        Some(s) => {
            gemm_seeded(arm, nv, nc, rows, 1.0, vt, ldvt, wy.mask_vt, c, ldc, s, ldc, wa, nv)
        }
        None => gemm_core(arm, nv, nc, rows, 1.0, vt, ldvt, wy.mask_vt, c, ldc, 0.0, wa, nv),
    }
    // W := op(T)·W, out of place: `tc` takes Tᵀ (lower) or T (upper) from
    // the triangle, and zeros in the other triangle.
    let t = wy.t;
    let mask_t = match trans {
        Trans::Trans => {
            match t {
                TriT::Square(t, ldt) => transpose(arm, nv, nv, t, ldt, tc, nv),
                TriT::Packed(_) => {
                    for i in 0..nv {
                        for (j, &x) in t.col(i).iter().enumerate() {
                            tc[i + j * nv] = x;
                        }
                    }
                }
            }
            for (j, col) in tc.chunks_exact_mut(nv).enumerate() {
                col[..j].fill(0.0);
            }
            MaskA::Lower
        }
        Trans::NoTrans => {
            for (j, col) in tc.chunks_exact_mut(nv).enumerate() {
                col[..=j].copy_from_slice(t.col(j));
                col[j + 1..].fill(0.0);
            }
            MaskA::Upper
        }
    };
    gemm_core(arm, nv, nc, nv, 1.0, tc, nv, mask_t, wa, nv, 0.0, wb, nv);
    // C −= V·W; top −= W.
    gemm_core(arm, rows, nc, nv, -1.0, wy.v, wy.ldv, wy.mask_v, wb, nv, 1.0, c, ldc);
    if let Some(top) = top {
        for (col, w) in wb.chunks_exact(nv).enumerate() {
            for (x, y) in top[col * ldc..][..nv].iter_mut().zip(w) {
                *x -= y;
            }
        }
    }
}

/// The reflectors an update kernel reads, as its caller holds them.
#[derive(Clone, Copy)]
pub(crate) enum Refl<'a> {
    /// A `b × b` factored tile: V unit lower below R (UNMQR), or the
    /// bottom of a stacked `V̂ = [I; V]` (TSMQR, TTMQR).
    Tile(&'a [f64]),
    /// GEQRT's V copy (UNMQR only): V's strict lower triangle packed
    /// column by column, [`crate::v_len`] doubles.
    Lower(&'a [f64]),
}

impl<'a> Refl<'a> {
    /// Tile rows `c + 1..b` of reflector `c`: the stored part of a GEQRT
    /// reflector.
    fn below_diagonal(self, b: usize, c: usize) -> &'a [f64] {
        match self {
            Refl::Tile(v) => &v[c + 1 + c * b..(c + 1) * b],
            Refl::Lower(v) => &v[v_col(b, c)],
        }
    }

    /// The factored tile a stacked kernel reads.
    fn tile(self) -> &'a [f64] {
        match self {
            Refl::Tile(v) => v,
            Refl::Lower(_) => unreachable!("a V copy is GEQRT's, applied by UNMQR alone"),
        }
    }
}

/// The update kernels: `C := op(Q)·C` for the Q of factored reflectors
/// `v` with T factor `t`, one [`block_apply`] per `ib` panel (forward for
/// `Trans`, backward for `NoTrans`). `top` absent: UNMQR, with `v` a
/// GEQRT's tile or V copy and `c` the tile. `top` present: `[top; c]` is
/// the stacked pair and `v` the tile holding the bottom of `V̂ = [I; V]`,
/// square (TSMQR) or upper triangular above garbage (`tri`, TTMQR).
///
/// TSMQR reads each panel's `V` where it lies and transposes it once into
/// `Vᵀ`. UNMQR and TTMQR first copy the panel's columns into `vp`, cleaned
/// of what lies beside `V` (UNMQR's zeros above the unit diagonal, the
/// garbage below TTMQR's triangle), and transpose that copy.
#[allow(clippy::too_many_arguments)]
pub(crate) fn tile_mqr(
    arm: SimdArm,
    b: usize,
    ib: usize,
    v: Refl,
    t: &[f64],
    mut top: Option<&mut [f64]>,
    c: &mut [f64],
    tri: bool,
    trans: Trans,
) {
    match v {
        Refl::Tile(v) => check_tile(b, v),
        Refl::Lower(v) => {
            assert!(top.is_none(), "a V copy is applied by UNMQR alone");
            check_v(b, v);
        }
    }
    check_t(b, ib, t);
    check_tile(b, c);
    if let Some(a1) = &top {
        check_tile(b, a1);
    }
    check_ib(b, ib);
    let stacked = top.is_some();
    SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        let mut order = panels(b, ib);
        while let Some((s, e)) =
            if trans == Trans::Trans { order.next() } else { order.next_back() }
        {
            let w = e - s;
            // V spans `rows` rows of the panel's columns: from tile row `s`
            // for UNMQR, from row 0 for a stacked pair's bottom tile.
            let rows = match (stacked, tri) {
                (false, _) => b - s,
                (true, false) => b,
                (true, true) => e,
            };
            let copy = !stacked || tri;
            let [vp, vpt, wa, wb, tc] =
                carve(&mut buf, [if copy { w * rows } else { 0 }, w * rows, w * b, w * b, w * w]);
            let (vs, ldv) = if copy {
                for (j, col) in vp.chunks_exact_mut(rows).enumerate() {
                    if stacked {
                        col.copy_from_slice(&v.tile()[(s + j) * b..][..rows]);
                        col[s + j + 1..].fill(0.0);
                    } else {
                        col[..j].fill(0.0);
                        col[j] = 1.0;
                        col[j + 1..].copy_from_slice(v.below_diagonal(b, s + j));
                    }
                }
                (&vp[..], rows)
            } else {
                (&v.tile()[s * b..], b)
            };
            transpose(arm, rows, w, vs, ldv, vpt, w);
            // A full-width triangular V is a square triangular operand the
            // gemm core can mask; a narrower panel of it is a trapezoid.
            let (mask_v, mask_vt) = match (stacked, tri) {
                (false, _) => (MaskA::Lower, MaskA::Upper),
                (true, true) if w == b => (MaskA::Upper, MaskA::Lower),
                (true, _) => (MaskA::Full, MaskA::Full),
            };
            let wy = Wy {
                rows,
                nv: w,
                v: vs,
                ldv,
                mask_v,
                vt: vpt,
                ldvt: w,
                mask_vt,
                t: TriT::Packed(&t[t_len(s, ib)..]),
            };
            let (top, c) = match top.as_deref_mut() {
                Some(a1) => (Some(&mut a1[s..]), &mut c[..]),
                None => (None, &mut c[s..]),
            };
            block_apply(arm, &wy, trans, top, c, b, b, [wa, wb, tc]);
        }
    });
}
