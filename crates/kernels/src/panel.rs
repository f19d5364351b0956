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
//! Split points depend on `(b, ib)` only, both arms accumulate in a fixed
//! order, and nothing but [`larfg`]'s rescaling guard looks at the data, so
//! a fixed arm is bitwise deterministic run-to-run.

use crate::larfg::larfg;
use crate::micro::{axpy_cols, dot_cols, gemm_core, MaskA, SimdArm};
use crate::{blocked, check_t, check_tile, t_len};
use std::cell::RefCell;

/// Widest column block factored with level-2 code: one row block of the
/// AVX2 microkernel.
const BASE: usize = 8;

thread_local! {
    /// Pack / W / T scratch of the factor kernels, grown on first use.
    static SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// QR of one tile (`bottom` absent: GEQRT) or of a triangle stacked on a
/// full (`tri` unset: TSQRT) or triangular (`tri` set: TTQRT) tile, with
/// inner block size `ib`. V, R and T are laid out as
/// [`crate::blocked`] documents.
pub(crate) fn tile_qrt(
    arm: SimdArm,
    b: usize,
    ib: usize,
    top: &mut [f64],
    mut bottom: Option<&mut [f64]>,
    tri: bool,
    t: &mut [f64],
) {
    check_tile(b, top);
    if let Some(a2) = &bottom {
        check_tile(b, a2);
    }
    check_t(b, ib, t);
    blocked::check_ib(b, ib);
    t[..t_len(b, ib)].fill(0.0);
    SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        for (s, e) in blocked::panels(b, ib) {
            let w = e - s;
            // Packed V is indexed by tile row − r0 and has `rows` rows.
            let (r0, rows) = match (&bottom, tri) {
                (None, _) => (s, b - s),
                (Some(_), false) => (0, b),
                (Some(_), true) => (0, e),
            };
            let nw = w * (b - e).max(w);
            let need = 2 * rows * w + 2 * nw + w * w;
            if buf.len() < need {
                buf.resize(need, 0.0);
            }
            let (vp, rest) = buf.split_at_mut(rows * w);
            let (vpt, rest) = rest.split_at_mut(rows * w);
            let (wa, rest) = rest.split_at_mut(nw);
            let (wb, rest) = rest.split_at_mut(nw);
            vp.fill(0.0);
            vpt.fill(0.0);
            let mut p = Panel {
                arm,
                b,
                ib,
                s,
                w,
                r0,
                rows,
                tri,
                top: &mut *top,
                bottom: bottom.as_deref_mut(),
                t: &mut *t,
                vp,
                vpt,
                wa,
                wb,
                tc: &mut rest[..w * w],
            };
            p.factor(s, e);
            p.apply(s, e, e, b);
        }
    });
}

/// One `ib` panel in flight: the tiles, the panel's T triangle, and the
/// pack-clean copies `vp` (`rows × w`) / `vpt` (`w × rows`) of the
/// reflectors generated so far, which every gemm of the panel reads.
struct Panel<'a> {
    arm: SimdArm,
    b: usize,
    /// Leading dimension of `t`.
    ib: usize,
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
        let (s, ib) = (self.s, self.ib);
        move |i, j| (i - s) + j * ib
    }

    /// Factor columns `c0..c1`, leaving R and V in the tiles, T in `t`.
    fn factor(&mut self, c0: usize, c1: usize) {
        let n = c1 - c0;
        if n <= BASE {
            return self.factor_base(c0, c1);
        }
        // Left width: half, rounded down to whole microkernel row blocks.
        let mid = c0 + (n / 2 / BASE * BASE).max(BASE);
        self.factor(c0, mid);
        self.apply(c0, mid, mid, c1);
        self.factor(mid, c1);
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
        self.pack(c0, c1);
        // T of the block from its Gram matrix G = VᵀV:
        // T[c0..j, j] = −τ_j · T[c0..j, c0..j] · G[c0..j, j].
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

    /// Copy reflectors `c0..c1` from the tiles into `vp` / `vpt`.
    fn pack(&mut self, c0: usize, c1: usize) {
        for j in c0..c1 {
            let (lo, hi) = self.vtail(j);
            let tail = match &self.bottom {
                Some(a2) => &a2[..],
                None => {
                    let (pv, pvt) = self.packed(j, j);
                    self.vp[pv] = 1.0;
                    self.vpt[pvt] = 1.0;
                    &self.top[..]
                }
            };
            let col = &tail[lo + j * self.b..hi + j * self.b];
            let (r, c) = (lo - self.r0, j - self.s);
            blocked::pack_column(self.vp, self.rows, self.vpt, self.w, r, c, col);
        }
    }

    /// `C := (I − V·T·Vᵀ)ᵀ·C` for the reflectors `c0..c1` and the stacked
    /// columns `n0..n1` to their right.
    fn apply(&mut self, c0: usize, c1: usize, n0: usize, n1: usize) {
        let (arm, b, tix) = (self.arm, self.b, self.t_index());
        let (nv, nc) = (c1 - c0, n1 - n0);
        if nc == 0 {
            return;
        }
        let (lo, hi) = self.span(c0, c1);
        let (pv, pvt) = self.packed(lo, c0);
        let stacked = self.bottom.is_some();
        let (wa, wb) = (&mut self.wa[..nv * nc], &mut self.wb[..nv * nc]);
        // W = Vᵀ·C: the e_j rows of a stacked V̂ are rows c0..c1 of A1.
        let (mask_vt, mask_v, beta) = if stacked {
            for (col, wcol) in wa.chunks_exact_mut(nv).enumerate() {
                wcol.copy_from_slice(&self.top[c0 + (n0 + col) * b..][..nv]);
            }
            (MaskA::Full, MaskA::Full, 1.0)
        } else {
            (MaskA::Upper, MaskA::Lower, 0.0)
        };
        let tail = match self.bottom.as_deref_mut() {
            Some(a2) => a2,
            None => &mut *self.top,
        };
        let c = &mut tail[lo + n0 * b..];
        gemm_core(arm, nv, nc, hi - lo, 1.0, &self.vpt[pvt..], self.w, mask_vt, c, b, beta, wa, nv);
        // W := Tᵀ·W.
        let tc = &mut self.tc[..nv * nv];
        tc.fill(0.0);
        for j in 0..nv {
            for i in 0..=j {
                tc[j + i * nv] = self.t[tix(c0 + i, c0 + j)];
            }
        }
        gemm_core(arm, nv, nc, nv, 1.0, tc, nv, MaskA::Lower, wa, nv, 0.0, wb, nv);
        // C −= V·W.
        gemm_core(arm, hi - lo, nc, nv, -1.0, &self.vp[pv..], self.rows, mask_v, wb, nv, 1.0, c, b);
        if stacked {
            for (col, wcol) in wb.chunks_exact(nv).enumerate() {
                for (x, wv) in self.top[c0 + (n0 + col) * b..][..nv].iter_mut().zip(wcol) {
                    *x -= wv;
                }
            }
        }
    }

    /// `T[c0..mid, mid..c1] = −T1·(V1ᵀV2)·T2`.
    fn merge_t(&mut self, c0: usize, mid: usize, c1: usize) {
        let (arm, ib, tix) = (self.arm, self.ib, self.t_index());
        let (n1, n2) = (mid - c0, c1 - mid);
        // Rows on which both halves can be nonzero.
        let (lo, hi) = (self.span(mid, c1).0, self.span(c0, mid).1);
        let ((_, pvt), (pv, _)) = (self.packed(lo, c0), self.packed(lo, mid));
        let (wa, wb) = (&mut self.wa[..n1 * n2], &mut self.wb[..n1 * n2]);
        let (vt, v) = (&self.vpt[pvt..], &self.vp[pv..]);
        gemm_core(arm, n1, n2, hi - lo, 1.0, vt, self.w, MaskA::Full, v, self.rows, 0.0, wa, n1);
        let (t1, t2) = (&self.t[tix(c0, c0)..], &self.t[tix(mid, mid)..]);
        gemm_core(arm, n1, n2, n1, 1.0, t1, ib, MaskA::Upper, wa, n1, 0.0, wb, n1);
        // T2's strict lower triangle in `t` is zero, so a full product is exact.
        gemm_core(arm, n1, n2, n2, -1.0, wb, n1, MaskA::Full, t2, ib, 0.0, wa, n1);
        for (j, col) in wa.chunks_exact(n1).enumerate() {
            let at = tix(c0, mid + j);
            self.t[at..at + n1].copy_from_slice(col);
        }
    }
}
