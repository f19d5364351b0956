//! The one task→kernel dispatcher.
//!
//! Outside this crate it has two callers: the runtime's tile store, through
//! which every backend (engine, job pool, `hqr-net` worker) runs each
//! factorization and apply-Q task, and the `trees` study's kernel timer.
//! Cross-backend bitwise parity is therefore structural: there is no
//! second `match` on [`KernelKind`] to keep in step, and no caller picks
//! between a plain and an inner-blocked routine (`ib = b` *is* the plain
//! kernel, see [`crate::blocked`]).

use crate::blocked::{geqrt_ib, tsmqr_ib, tsqrt_ib, ttmqr_ib, ttqrt_ib, unmqr_ib};
use crate::{KernelKind, Trans};

/// Run tile kernel `kind` on `b × b` tiles with inner block size `ib`; the
/// T operand (`Tg`, `Tk`) holds [`crate::t_len`]`(b, ib)` doubles.
///
/// Operand order is the slot order of the runtime's `Task::reads()` and
/// `Task::writes()`:
///
/// | kind | `reads` | `writes` |
/// |---|---|---|
/// | `Geqrt` | — | A (→ R\V), Vg (copy of the factored tile), Tg |
/// | `Unmqr` | Vg, Tg | C |
/// | `Tsqrt` / `Ttqrt` | — | A(piv) (R), A(victim) (→ V2), Tk |
/// | `Tsmqr` / `Ttmqr` | V2, Tk | C(piv), C(victim) |
///
/// GEQRT copies the factored tile out to `Vg` so UNMQRs can read V while
/// kill kernels rewrite the tile's R part (the logical V/R tile split of
/// the DAG). `trans` selects op(Q) for the update kernels (`Trans` during
/// a factorization) and is ignored by the factor kernels.
///
/// # Panics
/// When the operand counts do not match `kind`, or a tile is not `b * b`
/// long, or a T is shorter than `t_len(b, ib)`, or `ib` is outside `1..=b`
/// — caller bugs, not input errors.
pub fn run_kernel(
    kind: KernelKind,
    b: usize,
    ib: usize,
    trans: Trans,
    reads: &[&[f64]],
    writes: &mut [&mut [f64]],
) {
    match (kind, reads, writes) {
        (KernelKind::Geqrt, [], [a, vg, tg]) => {
            geqrt_ib(b, ib, a, tg);
            vg.copy_from_slice(a);
        }
        (KernelKind::Unmqr, [v, t], [c]) => unmqr_ib(b, ib, v, t, c, trans),
        (KernelKind::Tsqrt, [], [a1, a2, t]) => tsqrt_ib(b, ib, a1, a2, t),
        (KernelKind::Ttqrt, [], [a1, a2, t]) => ttqrt_ib(b, ib, a1, a2, t),
        (KernelKind::Tsmqr, [v2, t], [a1, a2]) => tsmqr_ib(b, ib, v2, t, a1, a2, trans),
        (KernelKind::Ttmqr, [v2, t], [a1, a2]) => ttmqr_ib(b, ib, v2, t, a1, a2, trans),
        (_, reads, writes) => {
            panic!("{kind:?} called with {} read and {} write operands", reads.len(), writes.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{geqrt, t_len, tsmqr, tsqrt};
    use hqr_tile::DenseMatrix;

    fn tile(b: usize, seed: u64) -> Vec<f64> {
        DenseMatrix::random(b, b, seed).data().to_vec()
    }

    #[test]
    fn geqrt_copies_the_factored_tile_to_vg() {
        let b = 8;
        let (mut a, mut vg) = (tile(b, 1), vec![0.0; b * b]);
        let (mut tg, mut pa, mut pt) = (vec![0.0; t_len(b, b)], a.clone(), vec![0.0; t_len(b, b)]);
        run_kernel(KernelKind::Geqrt, b, b, Trans::Trans, &[], &mut [&mut a, &mut vg, &mut tg]);
        geqrt(b, &mut pa, &mut pt);
        assert_eq!(a, pa);
        assert_eq!(vg, pa);
        assert_eq!(tg, pt);
    }

    #[test]
    fn update_operands_follow_reads_then_writes_order() {
        let b = 8;
        let mut top = tile(b, 2);
        for j in 0..b {
            top[j + 1 + j * b..(j + 1) * b].fill(0.0);
        }
        let (mut bot, mut t) = (tile(b, 3), vec![0.0; t_len(b, b)]);
        tsqrt(b, &mut top, &mut bot, &mut t);
        let (mut c1, mut c2) = (tile(b, 4), tile(b, 5));
        let (mut p1, mut p2) = (c1.clone(), c2.clone());
        run_kernel(KernelKind::Tsmqr, b, b, Trans::Trans, &[&bot, &t], &mut [&mut c1, &mut c2]);
        tsmqr(b, &bot, &t, &mut p1, &mut p2, Trans::Trans);
        assert_eq!((c1, c2), (p1, p2));
    }

    #[test]
    #[should_panic(expected = "Unmqr called with 0 read and 1 write operands")]
    fn wrong_operand_count_panics() {
        let mut c = vec![0.0; 4];
        run_kernel(KernelKind::Unmqr, 2, 2, Trans::Trans, &[], &mut [&mut c]);
    }
}
