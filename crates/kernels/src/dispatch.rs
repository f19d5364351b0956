//! The one task→kernel dispatcher.
//!
//! Outside this crate it has two callers: the runtime's tile store, through
//! which every backend (engine, job pool, `hqr-net` worker) runs each
//! factorization and apply-Q task, and the `trees` study's kernel timer.
//! Cross-backend bitwise parity is therefore structural: there is no
//! second `match` on [`KernelKind`] to keep in step, and no caller picks
//! between a plain and an inner-blocked routine (`ib = b` *is* the plain
//! kernel, see [`crate::blocked`]).

use crate::blocked::{geqrt_ib, tsmqr_ib, tsqrt_ib, ttmqr_ib, ttqrt_ib};
use crate::micro::simd_arm;
use crate::panel::{tile_mqr, Refl};
use crate::{check_v, pack_v, KernelKind, Trans};

/// Run tile kernel `kind` on `b × b` tiles with inner block size `ib`; the
/// T operand (`Tg`, `Tk`) holds [`crate::t_len`]`(b, ib)` doubles and the
/// V copy (`Vg`) [`crate::v_len`]`(b)`. UNMQR's V operand may instead be
/// the whole `b × b` factored tile, as the public [`crate::unmqr`] takes
/// it: the two lengths differ at every `b ≥ 1`.
///
/// Operand order is the slot order of the runtime's `Task::reads()` and
/// `Task::writes()`:
///
/// | kind | `reads` | `writes` |
/// |---|---|---|
/// | `Geqrt` | — | A (→ R\V), Vg (copy of V), Tg |
/// | `Unmqr` | Vg, Tg | C |
/// | `Tsqrt` / `Ttqrt` | — | A(piv) (R), A(victim) (→ V2), Tk |
/// | `Tsmqr` / `Ttmqr` | V2, Tk | C(piv), C(victim) |
///
/// GEQRT copies V's strict lower triangle out to `Vg`, column by column
/// ([`crate::pack_v`]), so UNMQRs can read V while kill kernels rewrite the
/// tile's R part (the logical V/R tile split of the DAG); UNMQR here reads
/// that copy during a factorization, and the factored tile itself when Q
/// is applied afterwards (both give the same bits). `trans`
/// selects op(Q) for the update kernels (`Trans` during a factorization)
/// and is ignored by the factor kernels.
///
/// # Panics
/// When the operand counts do not match `kind`, or a tile is not `b * b`
/// long, or a V copy not `v_len(b)` (UNMQR: nor `b * b`), or a T is
/// shorter than `t_len(b, ib)`,
/// or `ib` is outside `1..=b` — caller bugs, not input errors.
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
            check_v(b, vg);
            geqrt_ib(b, ib, a, tg);
            pack_v(b, a, vg);
        }
        (KernelKind::Unmqr, [v, t], [c]) => {
            let v = if v.len() == b * b { Refl::Tile(v) } else { Refl::Lower(v) };
            tile_mqr(simd_arm(), b, ib, v, t, None, c, false, trans)
        }
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
    use crate::blocked::unmqr_ib;
    use crate::{geqrt, t_len, tsmqr, tsqrt, v_len};
    use hqr_tile::DenseMatrix;

    fn tile(b: usize, seed: u64) -> Vec<f64> {
        DenseMatrix::random(b, b, seed).data().to_vec()
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn geqrt_copies_the_strict_lower_triangle_to_vg() {
        let b = 8;
        let (mut a, mut vg) = (tile(b, 1), vec![0.0; v_len(b)]);
        let (mut tg, mut pa, mut pt) = (vec![0.0; t_len(b, b)], a.clone(), vec![0.0; t_len(b, b)]);
        run_kernel(KernelKind::Geqrt, b, b, Trans::Trans, &[], &mut [&mut a, &mut vg, &mut tg]);
        geqrt(b, &mut pa, &mut pt);
        assert_eq!(a, pa);
        assert_eq!(tg, pt);
        let lower: Vec<f64> =
            pa.chunks_exact(b).enumerate().flat_map(|(j, col)| col[j + 1..].to_vec()).collect();
        assert_eq!(vg, lower);
    }

    /// UNMQR on a V copy, and on the whole factored tile, give the bits of
    /// the public UNMQR on that tile, for every `ib`, both ways, at a
    /// ragged `b` and at `b = 1` (an empty copy).
    #[test]
    fn unmqr_on_the_v_copy_matches_unmqr_on_the_tile() {
        for (b, ibs) in [(9, &[1, 2, 4, 9][..]), (1, &[1][..])] {
            for &ib in ibs {
                let (mut a, mut vg, mut tg) =
                    (tile(b, 6), vec![0.0; v_len(b)], vec![0.0; t_len(b, ib)]);
                run_kernel(
                    KernelKind::Geqrt,
                    b,
                    ib,
                    Trans::Trans,
                    &[],
                    &mut [&mut a, &mut vg, &mut tg],
                );
                for trans in [Trans::Trans, Trans::NoTrans] {
                    let (mut c, mut on_tile, mut want) = (tile(b, 7), tile(b, 7), tile(b, 7));
                    run_kernel(KernelKind::Unmqr, b, ib, trans, &[&vg, &tg], &mut [&mut c]);
                    run_kernel(KernelKind::Unmqr, b, ib, trans, &[&a, &tg], &mut [&mut on_tile]);
                    unmqr_ib(b, ib, &a, &tg, &mut want, trans);
                    assert_eq!(bits(&c), bits(&want), "b = {b}, ib = {ib}, {trans:?}");
                    assert_eq!(bits(&on_tile), bits(&want), "tile, b = {b}, ib = {ib}, {trans:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "a V copy must be v_len(4) = 6 elements, got 16")]
    fn a_tile_sized_v_copy_panics() {
        let (mut a, mut vg, mut tg) = (tile(4, 8), vec![0.0; 16], vec![0.0; t_len(4, 4)]);
        run_kernel(KernelKind::Geqrt, 4, 4, Trans::Trans, &[], &mut [&mut a, &mut vg, &mut tg]);
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
