//! Every tile and factor buffer starts on a 64-byte cache line.
//!
//! The global allocator (`hqr_tile::heap`) carves every block of
//! `LINE_FROM` bytes or more out of a plain block at a line boundary, so a
//! kernel's 512-bit loads on a tile never straddle one line more than they
//! must. This checks the buffers the kernels actually receive: the tiles of
//! a fresh, random and cloned matrix, and the buffers a paged run faults
//! back in and hands back through `unpage`; and the τ buffers a run
//! leaves. A run's T factors are run storage, which the store drops at
//! `unpage`, so they are checked in the store
//! (`store::tests::t_factors_start_on_a_cache_line`).
//! GEQRT's V copies are scratch a run releases, so they are checked where a
//! flat store places them in its block (`VCopies::take`'s `assert!`): a
//! resident run at b = 200, where a copy is not a whole number of lines,
//! fails if one lands off a line. A paged run's or a worker's copy is a
//! block of its own. The kernels' thread-local scratch is checked where it
//! is carved (`panel::carve`'s `debug_assert!`), which these runs exercise
//! in debug builds.

use hqr::prelude::*;
use hqr_runtime::task::SlotFamily;
use hqr_runtime::{try_execute_traced, ExecOptions, TFactors, TaskGraph};
use hqr_tile::heap::{LINE, LINE_FROM};

/// `(b, ib)` pairs: the benchmark's, `serve`'s, a ragged last panel, a tiny tile.
const SHAPES: [(usize, usize); 4] = [(128, 32), (64, 64), (200, 48), (16, 4)];

fn on_line(p: &[f64]) -> bool {
    (p.as_ptr() as usize).is_multiple_of(LINE)
}

fn check_tiles(what: &str, a: &TiledMatrix) {
    for j in 0..a.nt() {
        for i in 0..a.mt() {
            let tile = a.tile(i, j);
            assert!(on_line(tile), "{what}: tile ({i}, {j}) at {:p}", tile.as_ptr());
        }
    }
}

/// Every factor buffer of at least `LINE_FROM` bytes starts on a line.
/// The only smaller ones are the τ of `b < 128` (`b` doubles each), which
/// the allocator leaves to the system's 16-byte alignment.
fn check_factors(what: &str, f: &TFactors, mt: usize, nt: usize) {
    for fam in [SlotFamily::Tg, SlotFamily::Tk] {
        for k in 0..nt {
            for i in 0..mt {
                let Some(buf) = f.slot(fam, i, k) else { continue };
                if std::mem::size_of_val(buf) < LINE_FROM {
                    assert!(f.b() < 128, "{what}: {fam:?} ({i}, {k})");
                    continue;
                }
                assert!(on_line(buf), "{what}: {fam:?} ({i}, {k}) at {:p}", buf.as_ptr());
            }
        }
    }
}

#[test]
fn tiles_and_factor_buffers_start_on_a_cache_line() {
    let (mt, nt) = (4, 2);
    for (b, ib) in SHAPES {
        let label = format!("b = {b}, ib = {ib}");
        check_tiles(&format!("{label}, zeros"), &TiledMatrix::zeros(mt, nt, b));
        let input = TiledMatrix::random(mt, nt, b, 11);
        check_tiles(&format!("{label}, random"), &input);
        check_tiles(&format!("{label}, clone"), &input.clone());

        let elims = baselines::hqr_adaptive(mt, nt, ProcessGrid::new(2, 1)).elims.to_ops();
        let graph = TaskGraph::build(mt, nt, b, &elims);
        let tile = (b * b * 8) as u64;
        let quarter = (mt as u64 * nt as u64 * tile / 4).max(tile);
        for (run, resident_budget) in [("resident", None), ("paged", Some(quarter))] {
            let opts =
                ExecOptions { nthreads: 2, ib: Some(ib), resident_budget, ..Default::default() };
            let mut a = input.clone();
            let (f, _, trace) = try_execute_traced(&graph, &mut a, &opts).expect("run");
            if resident_budget.is_some() {
                let spill = trace.spill.expect("a quarter budget pages");
                assert!(spill.evictions > 0, "{label}: the paged run evicted nothing");
            }
            let what = format!("{label}, {run} run");
            check_tiles(&what, &a);
            check_factors(&what, &f, mt, nt);
        }
    }
}
