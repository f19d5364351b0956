//! Lineage re-execution: rebuilding lost tile state from the DAG.
//!
//! When a distributed worker dies, the *current* versions of the slots it
//! exclusively held die with it. Every kernel is deterministic, so any
//! slot version can be regenerated by re-executing the task that produced
//! it — provided that task's inputs are regenerated first, recursively,
//! bottoming out at the pristine input matrix. This module computes that
//! recursive set (the *rebuild closure*) and runs it on the engine over a
//! fresh copy of the input, producing bytes that are bitwise identical to
//! the lost ones (the same guarantee the checkpoint/restart path makes).
//!
//! The closure is ancestor-closed: every predecessor of a task in the set
//! is in the set, so any order the DAG allows among its tasks presents
//! every task with exactly the operand values it saw in the original run.

use crate::exec::run_engine;
use crate::fault::ExecOptions;
use crate::graph::TaskGraph;
use crate::store::packed_v;
use crate::task::SlotFamily;
use hqr_tile::TiledMatrix;
use std::collections::HashMap;

/// A tile-sized buffer coordinate: `(family, tile row, tile column)`.
pub type Slot = (SlotFamily, usize, usize);

/// Map every slot written so far to the task that wrote its *current*
/// version: among `completed` writers of a slot, the one latest in program
/// order (writers of one slot form a dependency chain, so the max-id
/// completed writer is the live version).
pub fn last_writers(graph: &TaskGraph, completed: &[bool]) -> HashMap<Slot, u32> {
    let mut out: HashMap<Slot, u32> = HashMap::new();
    for (tid, t) in graph.tasks().iter().enumerate() {
        if !completed[tid] {
            continue;
        }
        for s in t.writes() {
            out.insert(s, tid as u32); // ascending tid ⇒ last insert wins
        }
    }
    out
}

/// The tasks that must be re-executed to regenerate the current versions
/// of `lost` slots: the last completed writer of each lost slot plus all
/// of its completed ancestors, ascending (= topological) order.
///
/// Lost slots that were never written (still at their initial version)
/// contribute nothing — their bytes come straight from the input matrix.
pub fn rebuild_closure(graph: &TaskGraph, completed: &[bool], lost: &[Slot]) -> Vec<u32> {
    let writers = last_writers(graph, completed);
    let n = graph.tasks().len();
    let preds = graph.predecessor_lists();
    let mut in_set = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    for slot in lost {
        if let Some(&w) = writers.get(slot) {
            if !in_set[w as usize] {
                in_set[w as usize] = true;
                stack.push(w);
            }
        }
    }
    while let Some(t) = stack.pop() {
        for &p in &preds[t as usize] {
            if !in_set[p as usize] {
                debug_assert!(completed[p as usize], "ancestor of a completed task not completed");
                in_set[p as usize] = true;
                stack.push(p);
            }
        }
    }
    (0..n as u32).filter(|&t| in_set[t as usize]).collect()
}

/// Re-execute `closure` (an ancestor-closed set, such as
/// [`rebuild_closure`]'s) on the engine over a fresh copy of `input`, with
/// every task outside it marked done, and return the regenerated bytes of
/// each `wanted` slot. `A`-family slots the closure never writes fall
/// through to their pristine input tile; a wanted V copy is packed from
/// its factored tile, as its GEQRT made it; a wanted T is rebuilt from the
/// run's τ and the factored tile; a wanted factor slot with no writer in
/// the closure is an error (the caller asked for a version that never
/// existed), as is a task id outside the graph.
pub fn recompute_slots(
    graph: &TaskGraph,
    input: &TiledMatrix,
    ib: usize,
    closure: &[u32],
    wanted: &[Slot],
) -> Result<HashMap<Slot, Box<[f64]>>, String> {
    let tasks = graph.tasks();
    let mut done = vec![true; tasks.len()];
    let mut written = HashMap::new();
    for &tid in closure {
        let out_of_range = || format!("rebuild closure task {tid} is out of range");
        let t = tasks.get(tid as usize).ok_or_else(out_of_range)?;
        done[tid as usize] = false;
        written.extend(t.writes().into_iter().map(|s| (s, t.kind)));
    }
    let unwritten = |s: &&Slot| s.0 != SlotFamily::A && !written.contains_key(*s);
    if let Some(&(fam, i, j)) = wanted.iter().find(unwritten) {
        return Err(format!("wanted {}({i},{j}) has no writer in the closure", fam.name()));
    }
    let nthreads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let opts = ExecOptions { ib: Some(ib), nthreads, ..Default::default() };
    let mut a = input.clone();
    let (f, _, _) =
        run_engine(graph, &mut a, &opts, Some(&done), false).map_err(|e| e.to_string())?;
    let bytes = |&(fam, i, j): &Slot| -> Box<[f64]> {
        match fam {
            SlotFamily::A => a.tile(i, j).into(),
            SlotFamily::Vg => packed_v(&a, i, j),
            _ => {
                let tau = f.slot(fam, i, j).expect("the run keeps τ for every factor slot");
                let (mut t, kind) = (vec![0.0; fam.slot_len(graph.b(), ib)], written[&(fam, i, j)]);
                hqr_kernels::t_from_tau(kind, graph.b(), ib, a.tile(i, j), tau, &mut t);
                t.into()
            }
        }
    };
    Ok(wanted.iter().map(|s| (*s, bytes(s))).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elim::ElimOp;
    use crate::exec::{factor_slots, TFactors, TSet};
    use crate::store::{RunPlan, TileStore};

    /// Run the first `cut` tasks of `g` on `a` at `ib = b` and return the
    /// T of `slot` as the run holds it (`None` for a tile or a V copy).
    fn run_prefix(g: &TaskGraph, a: &mut TiledMatrix, cut: usize, slot: Slot) -> Option<Vec<f64>> {
        let store = TileStore::new(a, g.b(), TSet::zeroed(g, g.b(), factor_slots(g)));
        for t in &g.tasks()[..cut] {
            // SAFETY: single-threaded, topological order.
            unsafe { store.run_task(t, g.trans()) };
        }
        // SAFETY: no task runs.
        let t = matches!(slot.0, SlotFamily::Tg | SlotFamily::Tk)
            .then(|| unsafe { store.slot_data(slot) }.to_vec());
        t
    }

    fn flat_elims(mt: usize, nt: usize) -> Vec<ElimOp> {
        let mut v = Vec::new();
        for k in 0..mt.min(nt) {
            for i in (k + 1)..mt {
                v.push(ElimOp::new(k as u32, i as u32, k as u32, true));
            }
        }
        v
    }

    #[test]
    fn closure_is_ancestor_closed_and_sorted() {
        let (mt, nt, b) = (4, 3, 4);
        let g = TaskGraph::build(mt, nt, b, &flat_elims(mt, nt));
        let n = g.tasks().len();
        let completed = vec![true; n];
        // Lose the final state of tile (1, 2).
        let closure = rebuild_closure(&g, &completed, &[(SlotFamily::A, 1, 2)]);
        assert!(!closure.is_empty());
        assert!(closure.windows(2).all(|w| w[0] < w[1]), "not ascending");
        let in_set: Vec<bool> = {
            let mut v = vec![false; n];
            for &t in &closure {
                v[t as usize] = true;
            }
            v
        };
        for &t in &closure {
            // Every predecessor edge of a closure member lands in the set.
            for (p, &present) in in_set.iter().enumerate() {
                if g.successors(p).contains(&t) {
                    assert!(present, "predecessor {p} of {t} missing");
                }
            }
        }
    }

    #[test]
    fn never_written_slots_need_no_tasks() {
        let (mt, nt, b) = (3, 2, 4);
        let g = TaskGraph::build(mt, nt, b, &flat_elims(mt, nt));
        let completed = vec![false; g.tasks().len()];
        let closure = rebuild_closure(&g, &completed, &[(SlotFamily::A, 2, 1)]);
        assert!(closure.is_empty());
    }

    #[test]
    fn recompute_matches_full_run_bitwise() {
        let (mt, nt, b) = (4, 3, 4);
        let g = TaskGraph::build(mt, nt, b, &flat_elims(mt, nt));
        let input = TiledMatrix::random(mt, nt, b, 11);
        // Reference: full serial run.
        let mut full = input.clone();
        let n = g.tasks().len();
        let tk = run_prefix(&g, &mut full, n, (SlotFamily::Tk, 2, 1)).unwrap();
        let completed = vec![true; n];
        let wanted: Vec<Slot> = vec![
            (SlotFamily::A, 0, 0),
            (SlotFamily::A, 3, 2),
            (SlotFamily::Vg, 0, 0),
            (SlotFamily::Tk, 2, 1),
        ];
        let closure = rebuild_closure(&g, &completed, &wanted);
        let got = recompute_slots(&g, &input, b, &closure, &wanted).unwrap();
        let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got[&(SlotFamily::A, 0, 0)]), bits(full.tile(0, 0)));
        assert_eq!(bits(&got[&(SlotFamily::A, 3, 2)]), bits(full.tile(3, 2)));
        assert_eq!(bits(&got[&(SlotFamily::Vg, 0, 0)]), bits(&packed_v(&full, 0, 0)));
        assert_eq!(bits(&got[&(SlotFamily::Tk, 2, 1)]), bits(&tk));
    }

    #[test]
    fn recompute_rejects_shape_mismatch_and_bad_closure() {
        let g = TaskGraph::build(2, 2, 4, &flat_elims(2, 2));
        let wrong = TiledMatrix::random(3, 2, 4, 1);
        assert!(recompute_slots(&g, &wrong, 4, &[], &[]).is_err());
        let input = TiledMatrix::random(2, 2, 4, 1);
        let oob = vec![10_000u32];
        assert!(recompute_slots(&g, &input, 4, &oob, &[]).is_err());
        // The graph allocates Vg(0,0), but an empty closure never wrote it.
        assert!(recompute_slots(&g, &input, 4, &[], &[(SlotFamily::Vg, 0, 0)]).is_err());
    }

    #[test]
    fn a_closure_allocates_only_the_factor_slots_it_touches() {
        let (mt, nt, b) = (16, 16, 4);
        let g = TaskGraph::build(mt, nt, b, &flat_elims(mt, nt));
        let geqrt = g.tasks().iter().position(|t| t.kind == hqr_kernels::KernelKind::Geqrt);
        let geqrt = geqrt.expect("a GEQRT");
        let mut done = vec![true; g.tasks().len()];
        done[geqrt] = false;
        let a = TiledMatrix::random(mt, nt, b, 3);
        let order = Vec::new;
        let plan = RunPlan { graph: &g, completed: Some(&done), order: &order };
        let t = TSet::for_run(&plan, &a, &TFactors::allocate_for(&g, b), false);
        let (i, k) = (g.tasks()[geqrt].i as usize, g.tasks()[geqrt].k as usize);
        let held: Vec<Slot> = [(SlotFamily::Tg, &t.tg), (SlotFamily::Tk, &t.tk)]
            .into_iter()
            .flat_map(|(fam, family)| {
                let held = family.iter().enumerate().filter(|(_, buf)| buf.is_some());
                held.map(move |(at, _)| (fam, at % mt, at / mt))
            })
            .collect();
        assert_eq!(held, [(SlotFamily::Tg, i, k)]);
    }

    #[test]
    fn mid_run_loss_rebuilds_exactly() {
        // Complete a prefix, lose a slot written inside the prefix, rebuild,
        // and compare against the prefix run's actual buffer.
        let (mt, nt, b) = (5, 3, 4);
        let g = TaskGraph::build(mt, nt, b, &flat_elims(mt, nt));
        let input = TiledMatrix::random(mt, nt, b, 23);
        let n = g.tasks().len();
        let cut = n / 2;
        let mut completed = vec![false; n];
        for c in completed.iter_mut().take(cut) {
            *c = true;
        }
        let writers = last_writers(&g, &completed);
        let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for &slot in writers.keys() {
            // Run the same prefix for ground truth.
            let mut a = input.clone();
            let t = run_prefix(&g, &mut a, cut, slot);
            let closure = rebuild_closure(&g, &completed, &[slot]);
            let got = recompute_slots(&g, &input, b, &closure, &[slot]).unwrap();
            let truth: Box<[f64]> = match slot.0 {
                SlotFamily::A => a.tile(slot.1, slot.2).into(),
                SlotFamily::Vg => packed_v(&a, slot.1, slot.2),
                SlotFamily::Tg | SlotFamily::Tk => t.unwrap().into(),
            };
            assert_eq!(bits(&got[&slot]), bits(&truth), "{slot:?}");
        }
    }
}
