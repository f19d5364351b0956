//! Task DAG for applying op(Q) of a completed factorization to a tiled
//! matrix C — the DPLASMA `unmqr`/`ungqr` counterpart.
//!
//! The factored tiles (V blocks) and T factors are immutable inputs here,
//! so dependencies arise only from the C tiles: per trailing column `jc`,
//! the update kernels touching rows (piv, i) chain in elimination order
//! (or reverse order when applying Q). Distinct columns of C are fully
//! independent — exactly the parallelism a runtime exploits when building
//! Q "by applying the reverse trees to the identity" (§V-A).

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;

use crossbeam_deque::{Injector, Stealer, Worker};

use crate::elim::ElimOp;
use crate::exec::{relock, worker_loop, TFactors};
use hqr_kernels::{run_kernel, KernelKind, Trans};
use hqr_tile::TiledMatrix;

/// One kernel application in the apply-Q DAG.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ApplyTask {
    /// Apply row `i`'s GEQRT reflectors to C(i, jc).
    Geqrt { k: u16, i: u16, jc: u16 },
    /// Apply a kill's stacked reflectors to C(piv, jc) / C(i, jc).
    Kill { k: u16, i: u16, piv: u16, jc: u16, ts: bool },
}

/// The apply-Q DAG: tasks in a valid topological order plus CSR edges.
pub struct ApplyGraph {
    tasks: Vec<ApplyTask>,
    succ_off: Vec<u32>,
    succ: Vec<u32>,
    in_degree: Vec<u32>,
}

impl ApplyGraph {
    /// Build the DAG applying op(Q) of the factorization described by
    /// `ops` (panel-major elimination list) to an `mt × ntc` tiled C.
    pub fn build(mt: usize, kmax: usize, ntc: usize, ops: &[ElimOp], trans: Trans) -> Self {
        // Panel-grouped view.
        let mut by_panel: Vec<Vec<&ElimOp>> = vec![Vec::new(); kmax];
        for o in ops {
            by_panel[o.k as usize].push(o);
        }
        let mut tasks: Vec<ApplyTask> = Vec::new();
        let mut tri = vec![false; mt];
        let panel_order: Vec<usize> = match trans {
            Trans::Trans => (0..kmax).collect(),
            Trans::NoTrans => (0..kmax).rev().collect(),
        };
        for &k in &panel_order {
            tri[k..mt].fill(false);
            tri[k] = true;
            for o in &by_panel[k] {
                tri[o.killer as usize] = true;
                if !o.ts {
                    tri[o.victim as usize] = true;
                }
            }
            let geqrts = |tasks: &mut Vec<ApplyTask>, tri: &[bool]| {
                for (i, &is_tri) in tri.iter().enumerate().take(mt).skip(k) {
                    if is_tri {
                        for jc in 0..ntc {
                            tasks.push(ApplyTask::Geqrt {
                                k: k as u16,
                                i: i as u16,
                                jc: jc as u16,
                            });
                        }
                    }
                }
            };
            let kills = |tasks: &mut Vec<ApplyTask>, reverse: bool| {
                let mut panel: Vec<&&ElimOp> = by_panel[k].iter().collect();
                if reverse {
                    panel.reverse();
                }
                for o in panel {
                    for jc in 0..ntc {
                        tasks.push(ApplyTask::Kill {
                            k: k as u16,
                            i: o.victim as u16,
                            piv: o.killer as u16,
                            jc: jc as u16,
                            ts: o.ts,
                        });
                    }
                }
            };
            match trans {
                Trans::Trans => {
                    geqrts(&mut tasks, &tri);
                    kills(&mut tasks, false);
                }
                Trans::NoTrans => {
                    kills(&mut tasks, true);
                    geqrts(&mut tasks, &tri);
                }
            }
        }
        // Data-flow edges: last writer per C tile.
        const NONE: u32 = u32::MAX;
        let n = tasks.len();
        let mut out_deg = vec![0u32; n];
        let mut in_degree = vec![0u32; n];
        let touched = |t: &ApplyTask| -> (usize, Option<usize>, usize) {
            match *t {
                ApplyTask::Geqrt { i, jc, .. } => (i as usize, None, jc as usize),
                ApplyTask::Kill { i, piv, jc, .. } => (i as usize, Some(piv as usize), jc as usize),
            }
        };
        for pass in 0..2 {
            let mut writer = vec![NONE; mt * ntc];
            let mut cursor: Vec<u32> = if pass == 1 {
                let mut off = vec![0u32; n + 1];
                for i in 0..n {
                    off[i + 1] = off[i] + out_deg[i];
                }
                off[..n].to_vec()
            } else {
                Vec::new()
            };
            let mut succ_build: Vec<u32> = if pass == 1 {
                vec![0u32; out_deg.iter().map(|&d| d as usize).sum()]
            } else {
                Vec::new()
            };
            for (tid, t) in tasks.iter().enumerate() {
                let (i, piv, jc) = touched(t);
                let mut preds = [NONE, NONE];
                preds[0] = writer[i + jc * mt];
                if let Some(p) = piv {
                    preds[1] = writer[p + jc * mt];
                }
                if preds[0] == preds[1] {
                    preds[1] = NONE;
                }
                for &p in preds.iter().filter(|&&p| p != NONE) {
                    if pass == 0 {
                        out_deg[p as usize] += 1;
                        in_degree[tid] += 1;
                    } else {
                        succ_build[cursor[p as usize] as usize] = tid as u32;
                        cursor[p as usize] += 1;
                    }
                }
                writer[i + jc * mt] = tid as u32;
                if let Some(p) = piv {
                    writer[p + jc * mt] = tid as u32;
                }
            }
            if pass == 1 {
                let mut succ_off = vec![0u32; n + 1];
                for i in 0..n {
                    succ_off[i + 1] = succ_off[i] + out_deg[i];
                }
                return ApplyGraph { tasks, succ_off, succ: succ_build, in_degree };
            }
        }
        unreachable!()
    }

    /// Tasks in topological (program) order.
    pub fn tasks(&self) -> &[ApplyTask] {
        &self.tasks
    }

    fn successors(&self, t: usize) -> &[u32] {
        &self.succ[self.succ_off[t] as usize..self.succ_off[t + 1] as usize]
    }
}

/// Immutable inputs of an apply-Q execution.
struct ApplySources<'f> {
    factored: &'f TiledMatrix,
    factors: &'f TFactors,
    ib: usize,
    trans: Trans,
}

struct CStore {
    b: usize,
    mt: usize,
    tiles: Vec<*mut f64>,
}
// SAFETY: exclusive-writer discipline is enforced by the apply DAG.
unsafe impl Send for CStore {}
unsafe impl Sync for CStore {}

impl CStore {
    // `&self -> &mut` is deliberate: exclusivity comes from the apply DAG,
    // not the borrow checker (see the struct-level safety invariant).
    #[allow(clippy::mut_from_ref)]
    #[inline]
    fn tile(&self, i: usize, j: usize) -> &mut [f64] {
        // SAFETY: see struct-level invariant.
        unsafe { std::slice::from_raw_parts_mut(self.tiles[i + j * self.mt], self.b * self.b) }
    }
}

fn run_apply_task(t: &ApplyTask, src: &ApplySources<'_>, c: &CStore) {
    let (b, ib, trans) = (src.factored.b(), src.ib, src.trans);
    match *t {
        ApplyTask::Geqrt { k, i, jc } => {
            let (k, i, jc) = (k as usize, i as usize, jc as usize);
            let vg = src.factors.vg(i, k).expect("GEQRT V present");
            let tg = src.factors.tg(i, k).expect("GEQRT T present");
            run_kernel(KernelKind::Unmqr, b, ib, trans, &[vg, tg], &mut [c.tile(i, jc)]);
        }
        ApplyTask::Kill { k, i, piv, jc, ts } => {
            let (k, i, piv, jc) = (k as usize, i as usize, piv as usize, jc as usize);
            let kind = if ts { KernelKind::Tsmqr } else { KernelKind::Ttmqr };
            let v2 = src.factored.tile(i, k);
            let tk = src.factors.tk(i, k).expect("kill T present");
            run_kernel(kind, b, ib, trans, &[v2, tk], &mut [c.tile(piv, jc), c.tile(i, jc)]);
        }
    }
}

/// Apply op(Q) of a factorization to `c` on `nthreads` workers.
///
/// `factored` is the factored matrix (V blocks in place), `factors` its T
/// buffers, `ops` the elimination list that produced them, `ib` the inner
/// block size used during factorization.
#[allow(clippy::too_many_arguments)]
pub fn apply_q_parallel(
    factored: &TiledMatrix,
    factors: &TFactors,
    ops: &[ElimOp],
    ib: usize,
    c: &mut TiledMatrix,
    trans: Trans,
    nthreads: usize,
) {
    assert_eq!(c.mt(), factored.mt(), "C must share the tile-row count");
    assert_eq!(c.b(), factored.b(), "tile sizes must match");
    assert!(nthreads > 0);
    let kmax = factored.mt().min(factored.nt());
    let graph = ApplyGraph::build(factored.mt(), kmax, c.nt(), ops, trans);
    let src = ApplySources { factored, factors, ib, trans };
    let store = CStore { b: c.b(), mt: c.mt(), tiles: c.tile_ptrs() };
    if nthreads == 1 {
        for t in graph.tasks() {
            run_apply_task(t, &src, &store);
        }
        return;
    }
    let n = graph.tasks().len();
    let indeg: Vec<AtomicU32> = graph.in_degree.iter().map(|&d| AtomicU32::new(d)).collect();
    let remaining = AtomicUsize::new(n);
    let injector: Injector<u32> = Injector::new();
    for (tid, &d) in graph.in_degree.iter().enumerate() {
        if d == 0 {
            injector.push(tid as u32);
        }
    }
    let workers: Vec<Worker<u32>> = (0..nthreads).map(|_| Worker::new_lifo()).collect();
    let stealers: Vec<Stealer<u32>> = workers.iter().map(|w| w.stealer()).collect();
    // A panicking kernel halts the sibling workers instead of deadlocking
    // them; the first panic is re-raised on the calling thread.
    let halt = AtomicBool::new(false);
    let panicked: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for (me, worker) in workers.into_iter().enumerate() {
            let (graph, src, store, indeg, remaining) = (&graph, &src, &store, &indeg, &remaining);
            let (injector, stealers, halt, panicked) = (&injector, &stealers, &halt, &panicked);
            scope.spawn(move || {
                worker_loop(
                    me,
                    &worker,
                    stealers,
                    |dest| injector.steal_batch_and_pop(dest),
                    || halt.load(Ordering::Acquire),
                    || remaining.load(Ordering::Acquire) == 0,
                    |tid: u32, _| {
                        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            run_apply_task(&graph.tasks[tid as usize], src, store)
                        }));
                        if let Err(payload) = run {
                            relock(panicked).get_or_insert(payload);
                            halt.store(true, Ordering::Release);
                            return ControlFlow::Break(());
                        }
                        for &s in graph.successors(tid as usize) {
                            if indeg[s as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                                worker.push(s);
                            }
                        }
                        remaining.fetch_sub(1, Ordering::AcqRel);
                        ControlFlow::Continue(())
                    },
                );
            });
        }
    });
    if let Some(payload) = panicked.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner)
    {
        std::panic::resume_unwind(payload);
    }
    assert_eq!(remaining.load(Ordering::Acquire), 0, "apply-Q deadlocked");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute_serial;
    use crate::graph::TaskGraph;

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
    fn apply_graph_is_topological_and_complete() {
        let (mt, nt, ntc) = (6usize, 3usize, 2usize);
        let ops = flat_elims(mt, nt);
        for trans in [Trans::Trans, Trans::NoTrans] {
            let g = ApplyGraph::build(mt, nt, ntc, &ops, trans);
            // One task per (GEQRT row, column) + (kill, column).
            let expected = nt * ntc + ops.len() * ntc;
            assert_eq!(g.tasks().len(), expected);
            for t in 0..g.tasks().len() {
                for &s in g.successors(t) {
                    assert!((s as usize) > t, "edge {t}->{s} backwards");
                }
            }
        }
    }

    #[test]
    fn parallel_apply_matches_serial_apply() {
        let (mt, nt, b) = (8usize, 3usize, 4usize);
        let ops = flat_elims(mt, nt);
        let graph = TaskGraph::build(mt, nt, b, &ops);
        let mut a = TiledMatrix::random(mt, nt, b, 71);
        let factors = execute_serial(&graph, &mut a);
        let c0 = TiledMatrix::random(mt, 2, b, 72);
        for trans in [Trans::Trans, Trans::NoTrans] {
            let mut c1 = c0.clone();
            let mut c4 = c0.clone();
            apply_q_parallel(&a, &factors, &ops, b, &mut c1, trans, 1);
            apply_q_parallel(&a, &factors, &ops, b, &mut c4, trans, 4);
            assert_eq!(c1.to_dense().data(), c4.to_dense().data(), "{trans:?}");
        }
    }

    #[test]
    fn parallel_apply_roundtrips() {
        let (mt, nt, b) = (6usize, 2usize, 4usize);
        let ops = flat_elims(mt, nt);
        let graph = TaskGraph::build(mt, nt, b, &ops);
        let mut a = TiledMatrix::random(mt, nt, b, 73);
        let factors = execute_serial(&graph, &mut a);
        let c0 = TiledMatrix::random(mt, 1, b, 74);
        let mut c = c0.clone();
        apply_q_parallel(&a, &factors, &ops, b, &mut c, Trans::Trans, 3);
        apply_q_parallel(&a, &factors, &ops, b, &mut c, Trans::NoTrans, 3);
        let diff = c.to_dense().sub(&c0.to_dense()).frob_norm();
        assert!(diff < 1e-11, "Q Qᵀ C != C: {diff}");
    }

    #[test]
    #[should_panic(expected = "GEQRT V present")]
    fn kernel_panic_halts_the_workers_and_reaches_the_caller() {
        // Factors of a flat TS tree hold no GEQRT reflectors below the
        // diagonal row; asking to apply a TT tree's Q from them makes the
        // first such task panic. The siblings must stop (not spin on a
        // frontier that will never drain) and the caller must see it.
        let (mt, nt, b) = (6usize, 2usize, 4usize);
        let graph = TaskGraph::build(mt, nt, b, &flat_elims(mt, nt));
        let mut a = TiledMatrix::random(mt, nt, b, 77);
        let factors = execute_serial(&graph, &mut a);
        let tt: Vec<ElimOp> =
            flat_elims(mt, nt).iter().map(|o| ElimOp { ts: false, ..*o }).collect();
        let mut c = TiledMatrix::random(mt, 2, b, 78);
        apply_q_parallel(&a, &factors, &tt, b, &mut c, Trans::Trans, 3);
    }

    #[test]
    fn columns_are_independent() {
        // Applying to a 2-column C equals applying to each column alone.
        let (mt, nt, b) = (5usize, 2usize, 3usize);
        let ops = flat_elims(mt, nt);
        let graph = TaskGraph::build(mt, nt, b, &ops);
        let mut a = TiledMatrix::random(mt, nt, b, 75);
        let factors = execute_serial(&graph, &mut a);
        let c0 = TiledMatrix::random(mt, 2, b, 76);
        let mut whole = c0.clone();
        apply_q_parallel(&a, &factors, &ops, b, &mut whole, Trans::Trans, 2);
        for col in 0..2 {
            let mut single = TiledMatrix::zeros(mt, 1, b);
            for i in 0..mt {
                single.tile_mut(i, 0).copy_from_slice(c0.tile(i, col));
            }
            apply_q_parallel(&a, &factors, &ops, b, &mut single, Trans::Trans, 2);
            for i in 0..mt {
                assert_eq!(single.tile(i, 0), whole.tile(i, col), "column {col}, row {i}");
            }
        }
    }
}
