//! Shared tile storage for concurrent kernel execution.
//!
//! The DAG guarantees exclusive-writer discipline: two tasks may only touch
//! the same buffer concurrently if both only read it. The executor therefore
//! hands kernels plain `&mut [f64]` views manufactured from raw pointers;
//! the safety argument is the data-flow construction in [`crate::graph`]
//! (every read and every write of a slot is ordered after the slot's last
//! writer). This is precisely the contract DAGuE's runtime relies on.
//!
//! The store has three backings:
//!
//! * **Resident** (the default): a flat pointer table over buffers that
//!   stay allocated for the whole run — zero per-access overhead.
//! * **Paged**: buffers live in a two-tier cache ([`crate::spill`]): a
//!   resident working set bounded by a byte budget, evicted by furthest
//!   next use over the task graph's program order and refilled by a
//!   prefetcher walking the same order, and a spill file for the rest.
//!   That is why [`TileStore::open`] takes the graph: residency is decided
//!   from the schedule, not from past accesses. The executor pins every
//!   slot a task touches ([`TileStore::pin_task`]) before running it —
//!   faulting misses in from disk — and releases the pins when the
//!   attempt ends, so kernels still see plain stable `&mut [f64]` views
//!   and the factorization stays bitwise identical to the resident run.
//! * **Shard**: an `hqr-net` worker's slot map ([`Shard`]); a buffer's
//!   address is stable while its slot is present. It allocates nothing:
//!   the worker puts every buffer a task touches in the map first.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::exec::{factor_slots, relock, TFactors};
use crate::fault::{SdcFault, SdcPattern, SDC_SCALE_FACTOR};
use crate::graph::TaskGraph;
use crate::lineage::Slot;
use crate::spill::{PagedStore, SpillSummary};
use crate::task::{SlotFamily, Task};
use hqr_kernels::{run_kernel, Trans};
use hqr_tile::TiledMatrix;

/// Raw-pointer view over the matrix tiles and the factor buffers.
pub struct TileStore {
    b: usize,
    /// Inner block size the kernels run with (`ib == b`: one panel).
    ib: usize,
    mt: usize,
    a: Vec<*mut f64>,
    vg: Vec<*mut f64>,
    tg: Vec<*mut f64>,
    tk: Vec<*mut f64>,
    /// Two-tier backing cache; `None` in resident mode (the pointer
    /// tables above are empty when this is `Some`).
    paged: Option<PagedStore>,
    /// A worker's slot map; the pointer tables are empty when this is
    /// `Some`.
    shard: Option<Arc<Shard>>,
}

/// An `hqr-net` worker's shard: every slot version it currently holds.
pub type Shard = Mutex<HashMap<Slot, Box<[f64]>>>;

/// What a paged store knows of the run it serves: residency is decided from
/// the schedule, not from past accesses.
pub struct RunPlan<'a> {
    /// The DAG being executed.
    pub graph: &'a TaskGraph,
    /// Tasks a resumed run has already done (their writes are in the
    /// buffers; they are no future use of anything).
    pub completed: Option<&'a [bool]>,
    /// The tasks this run will execute, in the order its scheduler is
    /// expected to reach them (`exec::preview_order`); "next use" is a
    /// position in this list. Only called when the store pages.
    pub order: &'a dyn Fn() -> Vec<u32>,
}

/// Pins held over every slot one task touches in a paged store; dropping
/// releases them. Carries what the pin pass observed for the executor's
/// per-worker counters.
pub struct TaskPins {
    core: std::sync::Arc<crate::spill::PagedCore>,
    task: u32,
    /// Slots this task had to fault in from disk on demand.
    pub demand_faults: u64,
    /// Slots found resident because the prefetcher loaded them.
    pub prefetch_hits: u64,
    /// Evictions (spills) triggered to make room for this task's slots.
    pub evictions: u64,
}

impl Drop for TaskPins {
    fn drop(&mut self) {
        self.core.unpin_task(self.task);
    }
}

// SAFETY: the store is only used by the executors, which enforce the DAG's
// exclusive-writer discipline; distinct tasks running concurrently never
// obtain overlapping mutable views.
unsafe impl Send for TileStore {}
unsafe impl Sync for TileStore {}

/// A pre-execution copy of one task's tile write-set (see
/// [`TileStore::snapshot`]). Holds raw pointers into the store, so it is
/// deliberately `!Send`: it lives and dies on the worker that took it.
pub struct TaskSnapshot {
    saved: Vec<(*mut f64, Box<[f64]>)>,
}

impl TaskSnapshot {
    /// Number of tile buffers captured.
    pub fn tiles(&self) -> usize {
        self.saved.len()
    }
}

fn ptrs(v: &mut [Option<Box<[f64]>>]) -> Vec<*mut f64> {
    v.iter_mut().map(|o| o.as_mut().map_or(std::ptr::null_mut(), |b| b.as_mut_ptr())).collect()
}

/// [`ptrs`] of buffers the run only reads: derived from a shared borrow,
/// so nothing may ever be written through them.
fn read_only_ptrs(v: &[Option<Box<[f64]>>]) -> Vec<*mut f64> {
    v.iter().map(|o| o.as_ref().map_or(std::ptr::null_mut(), |b| b.as_ptr().cast_mut())).collect()
}

/// Bytes a run of `graph` with inner block size `ib` keeps resident when
/// nothing pages: the matrix tiles plus the factor buffers its tasks write
/// (guards are negligible next to either).
pub(crate) fn working_set_bytes(graph: &TaskGraph, ib: usize) -> u64 {
    let (b, tiles) = (graph.b(), graph.mt() * graph.nt());
    let factors: usize = factor_slots(graph).map(|(fam, ..)| fam.slot_len(b, ib)).sum();
    ((tiles * SlotFamily::A.slot_len(b, ib) + factors) * std::mem::size_of::<f64>()) as u64
}

/// Whether a run of `graph` at `ib` under `resident_budget` pages: a budget
/// is set and the working set exceeds it.
pub(crate) fn pages(graph: &TaskGraph, ib: usize, resident_budget: Option<u64>) -> bool {
    resident_budget.is_some_and(|rb| rb < working_set_bytes(graph, ib))
}

impl TileStore {
    /// Build a store over a matrix and its (pre-allocated) factor buffers;
    /// the kernels run with the inner block size the factors are laid out
    /// for (`ib == b`: the unblocked kernels).
    pub fn new(a: &mut TiledMatrix, f: &mut TFactors) -> Self {
        Self::check_shapes(a, f);
        TileStore {
            b: a.b(),
            ib: f.ib,
            mt: a.mt(),
            a: a.tile_ptrs(),
            vg: ptrs(&mut f.vg),
            tg: ptrs(&mut f.tg),
            tk: ptrs(&mut f.tk),
            paged: None,
            shard: None,
        }
    }

    /// A store over a worker's `shard`, for tiles of side `b` and T factors
    /// of inner block size `ib`. Every slot a task touches must be in the
    /// map, [`SlotFamily::slot_len`] long, before the task runs, and stay
    /// there until it ends.
    pub fn over_shard(shard: Arc<Shard>, b: usize, ib: usize) -> Self {
        let none = Vec::new;
        let (a, vg, tg, tk) = (none(), none(), none(), none());
        TileStore { b, ib, mt: 0, a, vg, tg, tk, paged: None, shard: Some(shard) }
    }

    /// A store over `[factored | c]` for a [`TaskGraph::apply_q`] graph:
    /// A-table columns `< nt` are the factored tiles and the factor tables
    /// are `f`'s, which that graph's tasks only read — so both are borrowed,
    /// not copied — and columns `≥ nt` are `c`'s tiles. Only a graph whose
    /// tasks write nothing but `A` slots in columns `≥ nt` may run on it:
    /// every other pointer comes from a shared borrow.
    pub(crate) fn for_apply(factored: &TiledMatrix, f: &TFactors, c: &mut TiledMatrix) -> Self {
        Self::check_shapes(factored, f);
        assert_eq!((c.mt(), c.b()), (factored.mt(), factored.b()), "C/factored shape mismatch");
        let mt = factored.mt();
        let tile_ptr = |k: usize| factored.tile(k % mt, k / mt).as_ptr().cast_mut();
        let mut a: Vec<*mut f64> = (0..mt * factored.nt()).map(tile_ptr).collect();
        a.extend(c.tile_ptrs());
        TileStore {
            b: f.b,
            ib: f.ib,
            mt,
            a,
            vg: read_only_ptrs(&f.vg),
            tg: read_only_ptrs(&f.tg),
            tk: read_only_ptrs(&f.tk),
            paged: None,
            shard: None,
        }
    }

    /// The store the run `plan` describes should use: paged — buffers move
    /// into a two-tier cache whose resident tier is bounded by
    /// `resident_budget` bytes, the rest spilled to a checksummed file under
    /// `spill_dir` (OS temp dir when `None`) — when `pages` says so, else
    /// the flat resident store (zero per-access overhead, bitwise-identical
    /// results either way; `plan.order` is not looked at).
    ///
    /// A paged store needs no factor buffer the graph has not written yet
    /// (`f` may hold none at all) and leaves the matrix and factors hollow
    /// until [`TileStore::unpage`] returns every buffer — callers must
    /// unpage on every exit path.
    pub fn open(
        a: &mut TiledMatrix,
        f: &mut TFactors,
        plan: &RunPlan<'_>,
        resident_budget: Option<u64>,
        spill_dir: Option<&Path>,
    ) -> Result<Self, String> {
        let graph = plan.graph;
        let Some(budget) = resident_budget.filter(|_| pages(graph, f.ib, resident_budget)) else {
            return Ok(Self::new(a, f));
        };
        Self::check_shapes(a, f);
        assert_eq!((a.mt(), a.nt()), (graph.mt(), graph.nt()), "matrix/graph shape mismatch");
        let (b, ib, mt) = (a.b(), f.ib, a.mt());
        let paged = PagedStore::build(a, f, plan, budget, spill_dir)?;
        Ok(TileStore {
            b,
            ib,
            mt,
            a: Vec::new(),
            vg: Vec::new(),
            tg: Vec::new(),
            tk: Vec::new(),
            paged: Some(paged),
            shard: None,
        })
    }

    /// The conditions the raw views rely on: the matrix and factors agree
    /// on the shape, and every factor buffer holds its slot's length.
    fn check_shapes(a: &TiledMatrix, f: &TFactors) {
        assert_eq!(a.mt(), f.mt, "matrix/factor shape mismatch");
        assert_eq!(a.nt(), f.nt, "matrix/factor shape mismatch");
        assert_eq!(a.b(), f.b, "tile size mismatch");
        assert!(f.ib > 0 && f.ib <= a.b(), "inner block size must be in 1..=b");
        for (fam, family) in
            [(SlotFamily::Vg, &f.vg), (SlotFamily::Tg, &f.tg), (SlotFamily::Tk, &f.tk)]
        {
            let len = fam.slot_len(f.b, f.ib);
            assert!(family.iter().flatten().all(|buf| buf.len() == len), "{fam:?} buffer length");
        }
    }

    /// Pin every slot task `tid` of the store's graph touches, faulting
    /// evicted slots in from disk. Returns `Ok(None)` in resident mode
    /// (nothing to pin). The returned guard must stay alive for as long as
    /// the task may run, be verified, be snapshotted, or be rolled back;
    /// dropping it releases the pins.
    ///
    /// Errors are real I/O failures or at-rest checksum mismatches —
    /// fallible (not panicking) because the executor calls this outside
    /// its `catch_unwind` perimeter.
    pub fn pin_task(&self, tid: u32) -> Result<Option<TaskPins>, String> {
        let Some(paged) = &self.paged else { return Ok(None) };
        let ev = paged.core.pin_task(tid)?;
        Ok(Some(TaskPins {
            core: std::sync::Arc::clone(&paged.core),
            task: tid,
            demand_faults: ev.demand_faults,
            prefetch_hits: ev.prefetch_hits,
            evictions: ev.evictions,
        }))
    }

    /// Fault every slot back in and return ownership of all buffers to
    /// the matrix and factors, dissolving the cache. Must be called (on
    /// success *and* error paths) before `a`/`f` are used again; no-op in
    /// resident mode. On a checksum/I/O failure the affected buffers are
    /// zero-filled so `a`/`f` stay structurally whole, and the first
    /// error is returned.
    pub fn unpage(&mut self, a: &mut TiledMatrix, f: &mut TFactors) -> Result<(), String> {
        match self.paged.take() {
            Some(mut paged) => paged.unpage(a, f),
            None => Ok(()),
        }
    }

    /// Snapshot of the spill-traffic totals (paged mode only).
    pub fn spill_summary(&self) -> Option<SpillSummary> {
        self.paged.as_ref().map(|p| p.core.summary())
    }

    // The `&self -> &mut` shape is deliberate: exclusivity is established
    // by the DAG (exclusive-writer discipline), not by the borrow checker —
    // the same contract an UnsafeCell-based store would express.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    fn slice(&self, s: Slot) -> &mut [f64] {
        let ptr = self.slot_ptr(s);
        assert!(!ptr.is_null(), "kernel touched an unallocated buffer");
        // SAFETY: a slot's buffer holds `slot_len` doubles (`check_shapes`
        // asserted it of the factors; tiles and paged slots are allocated
        // that long) and is alive for the store's lifetime; exclusivity is
        // guaranteed by the caller (DAG discipline).
        unsafe { std::slice::from_raw_parts_mut(ptr, s.0.slot_len(self.b, self.ib)) }
    }

    #[inline]
    fn slot_ptr(&self, (fam, i, j): Slot) -> *mut f64 {
        if let Some(paged) = &self.paged {
            // Pinned by the executor before the task ran, so the buffer
            // is resident and its address is stable for the pin's life.
            return paged.core.resident_ptr(fam, i, j);
        }
        if let Some(shard) = &self.shard {
            // A boxed buffer does not move when the map does. Presence and
            // length are checked, not assumed (see `over_shard`).
            let buf = relock(shard).get_mut(&(fam, i, j)).map(|b| (b.as_mut_ptr(), b.len()));
            let (ptr, len) = buf.expect("a shard slot is present while its task runs");
            assert_eq!(len, fam.slot_len(self.b, self.ib), "shard slot length");
            return ptr;
        }
        let idx = i + j * self.mt;
        match fam {
            SlotFamily::A => self.a[idx],
            SlotFamily::Vg => self.vg[idx],
            SlotFamily::Tg => self.tg[idx],
            SlotFamily::Tk => self.tk[idx],
        }
    }

    /// Tile side length.
    pub fn b(&self) -> usize {
        self.b
    }

    /// Read-only view of one slot's buffer (guard computation).
    ///
    /// # Safety
    /// Same contract as [`TileStore::run_task`]: no concurrent writer of
    /// the slot, which DAG ordering of the calling task provides.
    pub(crate) unsafe fn slot_data(&self, s: Slot) -> &[f64] {
        let ptr = self.slot_ptr(s);
        assert!(!ptr.is_null(), "kernel read an unallocated buffer");
        // SAFETY: as in `slice`, minus exclusivity: a shared view, because a
        // read-only slot's pointer may come from a shared borrow.
        std::slice::from_raw_parts(ptr, s.0.slot_len(self.b, self.ib))
    }

    /// Apply a planned silent-data-corruption strike to one element of
    /// `t`'s write set: the raw `slot`/`element` picks are reduced modulo
    /// the number of written buffers that hold an element (a V copy at
    /// `b = 1` holds none) and the slot's length here, where both are known.
    ///
    /// # Safety
    /// Same contract as [`TileStore::run_task`] for `t`'s write set.
    pub(crate) unsafe fn apply_sdc(&self, t: &Task, f: &SdcFault) {
        let mut writes = t.writes();
        writes.retain(|s| s.0.slot_len(self.b, self.ib) > 0);
        let s = writes[f.slot as usize % writes.len()];
        let buf = self.slice(s);
        let x = &mut buf[f.element as usize % buf.len()];
        match f.pattern {
            SdcPattern::BitFlip(bit) => *x = f64::from_bits(x.to_bits() ^ (1u64 << (bit % 64))),
            // A zero element would make scaling a no-op; plant a tiny
            // non-zero instead so every strike really corrupts.
            SdcPattern::Scale => *x = if *x == 0.0 { 1.0e-300 } else { *x * SDC_SCALE_FACTOR },
        }
    }

    /// Copy every buffer in `t`'s write-set, so a failed (panicked)
    /// execution of `t` can be undone with [`TileStore::rollback`] before
    /// re-running it. Taken *before* the first attempt; kernels may
    /// read-modify-write their outputs, so re-execution is only idempotent
    /// from the restored state.
    ///
    /// # Safety
    /// Same contract as [`TileStore::run_task`]: no concurrent task may
    /// touch `t`'s write set — which DAG order provides, since `t` has not
    /// completed.
    pub unsafe fn snapshot(&self, t: &Task) -> TaskSnapshot {
        let saved = t
            .writes()
            .into_iter()
            .map(|s| {
                let buf = self.slice(s);
                (buf.as_mut_ptr(), buf.to_vec().into_boxed_slice())
            })
            .collect();
        TaskSnapshot { saved }
    }

    /// Restore the buffers captured by [`TileStore::snapshot`].
    ///
    /// # Safety
    /// Same contract as [`TileStore::snapshot`], with `snap` taken from
    /// this store.
    pub unsafe fn rollback(&self, snap: &TaskSnapshot) {
        for (p, data) in &snap.saved {
            std::ptr::copy_nonoverlapping(data.as_ptr(), *p, data.len());
        }
    }

    /// Execute one kernel task against the store: gather the task's
    /// operands in [`Task::reads`] / [`Task::writes`] order and hand them to
    /// the one kernel dispatcher, [`hqr_kernels::run_kernel`], applying
    /// reflectors in direction `trans` (its graph's [`TaskGraph::trans`]).
    ///
    /// # Safety
    /// The caller must guarantee that no other thread concurrently executes
    /// a task whose read/write set overlaps this task's write set — which is
    /// exactly what executing tasks in DAG order provides.
    pub unsafe fn run_task(&self, t: &Task, trans: Trans) {
        // SAFETY: the caller's contract rules out concurrent writers of any
        // slot gathered here, and a task's read and write slots are pairwise
        // distinct, so the views never alias each other either.
        let reads: Vec<&[f64]> = t.reads().into_iter().map(|s| self.slot_data(s)).collect();
        let mut writes: Vec<&mut [f64]> = t.writes().into_iter().map(|s| self.slice(s)).collect();
        run_kernel(t.kind, self.b, self.ib, trans, &reads, &mut writes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elim::ElimOp;
    use crate::graph::TaskGraph;

    #[test]
    fn snapshot_rollback_restores_write_set() {
        let (mt, nt, b) = (2, 2, 3);
        let elims = vec![ElimOp::new(0, 1, 0, true)];
        let g = TaskGraph::build(mt, nt, b, &elims);
        let mut a = TiledMatrix::random(mt, nt, b, 5);
        let before = a.to_dense();
        let mut f = TFactors::allocate_for(&g, b);
        let store = TileStore::new(&mut a, &mut f);
        for t in g.tasks() {
            // SAFETY: single-threaded, topological order.
            unsafe {
                let snap = store.snapshot(t);
                assert_eq!(snap.tiles(), t.writes().len());
                store.run_task(t, Trans::Trans);
                store.rollback(&snap);
                // Rolling back before "completion" must restore the exact
                // pre-task bytes, so re-running is idempotent.
                let again = store.snapshot(t);
                store.run_task(t, Trans::Trans);
                store.rollback(&again);
                store.run_task(t, Trans::Trans);
            }
        }
        drop(store);
        // One clean execution of the same graph must match bitwise.
        let mut a2 = TiledMatrix::from_dense(&before, b);
        let _ = crate::exec::execute_serial(&g, &mut a2);
        assert_eq!(a.to_dense().data(), a2.to_dense().data());
    }

    /// A store over a worker's shard runs a DAG to the serial reference's
    /// bits, and a slot that is missing or misfit when its task runs is a
    /// panic (which `DagRun::attempt` turns into a typed error), never a
    /// view of the wrong length, and it leaves the shard's lock usable.
    #[test]
    fn shard_backing_matches_serial_and_checks_its_slots() {
        let (mt, nt, b, ib) = (3, 2, 4, 2);
        let g =
            TaskGraph::build(mt, nt, b, &[ElimOp::new(0, 1, 0, true), ElimOp::new(0, 2, 0, false)]);
        let input = TiledMatrix::random(mt, nt, b, 11);
        let mut a = input.clone();
        let f = crate::exec::execute_serial_ib(&g, &mut a, ib);
        let shard: Arc<Shard> = Arc::default();
        let mut map = shard.lock().unwrap();
        for (i, j) in (0..mt).flat_map(|i| (0..nt).map(move |j| (i, j))) {
            map.insert((SlotFamily::A, i, j), input.tile(i, j).into());
        }
        for (fam, i, k) in factor_slots(&g) {
            map.insert((fam, i, k), vec![0.0; fam.slot_len(b, ib)].into());
        }
        drop(map);
        let store = TileStore::over_shard(Arc::clone(&shard), b, ib);
        for t in g.tasks() {
            // SAFETY: single-threaded, topological order.
            unsafe { store.run_task(t, Trans::Trans) };
        }
        let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let map = shard.lock().unwrap();
        for (&(fam, i, j), buf) in map.iter() {
            let want = f.slot(fam, i, j).unwrap_or_else(|| a.tile(i, j));
            assert_eq!(bits(buf), bits(want), "{fam:?}({i},{j})");
        }
        drop(map);
        let geqrt = &g.tasks()[0];
        for misfit in [None, Some(vec![0.0; b * b - 1].into_boxed_slice())] {
            let mut map = shard.lock().unwrap();
            map.remove(&(SlotFamily::A, 0, 0));
            map.extend(misfit.map(|buf| ((SlotFamily::A, 0, 0), buf)));
            drop(map);
            // SAFETY: single-threaded; the slot check panics before any view.
            let run = || unsafe { store.run_task(geqrt, Trans::Trans) };
            assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).is_err());
        }
        assert!(!shard.is_poisoned());
    }
}
