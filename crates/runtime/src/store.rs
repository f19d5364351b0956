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
//! * **Resident** (the default): a flat pointer table over the matrix
//!   tiles and T factors, which stay allocated for the whole run — zero
//!   per-access overhead — and a table of the V copies the store owns.
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
//!
//! GEQRT's V copies (`Vg`) are scratch of the run. A copy exists from its
//! GEQRT's first access to [`TileStore::release`], which the run calls when
//! the copy's last pending reader has completed: the flat backing then
//! puts its buffer on a free list that lives as long as the store, and the
//! next GEQRT takes it from there (the buffers are places, whole cache
//! lines apart, in one block the opening thread allocates, so they
//! live in its heap, not in the workers' per-thread malloc arenas); the
//! paged backing drops the slot and never writes it back; the shard hands
//! the buffer to its worker. A run resumed from a checkpoint starts with
//! the copies its pending readers need ([`crate::exec::live_v_copies`]),
//! rebuilt from the factored tiles ([`hqr_kernels::pack_v`]), whose strict
//! lower triangles no later kernel rewrites.

use std::collections::HashMap;
use std::mem::MaybeUninit;
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::exec::{live_v_copies, relock, TFactors};
use crate::fault::{SdcFault, SdcPattern, SDC_SCALE_FACTOR};
use crate::graph::TaskGraph;
use crate::lineage::Slot;
use crate::spill::{PagedStore, SpillSummary};
use crate::task::{SlotFamily, Task};
use hqr_kernels::{run_kernel, Trans};
use hqr_tile::heap::{LINE, LINE_FROM};
use hqr_tile::TiledMatrix;

/// Raw-pointer view over the matrix tiles and the factor buffers.
pub struct TileStore {
    b: usize,
    /// Inner block size the kernels run with (`ib == b`: one panel).
    ib: usize,
    mt: usize,
    /// Doubles in a `Vg` slot: `v_len(b)`, or `b²` where the slot is the
    /// factored tile itself ([`TileStore::for_apply`]).
    v_len: usize,
    a: Vec<*mut f64>,
    tg: Vec<*mut f64>,
    tk: Vec<*mut f64>,
    /// The flat backing's V copies; `None` for the other backings and for
    /// an apply store, whose `Vg` slots are the factored tiles.
    v: Option<Mutex<VCopies>>,
    /// Two-tier backing cache; `None` in resident mode (the pointer
    /// tables above are empty when this is `Some`).
    paged: Option<PagedStore>,
    /// A worker's slot map; the pointer tables are empty when this is
    /// `Some`.
    shard: Option<Arc<Shard>>,
}

/// An `hqr-net` worker's shard: every slot version it currently holds.
pub type Shard = Mutex<HashMap<Slot, Box<[f64]>>>;

/// The V copies of a flat store. Their buffers are the places of one
/// block with room for a copy per GEQRT, allocated (not written) by the
/// thread that opens the store, so the copies live in that thread's heap
/// whichever worker makes them, and a page of the block is touched only
/// when a copy first lands there. Places are a whole number of cache lines
/// apart, so every copy starts on a line as the block does. A GEQRT's
/// first access takes the place its last released copy left free (last
/// in, first out), and a place never used only when none is free, so a
/// run touches as many places as it holds copies at once.
struct VCopies {
    /// A place is zeroed before its first use, so no copy is read
    /// uninitialised.
    block: Vec<MaybeUninit<f64>>,
    /// Doubles between places: `v_len(b)` rounded up to whole lines.
    stride: usize,
    /// The place of each GEQRT slot's copy, while it is held.
    live: Vec<Option<usize>>,
    /// Released places, and the first place never used.
    free: Vec<usize>,
    unused: usize,
}

impl VCopies {
    fn new(slots: usize, places: usize, len: usize) -> Self {
        let stride = len.next_multiple_of(LINE / std::mem::size_of::<f64>());
        // Not zeroed up front, which raised peak RSS (DESIGN.md, "V copies
        // are run scratch"): `take` zeroes a place on its first use.
        let block = Box::<[f64]>::new_uninit_slice(places * stride).into_vec();
        VCopies { block, stride, live: vec![None; slots], free: Vec::new(), unused: 0 }
    }

    /// Take a place for slot `idx`'s copy: a released one, else one never
    /// used, zeroed. A copy of [`LINE_FROM`] bytes or more starts on a line.
    fn take(&mut self, idx: usize) -> *mut f64 {
        debug_assert!(self.live[idx].is_none(), "a V copy held twice");
        let (place, fresh) = match self.free.pop() {
            Some(place) => (place, false),
            None => (self.unused, true),
        };
        assert!((place + 1) * self.stride <= self.block.len(), "more V copies than GEQRTs");
        self.unused += usize::from(fresh);
        self.live[idx] = Some(place);
        let at = self.at(place);
        if fresh {
            // SAFETY: the place lies in the block, and nobody holds it.
            unsafe { at.write_bytes(0, self.stride) };
        }
        let small = self.stride * std::mem::size_of::<f64>() < LINE_FROM;
        assert!(small || (at as usize).is_multiple_of(LINE), "V copy at {at:p} is off a line");
        at
    }

    /// The start of `place`, which lies inside the block.
    fn at(&mut self, place: usize) -> *mut f64 {
        // SAFETY: every place passed here was checked by `take` to end
        // inside the block; `Vec::as_mut_ptr` makes no reference to the
        // block, so the pointers other tasks hold stay valid.
        unsafe { self.block.as_mut_ptr().add(place * self.stride).cast() }
    }

    /// Slot `idx`'s buffer; a write's first access takes a place for it.
    /// Null for a read of a copy nobody wrote.
    fn ptr(&mut self, idx: usize, write: bool) -> *mut f64 {
        match self.live[idx] {
            Some(place) => self.at(place),
            None if write => self.take(idx),
            None => std::ptr::null_mut(),
        }
    }

    fn release(&mut self, idx: usize) {
        if let Some(place) = self.live[idx].take() {
            self.free.push(place);
        }
    }
}

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

/// Bytes a run of `graph` with inner block size `ib` may keep resident
/// when nothing pages: the matrix tiles plus the factor buffers its tasks
/// write, V copies counted as if all were held at once (guards are
/// negligible next to either).
pub(crate) fn working_set_bytes(graph: &TaskGraph, ib: usize) -> u64 {
    let (b, tiles) = (graph.b(), graph.mt() * graph.nt());
    let written = graph.tasks().iter().flat_map(Task::writes).filter(|s| s.0 != SlotFamily::A);
    let factors: usize = written.map(|(fam, ..)| fam.slot_len(b, ib)).sum();
    ((tiles * SlotFamily::A.slot_len(b, ib) + factors) * std::mem::size_of::<f64>()) as u64
}

/// Whether a run of `graph` at `ib` under `resident_budget` pages: a budget
/// is set and the working set exceeds it.
pub(crate) fn pages(graph: &TaskGraph, ib: usize, resident_budget: Option<u64>) -> bool {
    resident_budget.is_some_and(|rb| rb < working_set_bytes(graph, ib))
}

impl TileStore {
    /// Build a store over a matrix and its (pre-allocated) T factors, for
    /// a run from the start; the kernels run with the inner block size the
    /// factors are laid out for (`ib == b`: the unblocked kernels).
    pub fn new(a: &mut TiledMatrix, f: &mut TFactors) -> Self {
        Self::check_shapes(a, f);
        let (b, mt, v_len) = (a.b(), a.mt(), SlotFamily::Vg.slot_len(a.b(), f.ib));
        // Every GEQRT writes a T, so there are as many copies at most.
        let geqrts = f.tg.iter().flatten().count();
        TileStore {
            b,
            ib: f.ib,
            mt,
            v_len,
            a: a.tile_ptrs(),
            tg: ptrs(&mut f.tg),
            tk: ptrs(&mut f.tk),
            v: Some(Mutex::new(VCopies::new(mt * a.nt(), geqrts, v_len))),
            paged: None,
            shard: None,
        }
    }

    /// [`TileStore::new`] for the run `plan` describes: a resumed run
    /// starts with the V copies its pending readers need, rebuilt from the
    /// factored tiles.
    pub(crate) fn resident(a: &mut TiledMatrix, f: &mut TFactors, plan: &RunPlan<'_>) -> Self {
        let store = Self::new(a, f);
        if let Some(v) = &store.v {
            let mut v = relock(v);
            for (i, k) in resumed_v_copies(plan) {
                let at = v.take(i + k * store.mt);
                // SAFETY: a place just taken is `v_len` doubles no one else
                // holds, and the tile is not one of them.
                let copy = unsafe { std::slice::from_raw_parts_mut(at, store.v_len) };
                hqr_kernels::pack_v(store.b, a.tile(i, k), copy);
            }
        }
        store
    }

    /// A store over a worker's `shard`, for tiles of side `b` and T factors
    /// of inner block size `ib`. Every slot a task touches must be in the
    /// map, [`SlotFamily::slot_len`] long, before the task runs, and stay
    /// there until it ends.
    pub fn over_shard(shard: Arc<Shard>, b: usize, ib: usize) -> Self {
        let none = Vec::new;
        let (a, tg, tk, v_len) = (none(), none(), none(), SlotFamily::Vg.slot_len(b, ib));
        TileStore { b, ib, mt: 0, v_len, a, tg, tk, v: None, paged: None, shard: Some(shard) }
    }

    /// A store over `[factored | c]` for a [`TaskGraph::apply_q`] graph:
    /// A-table columns `< nt` are the factored tiles and the T tables are
    /// `f`'s, which that graph's tasks only read — so both are borrowed,
    /// not copied — and columns `≥ nt` are `c`'s tiles. A `(Vg, i, k)` slot
    /// is the factored tile A(i,k) itself, `b²` long, which UNMQR reads as
    /// the public `unmqr` does. Only a graph whose tasks write nothing but
    /// `A` slots in columns `≥ nt` may run on it: every other pointer comes
    /// from a shared borrow.
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
            v_len: SlotFamily::A.slot_len(f.b, f.ib),
            a,
            tg: read_only_ptrs(&f.tg),
            tk: read_only_ptrs(&f.tk),
            v: None,
            paged: None,
            shard: None,
        }
    }

    /// The store the run `plan` describes should use: paged — buffers move
    /// into a two-tier cache whose resident tier is bounded by
    /// `resident_budget` bytes, the rest spilled to a checksummed file under
    /// `spill_dir` (OS temp dir when `None`) — when `pages` says so, else
    /// the flat resident store (zero per-access overhead, bitwise-identical
    /// results either way; `plan.order` is not looked at). Either starts a
    /// resumed run with the V copies its pending readers need.
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
            return Ok(Self::resident(a, f, plan));
        };
        Self::check_shapes(a, f);
        assert_eq!((a.mt(), a.nt()), (graph.mt(), graph.nt()), "matrix/graph shape mismatch");
        let (b, ib, mt) = (a.b(), f.ib, a.mt());
        let paged = PagedStore::build(a, f, plan, budget, spill_dir)?;
        Ok(TileStore {
            b,
            ib,
            mt,
            v_len: SlotFamily::Vg.slot_len(b, ib),
            a: Vec::new(),
            tg: Vec::new(),
            tk: Vec::new(),
            v: None,
            paged: Some(paged),
            shard: None,
        })
    }

    /// The conditions the raw views rely on: the matrix and factors agree
    /// on the shape, and every T buffer holds its slot's length.
    fn check_shapes(a: &TiledMatrix, f: &TFactors) {
        assert_eq!(a.mt(), f.mt, "matrix/factor shape mismatch");
        assert_eq!(a.nt(), f.nt, "matrix/factor shape mismatch");
        assert_eq!(a.b(), f.b, "tile size mismatch");
        assert!(f.ib > 0 && f.ib <= a.b(), "inner block size must be in 1..=b");
        for (fam, family) in [(SlotFamily::Tg, &f.tg), (SlotFamily::Tk, &f.tk)] {
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

    /// Give back V copy `slot`'s buffer (see the module docs): to the
    /// flat backing's free list, or dropped with its paged slot, never
    /// written back. A shard, which keeps no free list, removes the slot
    /// and returns its buffer. An apply store's `Vg` slots are the
    /// factored tiles, which stay.
    ///
    /// # Safety
    /// No task that touches `slot` may be running or run later in this
    /// run: a task still holding the buffer's address would write into a
    /// buffer another GEQRT may take.
    pub unsafe fn release(&self, slot: Slot) -> Option<Box<[f64]>> {
        let (fam, i, k) = slot;
        debug_assert_eq!(fam, SlotFamily::Vg, "only V copies are released");
        if let Some(paged) = &self.paged {
            paged.core.release(paged.core.slot_index(fam, i, k));
        } else if let Some(shard) = &self.shard {
            return relock(shard).remove(&slot);
        } else if let Some(v) = &self.v {
            relock(v).release(i + k * self.mt);
        }
        None
    }

    /// V copies a flat or paged store holds now, and (flat backing only)
    /// the most it held at once.
    #[cfg(test)]
    pub(crate) fn v_copies_held(&self) -> (usize, usize) {
        if let Some(paged) = &self.paged {
            return (paged.core.resident_v_copies(), 0);
        }
        // Places are taken last in, first out, so the places a run has
        // used are the most copies it held at once.
        self.v.as_ref().map_or((0, 0), |v| {
            let v = relock(v);
            (v.live.iter().flatten().count(), v.unused)
        })
    }

    /// Doubles in a slot of family `fam` in this store.
    #[inline]
    fn len(&self, fam: SlotFamily) -> usize {
        match fam {
            SlotFamily::Vg => self.v_len,
            _ => fam.slot_len(self.b, self.ib),
        }
    }

    // The `&self -> &mut` shape is deliberate: exclusivity is established
    // by the DAG (exclusive-writer discipline), not by the borrow checker —
    // the same contract an UnsafeCell-based store would express.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    fn slice(&self, s: Slot) -> &mut [f64] {
        let ptr = self.slot_ptr(s, true);
        assert!(!ptr.is_null(), "kernel touched an unallocated buffer");
        // SAFETY: a slot's buffer holds `len` doubles (`check_shapes`
        // asserted it of the factors; tiles, V copies and paged slots are
        // allocated that long) and is alive until the run releases it, after
        // its last task; exclusivity is guaranteed by the caller (DAG
        // discipline).
        unsafe { std::slice::from_raw_parts_mut(ptr, self.len(s.0)) }
    }

    /// The address of slot `s`'s buffer; `write` is the access of a task
    /// that writes it, whose first one creates a flat store's V copy.
    #[inline]
    fn slot_ptr(&self, (fam, i, j): Slot, write: bool) -> *mut f64 {
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
        match (fam, &self.v) {
            (SlotFamily::A, _) | (SlotFamily::Vg, None) => self.a[idx],
            (SlotFamily::Vg, Some(v)) => relock(v).ptr(idx, write),
            (SlotFamily::Tg, _) => self.tg[idx],
            (SlotFamily::Tk, _) => self.tk[idx],
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
        let ptr = self.slot_ptr(s, false);
        assert!(!ptr.is_null(), "kernel read an unallocated buffer");
        // SAFETY: as in `slice`, minus exclusivity: a shared view, because a
        // read-only slot's pointer may come from a shared borrow.
        std::slice::from_raw_parts(ptr, self.len(s.0))
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
        writes.retain(|s| self.len(s.0) > 0);
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

/// The V copies a run resumed at `plan.completed` starts with, as `(i, k)`
/// ([`live_v_copies`]).
pub(crate) fn resumed_v_copies(plan: &RunPlan<'_>) -> Vec<(usize, usize)> {
    let Some(done) = plan.completed else { return Vec::new() };
    let tasks =
        live_v_copies(plan.graph, done).into_iter().map(|t| &plan.graph.tasks()[t as usize]);
    tasks.map(|t| (t.i as usize, t.k as usize)).collect()
}

/// V copy of the factored tile A(i,k): its strict lower triangle.
pub(crate) fn packed_v(a: &TiledMatrix, i: usize, k: usize) -> Box<[f64]> {
    let mut v = vec![0.0; hqr_kernels::v_len(a.b())].into_boxed_slice();
    hqr_kernels::pack_v(a.b(), a.tile(i, k), &mut v);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elim::ElimOp;
    use crate::graph::TaskGraph;

    /// A flat store's V copies start on a cache line, though at b = 200 a
    /// copy's `v_len(b)` doubles are not a whole number of lines: the
    /// places sit whole lines apart. Every GEQRT's copy is held at once, so
    /// every place is checked, and a released place is taken again.
    #[test]
    fn flat_v_copies_start_on_a_cache_line() {
        let (mt, nt, b, ib) = (3, 2, 200, 48);
        assert!(!(hqr_kernels::v_len(b) * 8).is_multiple_of(LINE), "a copy fills whole lines");
        // TT kills: every tile of the first column is factored by a GEQRT.
        let elims = [0, 1].map(|k| (k + 1..mt as u32).map(move |i| ElimOp::new(k, i, k, false)));
        let g = TaskGraph::build(mt, nt, b, &elims.into_iter().flatten().collect::<Vec<_>>());
        let written = g.tasks().iter().flat_map(Task::writes);
        let geqrts: Vec<Slot> = written.filter(|s| s.0 == SlotFamily::Vg).collect();
        assert_eq!(geqrts.len(), 5);
        let mut a = TiledMatrix::zeros(mt, nt, b);
        let mut f = TFactors::allocate_for(&g, ib);
        let store = TileStore::new(&mut a, &mut f);
        let starts: Vec<usize> = geqrts.iter().map(|&s| store.slice(s).as_ptr() as usize).collect();
        for (s, start) in geqrts.iter().zip(&starts) {
            assert!(start.is_multiple_of(LINE), "{s:?} at {start:#x}");
            assert_eq!(store.slice(*s).len(), hqr_kernels::v_len(b));
        }
        // SAFETY: no task runs on this store.
        unsafe { store.release(geqrts[0]) };
        assert_eq!(store.slice(geqrts[0]).as_ptr() as usize, starts[0], "the place is reused");
        assert_eq!(store.v_copies_held(), (5, 5));
    }

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
        let written = g.tasks().iter().flat_map(Task::writes).filter(|s| s.0 != SlotFamily::A);
        for (fam, i, k) in written {
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
            let want = match fam {
                SlotFamily::A => a.tile(i, j).into(),
                SlotFamily::Vg => packed_v(&a, i, j),
                _ => f.slot(fam, i, j).unwrap().into(),
            };
            assert_eq!(bits(buf), bits(&want), "{fam:?}({i},{j})");
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
