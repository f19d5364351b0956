//! The disk tier of the two-tier tile store: a resident working set of
//! pinned/unpinned tile slots, evicted by *next use*, backed by one
//! checksummed spill file.
//!
//! Production-scale matrices do not fit in RAM; tile algorithms were
//! designed for exactly this regime (block data layout gives out-of-core
//! execution its contiguous, fine-grained transfer unit). This module
//! turns the flat pointer table of [`crate::store::TileStore`] into a
//! cache: every buffer of the matrix and the factor families — a `b × b`
//! tile, a V copy of [`hqr_kernels::v_len`]`(b)` doubles, or a T factor of
//! [`hqr_kernels::t_len`]`(b, ib)` doubles —
//! becomes a `Slot` that is either *resident* (heap `Box<[f64]>`) or
//! *spilled* (a fixed-offset record in the per-run spill file). The
//! executor pins a task's read/write slots before the attempt ladder runs
//! and unpins them after, so eviction can never pull a buffer out from
//! under a running kernel.
//!
//! ## Residency policy: the schedule is known, so use it
//!
//! The whole access stream is a static DAG fixed before the first kernel
//! runs, and the tile is the unit of both computation and data movement,
//! so each slot's future is known. The store is built from a
//! [`RunPlan`]: the graph plus the *order* the run's scheduler is expected
//! to reach its tasks in — a dry run of the engine's own queues and release
//! rule (`exec::preview_order`; exact on one worker, and what each
//! of several workers follows between steals). Program order would be the
//! wrong clock: a LIFO worker runs depth-first, on average hundreds of
//! positions away from a task's index. `PagedStore::build` walks that
//! order once and records, per slot, the ascending positions at which it is
//! touched (and, per task, its slots). From that table:
//!
//! * **Next use.** A slot's next use is the first position in its list
//!   whose task has not started; a slot with none is never needed again in
//!   this run. Tasks a resumed run has completed are not in the order at
//!   all, so cursors begin past finished work.
//! * **Victim set.** Every unpinned resident slot sits in one ordered set
//!   keyed by `(next use, slot)`, maintained at pin and unpin. Eviction
//!   takes the last entry — furthest next use, "never again" first — which
//!   is Belady's MIN over the expected order; no slot-table scan.
//! * **Prefetch window.** A background thread walks the same order from
//!   the first unstarted task, a distance ahead that the budget sets (a
//!   window's worth of slots is at most a quarter of the resident tier),
//!   loading the slots those tasks will pin. It only makes the evictions
//!   MIN would make when that task pins: it evicts a slot needed *later*
//!   than the task it loads for, and no sooner than any slot of a running
//!   task is needed again (those go first once they unpin); it makes none
//!   while a worker's pin pass is under way (that pass's misses come
//!   first) or once its task has started. A prefetched slot — now in the
//!   victim set under its imminent next use — is the last thing a later
//!   eviction picks. Strictly best-effort: a worker whose slot is not
//!   resident reads it itself, waiting only for a prefetch read of that
//!   same slot already in flight. So on one worker the run's traffic is
//!   MIN's over the order it really ran in, however the two threads
//!   interleave.
//! * **Lazy-zero factor slots.** `Vg`/`Tg`/`Tk` buffers are all-zero until
//!   the task that first touches them writes them. The store learns which
//!   exist from the graph's writes; they start non-resident with no disk
//!   record and are materialised as zeros by that first pin — neither
//!   allocated by the caller, written out at build time nor read back.
//! * **Released scratch.** When the last reader of a V copy or a T has
//!   completed (or its writer, when nothing reads it), the store drops the
//!   slot: its buffer goes to the free shelf, its record (if any) is
//!   forgotten, and nothing is written back. Unpaging returns tiles only:
//!   a factorization keeps V in the factored tiles, and each factor task's
//!   τ was kept when the task was done.
//!
//! ## On-disk format
//!
//! The spill file holds one region per slot family, each an array of
//! fixed-length records, one per slot of the family (a tile's, a V
//! copy's or a T factor's). Each record is a complete sectioned container
//! from [`hqr_tile::io`] (magic `HQRSPILL`, one payload section, `checksum64`
//! trailer), so every fault-in re-verifies the checksum: the container
//! trailer doubles as the at-rest silent-data-corruption guard. A mismatch
//! surfaces as a typed error ([`crate::ExecError::SpillIo`]), never as
//! silent numerical garbage. A write-back is written straight from the
//! slot's buffer, its checksum taken over the borrowed bytes; a fault-in
//! is read straight into the slot's buffer and verified there.
//!
//! ## Locking and liveness
//!
//! Each slot has its own mutex, held across that slot's disk I/O; one more
//! mutex guards the victim set and the resident-byte count. The order is
//! always *slot, then set*: the set lock is only ever taken last and never
//! held while a slot lock is acquired. No worker acquires a slot lock
//! while holding another — a pin that must make room releases its own slot
//! first (its pin count already protects it). The prefetcher alone holds
//! two: the slot it loads, across the evictions that make room for it and
//! the read, and one victim at a time. The slot it loads is not resident,
//! so never a victim, and nothing else holds a slot lock while waiting for
//! another, so no cycle of waits can form. An evictor *claims* its victim by
//! removing it from the set before locking it, so two evictors never
//! chase the same slot; the claim is re-validated under the slot's lock.
//! The resident budget is *soft*: pinned bytes may exceed it (correctness
//! first), and evictions bring residency back under budget as pins
//! release. The prefetcher alone never exceeds it.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use hqr_tile::io::{f64_record_len, read_f64_record, write_f64_record, BinFormatError};
use hqr_tile::TiledMatrix;

use crate::exec::TSet;
use crate::graph::TaskGraph;
use crate::store::{packed_v, resumed_v_copies, RunPlan};
use crate::task::{SlotFamily, SLOT_FAMILIES};

/// Magic bytes opening every spill record.
pub const SPILL_MAGIC: [u8; 8] = *b"HQRSPILL";
/// Spill record version (2: `checksum64` trailer; 3: a T factor record
/// holds its packed triangles, `t_len(b, ib)` doubles; 4: a V copy's
/// record holds V's strict lower triangle, `v_len(b)` doubles).
pub const SPILL_VERSION: u32 = 4;

const S_TILE: u32 = 1;

/// The slot families in slot-index order.
const FAMILIES: [SlotFamily; SLOT_FAMILIES] =
    [SlotFamily::A, SlotFamily::Vg, SlotFamily::Tg, SlotFamily::Tk];

/// Next-use key of a slot no unstarted task touches.
const NEVER: u32 = u32::MAX;

/// Write flag on an entry of [`PagedCore::task_slots`].
const WRITES: u32 = 1 << 31;

/// Evicted buffers of each length kept for the next fault-in instead of
/// being freed.
const FREE_BUFFERS: usize = 8;

/// How long the prefetcher sleeps when its window is full or room was
/// refused, before looking at the run's progress again: well under one
/// kernel (a 128x128 update is ~300 us), so it falls at most a task behind.
const PREFETCH_NAP: Duration = Duration::from_micros(100);

/// Per-run totals of the paged store's tier traffic, snapshotted into
/// [`crate::exec::ExecTrace::spill`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpillSummary {
    /// Resident-budget bytes the run was configured with.
    pub budget: u64,
    /// Unpinned slots evicted from the resident tier (buffer dropped).
    pub evictions: u64,
    /// Evictions that had to write the buffer back to disk (dirty).
    pub writebacks: u64,
    /// Slots faulted in on demand by a pinning worker (cache misses).
    pub demand_faults: u64,
    /// Slots faulted in ahead of use by the prefetch thread.
    pub prefetches: u64,
    /// Pins that found their slot resident *because* prefetch loaded it.
    pub prefetch_hits: u64,
}

/// One slot of the paged store. The default is an absent slot: no buffer,
/// no record, nothing to pin.
#[derive(Default)]
struct Slot {
    /// Resident buffer, if any.
    buf: Option<Box<[f64]>>,
    /// True once a valid record for this slot exists in the spill file. A
    /// non-resident slot without one is all zeros (a factor buffer nothing
    /// has written yet).
    on_disk: bool,
    /// Resident copy differs from (or predates) the disk copy.
    dirty: bool,
    /// Pin count; a pinned slot is never evicted.
    pins: u32,
    /// Loaded by the prefetch thread and not yet claimed by a pin.
    prefetched: bool,
    /// The slot is backed by a real buffer (factor families only allocate
    /// the slots their graph writes).
    exists: bool,
    /// Position in this slot's use list of its first use that had not
    /// started when last looked at; only ever advances.
    cursor: u32,
    /// The next-use key this slot sits under in the victim set; `Some`
    /// exactly while it is resident and unpinned.
    key: Option<u32>,
}

/// What one [`PagedCore::pin_task`] observed, for per-worker counters.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PinEvents {
    pub demand_faults: u64,
    pub prefetch_hits: u64,
    pub evictions: u64,
}

/// The part of the store's state that orders evictions, under one mutex.
struct Residency {
    /// Unpinned resident slots as `(next use, slot)`; the last entry is the
    /// eviction victim.
    victims: BTreeSet<(u32, u32)>,
    /// Where each slot of a running task (pinned or being pinned, up to
    /// its unpin) is next needed after that task, with multiplicity: a
    /// prefetch evicts nothing needed sooner than the last of these.
    running: BTreeMap<u32, u32>,
    /// Bytes resident or reserved for a load in flight.
    resident: u64,
    /// Evicted buffers awaiting reuse, one shelf per slot length
    /// ([`PagedCore::shelf`]).
    free: [Vec<Box<[f64]>>; 3],
}

/// Shared state of the paged store: slot table, next-use table, spill
/// file, budget accounting and traffic counters.
pub(crate) struct PagedCore {
    b: usize,
    ib: usize,
    mt: usize,
    slots_per_family: usize,
    /// Bytes of one `b × b` tile.
    tile_bytes: u64,
    /// Offset in the spill file of each family's region of records.
    region: [u64; SLOT_FAMILIES],
    budget: u64,
    file: File,
    path: PathBuf,
    slots: Vec<Mutex<Slot>>,
    /// The run's tasks in the order its scheduler is expected to reach
    /// them; a *position* in this list is the store's unit of time.
    order: Vec<u32>,
    /// Position of each task in `order` ([`NEVER`] for tasks not in this
    /// run: completed before it).
    position: Vec<u32>,
    /// Slot `s` is touched at positions `uses[use_off[s]..use_off[s + 1]]`,
    /// ascending.
    use_off: Vec<u32>,
    uses: Vec<u32>,
    /// Task `t` touches slots `task_slots[task_off[t]..task_off[t + 1]]`
    /// (write set first, [`WRITES`] flagged).
    task_off: Vec<u32>,
    task_slots: Vec<u32>,
    /// Per position: that task's pin pass has begun.
    started: Vec<AtomicBool>,
    /// Pin passes under way; the prefetcher evicts nothing meanwhile.
    pinning: AtomicU32,
    residency: Mutex<Residency>,
    evictions: AtomicU64,
    writebacks: AtomicU64,
    demand_faults: AtomicU64,
    prefetches: AtomicU64,
    prefetch_hits: AtomicU64,
    shutdown: AtomicBool,
}

/// Owning handle: the core plus the prefetch thread's join handle. The
/// spill file is removed on drop.
pub(crate) struct PagedStore {
    pub(crate) core: Arc<PagedCore>,
    prefetcher: Option<std::thread::JoinHandle<()>>,
}

impl PagedCore {
    #[inline]
    pub(crate) fn slot_index(&self, fam: SlotFamily, i: usize, j: usize) -> usize {
        (fam as usize) * self.slots_per_family + i + j * self.mt
    }

    fn family(&self, idx: usize) -> SlotFamily {
        FAMILIES[idx / self.slots_per_family]
    }

    fn label(&self, idx: usize) -> String {
        let local = idx % self.slots_per_family;
        format!("{}({},{})", self.family(idx).name(), local % self.mt, local / self.mt)
    }

    /// Doubles in slot `idx`'s buffer.
    fn slot_len(&self, idx: usize) -> usize {
        self.family(idx).slot_len(self.b, self.ib)
    }

    /// Bytes slot `idx` holds resident.
    fn slot_bytes(&self, idx: usize) -> u64 {
        (self.slot_len(idx) * std::mem::size_of::<f64>()) as u64
    }

    /// Offset of slot `idx`'s record in the spill file.
    fn record_offset(&self, idx: usize) -> u64 {
        let local = (idx % self.slots_per_family) as u64;
        self.region[idx / self.slots_per_family] + local * f64_record_len(self.slot_len(idx)) as u64
    }

    /// The free-buffer shelf of buffers `len` doubles long: tiles, V
    /// copies, then T factors. Where two of those lengths coincide, their
    /// buffers share the first shelf of that length.
    fn shelf(&self, len: usize) -> usize {
        let fams = [SlotFamily::A, SlotFamily::Vg];
        fams.iter().position(|f| f.slot_len(self.b, self.ib) == len).unwrap_or(fams.len())
    }

    /// The slots task `tid` pins, write set first.
    fn slots_of(&self, tid: u32) -> &[u32] {
        let t = tid as usize;
        &self.task_slots[self.task_off[t] as usize..self.task_off[t + 1] as usize]
    }

    /// Raw pointer to a pinned slot's resident buffer. Panics if the slot
    /// is not resident — callers must hold a pin (the executor's attempt
    /// ladder pins every slot a task touches before running it).
    pub(crate) fn resident_ptr(&self, fam: SlotFamily, i: usize, j: usize) -> *mut f64 {
        let idx = self.slot_index(fam, i, j);
        let mut s = lock(&self.slots[idx]);
        debug_assert!(s.pins > 0, "unpinned access to paged slot {}", self.label(idx));
        s.buf
            .as_mut()
            .unwrap_or_else(|| panic!("paged slot {} accessed while evicted", self.label(idx)))
            .as_mut_ptr()
    }

    /// Write slot `idx`'s record straight from its buffer.
    fn write_record(&self, idx: usize, buf: &[f64]) -> Result<(), String> {
        let at = self.record_offset(idx);
        write_f64_record(SPILL_MAGIC, SPILL_VERSION, S_TILE, buf, |off, bytes| {
            self.file.write_all_at(bytes, at + off as u64)
        })
        .map_err(|e| format!("spill write for {} ({}): {e}", self.label(idx), self.path.display()))
    }

    /// Read slot `idx`'s record straight into `dst` and verify it there.
    fn read_record(&self, idx: usize, dst: &mut [f64]) -> Result<(), String> {
        let (at, path) = (self.record_offset(idx), self.path.display());
        let io = |e: std::io::Error| BinFormatError::Io {
            path: path.to_string(),
            message: e.to_string(),
        };
        let read = read_f64_record(SPILL_MAGIC, SPILL_VERSION, S_TILE, dst, |off, buf| {
            self.file.read_exact_at(buf, at + off as u64).map_err(io)
        });
        read.map_err(|e| match e {
            BinFormatError::Io { message, .. } => {
                format!("spill read for {} ({path}): {message}", self.label(idx))
            }
            BinFormatError::UnsupportedVersion { expected, found } => format!(
                "spill record for {} ({path}) has format version {found}; this build reads \
                 version {expected}",
                self.label(idx)
            ),
            e => format!("spill record for {} is corrupt: {e}", self.label(idx)),
        })
    }

    /// The slot's next use: the first position in its use list whose task
    /// has not started, or [`NEVER`]. Advances the slot's cursor past
    /// started tasks.
    fn next_use(&self, idx: usize, s: &mut Slot) -> u32 {
        let list = &self.uses[self.use_off[idx] as usize..self.use_off[idx + 1] as usize];
        while let Some(&at) = list.get(s.cursor as usize) {
            if !self.started[at as usize].load(Ordering::Acquire) {
                return at;
            }
            s.cursor += 1;
        }
        NEVER
    }

    /// Where slot `idx` is needed next after position `at`, or [`NEVER`].
    fn use_after(&self, idx: usize, at: u32) -> u32 {
        let list = &self.uses[self.use_off[idx] as usize..self.use_off[idx + 1] as usize];
        list.get(list.partition_point(|&u| u <= at)).copied().unwrap_or(NEVER)
    }

    /// Enter a resident, unpinned slot into the victim set under its next
    /// use. Caller holds the slot's lock.
    fn make_evictable(&self, idx: usize, s: &mut Slot) {
        debug_assert!(s.key.is_none() && s.pins == 0 && s.buf.is_some());
        let key = self.next_use(idx, s);
        s.key = Some(key);
        lock(&self.residency).victims.insert((key, idx as u32));
    }

    /// Take a slot out of the victim set (a no-op if an evictor has
    /// already claimed the entry). Caller holds the slot's lock.
    fn make_unevictable(&self, idx: usize, s: &mut Slot) {
        if let Some(key) = s.key.take() {
            lock(&self.residency).victims.remove(&(key, idx as u32));
        }
    }

    /// Reserve `bytes` of residency, evicting unpinned resident slots —
    /// furthest next use first — while the reservation does not fit the
    /// budget. With `needed_at` (the prefetcher), only slots whose next use
    /// is later than that task and than every running task's slots may go,
    /// and the request is refused (`None`) rather than exceed the budget,
    /// while a pin pass is under way or once that task has started. Without
    /// it the reservation always succeeds, over budget if every resident
    /// slot is pinned (a worker's demand fault). Returns the number of slots
    /// evicted. A worker holds no slot lock on entry, the prefetcher only
    /// the non-resident slot it loads; this takes one more at a time.
    fn reserve_room(&self, bytes: u64, needed_at: Option<u32>) -> Result<Option<u64>, String> {
        let mut evicted = 0u64;
        loop {
            let claim = {
                let mut r = lock(&self.residency);
                if needed_at.is_some_and(|t| {
                    self.pinning.load(Ordering::Acquire) > 0
                        || self.started[t as usize].load(Ordering::Acquire)
                }) {
                    return Ok(None);
                }
                let fits = r.resident.saturating_add(bytes) <= self.budget;
                let running = r.running.last_key_value().map_or(0, |(&k, _)| k);
                let victim = match (fits, r.victims.last().copied()) {
                    (false, Some(v)) if needed_at.is_none_or(|t| v.0 > t && v.0 >= running) => {
                        Some(v)
                    }
                    _ => None,
                };
                match victim {
                    Some(v) => {
                        r.victims.remove(&v);
                        v
                    }
                    None if fits || needed_at.is_none() => {
                        r.resident += bytes;
                        return Ok(Some(evicted));
                    }
                    None => return Ok(None),
                }
            };
            evicted += u64::from(self.evict(claim)?);
        }
    }

    /// Evict the claimed victim `(key, slot)` unless a pin got to it since
    /// it was claimed. Returns whether a buffer was released.
    fn evict(&self, (key, idx): (u32, u32)) -> Result<bool, String> {
        let idx = idx as usize;
        let mut s = lock(&self.slots[idx]);
        // A pin since the claim cleared the key (and, if it has unpinned
        // again, re-entered the slot under a fresh one): not ours any more.
        if s.key != Some(key) || s.pins > 0 || s.buf.is_none() {
            return Ok(false);
        }
        if s.dirty {
            let written = self.write_record(idx, s.buf.as_ref().expect("checked resident"));
            if let Err(e) = written {
                // Still resident and unpinned: hand the claim back.
                lock(&self.residency).victims.insert((key, idx as u32));
                return Err(e);
            }
            s.on_disk = true;
            s.dirty = false;
            self.writebacks.fetch_add(1, Ordering::Relaxed);
        }
        debug_assert!(s.on_disk, "evicting a clean slot with no disk copy");
        let buf = s.buf.take().expect("checked resident");
        s.prefetched = false;
        s.key = None;
        let mut r = lock(&self.residency);
        // Re-entered under the same key since the claim: drop that entry too.
        r.victims.remove(&(key, idx as u32));
        r.resident -= self.slot_bytes(idx);
        let shelf = &mut r.free[self.shelf(buf.len())];
        if shelf.len() < FREE_BUFFERS {
            shelf.push(buf);
        }
        drop(r);
        drop(s);
        self.evictions.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }

    /// A buffer for a load of slot `idx`: a recycled one if any (contents
    /// arbitrary), else fresh.
    fn take_buffer(&self, idx: usize) -> Box<[f64]> {
        let len = self.slot_len(idx);
        let recycled = lock(&self.residency).free[self.shelf(len)].pop();
        recycled.unwrap_or_else(|| vec![0.0; len].into_boxed_slice())
    }

    /// Undo the reservation for a load of slot `idx` that did not happen.
    fn release_reservation(&self, idx: usize, buf: Option<Box<[f64]>>) {
        let mut r = lock(&self.residency);
        r.resident -= self.slot_bytes(idx);
        if let Some(buf) = buf {
            let shelf = &mut r.free[self.shelf(buf.len())];
            if shelf.len() < FREE_BUFFERS {
                shelf.push(buf);
            }
        }
    }

    /// Pin one slot for a running task, faulting it in from disk (or
    /// materialising an unwritten factor buffer as zeros) if it is not
    /// resident.
    fn pin(&self, idx: usize, will_write: bool, ev: &mut PinEvents) -> Result<(), String> {
        let mut s = lock(&self.slots[idx]);
        if !s.exists {
            return Err(format!("task pinned unallocated slot {}", self.label(idx)));
        }
        // Pinned from here on — even while the lock is released below — so
        // no evictor touches the slot.
        s.pins += 1;
        self.make_unevictable(idx, &mut s);
        if s.buf.is_none() {
            // Make room without holding this slot's lock (one slot lock at
            // a time). A concurrent pin of the same slot may do the same;
            // whichever relocks first loads the buffer.
            drop(s);
            let room = self.reserve_room(self.slot_bytes(idx), None);
            s = lock(&self.slots[idx]);
            let loaded = room.and_then(|evicted| {
                ev.evictions += evicted.expect("a demand reservation is never refused");
                if s.buf.is_some() {
                    self.release_reservation(idx, None);
                    return Ok(());
                }
                let mut buf = self.take_buffer(idx);
                if s.on_disk {
                    if let Err(e) = self.read_record(idx, &mut buf) {
                        self.release_reservation(idx, Some(buf));
                        return Err(e);
                    }
                    // A demand fault is a read this worker did itself.
                    self.demand_faults.fetch_add(1, Ordering::Relaxed);
                    ev.demand_faults += 1;
                } else {
                    // Never written: zeros, and no bytes moved.
                    buf.fill(0.0);
                }
                s.dirty = !s.on_disk;
                s.prefetched = false;
                s.buf = Some(buf);
                Ok(())
            });
            if let Err(e) = loaded {
                s.pins -= 1;
                if s.pins == 0 && s.buf.is_some() {
                    self.make_evictable(idx, &mut s);
                }
                return Err(e);
            }
        }
        if s.prefetched {
            s.prefetched = false;
            self.prefetch_hits.fetch_add(1, Ordering::Relaxed);
            ev.prefetch_hits += 1;
        }
        s.dirty |= will_write;
        Ok(())
    }

    /// Drop slot `idx` for good — a V copy or a T no task of the run
    /// touches again: its buffer goes to the free shelf, a record of it is
    /// forgotten, and nothing is written back. An evictor that claimed it
    /// meanwhile finds its claim stale.
    pub(crate) fn release(&self, idx: usize) {
        let mut s = lock(&self.slots[idx]);
        debug_assert_eq!(s.pins, 0, "released a pinned slot {}", self.label(idx));
        self.make_unevictable(idx, &mut s);
        (s.on_disk, s.dirty, s.prefetched) = (false, false, false);
        if let Some(buf) = s.buf.take() {
            let mut r = lock(&self.residency);
            r.resident -= self.slot_bytes(idx);
            let shelf = &mut r.free[self.shelf(buf.len())];
            if shelf.len() < FREE_BUFFERS {
                shelf.push(buf);
            }
        }
    }

    /// Slots of family `fam` resident now.
    #[cfg(test)]
    pub(crate) fn resident_slots(&self, fam: SlotFamily) -> usize {
        let first = self.slot_index(fam, 0, 0);
        let family = &self.slots[first..first + self.slots_per_family];
        family.iter().filter(|s| lock(s).buf.is_some()).count()
    }

    fn unpin(&self, idx: usize) {
        let mut s = lock(&self.slots[idx]);
        debug_assert!(s.pins > 0, "unpin of unpinned slot {}", self.label(idx));
        s.pins = s.pins.saturating_sub(1);
        if s.pins == 0 && s.buf.is_some() {
            self.make_evictable(idx, &mut s);
        }
    }

    /// Pin every slot task `tid` touches — write set first (it sets the
    /// dirty bits) — one slot lock at a time, so concurrent pinners cannot
    /// deadlock. On error the pins taken so far are released.
    pub(crate) fn pin_task(&self, tid: u32) -> Result<PinEvents, String> {
        self.pinning.fetch_add(1, Ordering::AcqRel);
        self.track_running(tid, true);
        if let Some(started) = self.started.get(self.position[tid as usize] as usize) {
            started.store(true, Ordering::Release);
        }
        let mut ev = PinEvents::default();
        let slots = self.slots_of(tid);
        let mut pinned = Ok(());
        for (n, &entry) in slots.iter().enumerate() {
            let idx = (entry & !WRITES) as usize;
            if let Err(e) = self.pin(idx, entry & WRITES != 0, &mut ev) {
                for &held in &slots[..n] {
                    self.unpin((held & !WRITES) as usize);
                }
                self.track_running(tid, false);
                pinned = Err(e);
                break;
            }
        }
        self.pinning.fetch_sub(1, Ordering::AcqRel);
        pinned.map(|()| ev)
    }

    /// Release the pins [`PagedCore::pin_task`] took for `tid`.
    pub(crate) fn unpin_task(&self, tid: u32) {
        for &entry in self.slots_of(tid) {
            self.unpin((entry & !WRITES) as usize);
        }
        self.track_running(tid, false);
    }

    /// Enter (`on`) or remove where task `tid`'s slots are next needed
    /// after it in [`Residency::running`]. A task outside this run's order
    /// has no position, and its slots are keyed by next use already.
    fn track_running(&self, tid: u32, on: bool) {
        let at = self.position[tid as usize];
        if at == NEVER {
            return;
        }
        let mut r = lock(&self.residency);
        for &entry in self.slots_of(tid) {
            let after = self.use_after((entry & !WRITES) as usize, at);
            let count = r.running.entry(after).or_insert(0);
            if on {
                *count += 1;
            } else {
                *count -= 1;
                if *count == 0 {
                    r.running.remove(&after);
                }
            }
        }
    }

    /// Load one slot ahead of the pin of the task at position `at`, if that
    /// takes no room from anything needed sooner. Returns `false` when room
    /// was refused. Holds the slot's lock throughout, so a worker pinning it
    /// meanwhile takes this load instead of evicting for a second one.
    fn prefetch_slot(&self, idx: usize, at: u32) -> bool {
        let mut s = lock(&self.slots[idx]);
        if !(s.exists && s.on_disk && s.buf.is_none() && s.pins == 0) {
            return true;
        }
        // Best-effort: an I/O error here is left for the pin to hit.
        match self.reserve_room(self.slot_bytes(idx), Some(at)) {
            Ok(Some(_)) => {}
            Ok(None) => return false,
            Err(_) => return true,
        }
        let mut buf = self.take_buffer(idx);
        if self.read_record(idx, &mut buf).is_ok() {
            s.buf = Some(buf);
            s.dirty = false;
            s.prefetched = true;
            self.make_evictable(idx, &mut s);
            self.prefetches.fetch_add(1, Ordering::Relaxed);
        } else {
            drop(s);
            self.release_reservation(idx, Some(buf));
        }
        true
    }

    /// Body of the background prefetch thread: walk the run's order from
    /// its first unstarted task, at most `window` tasks ahead of it, loading
    /// what those tasks will pin.
    fn prefetch_loop(&self) {
        // A window's worth of slots (a task pins at most four) is at most
        // a quarter of the resident tier.
        let window = ((self.budget / self.tile_bytes) as usize / 16).max(1);
        let n = self.order.len();
        let (mut low, mut next) = (0usize, 0usize);
        'walk: while !self.shutdown.load(Ordering::Acquire) {
            while low < n && self.started[low].load(Ordering::Acquire) {
                low += 1;
            }
            next = next.max(low);
            if next >= n.min(low + window) {
                std::thread::sleep(PREFETCH_NAP);
                continue;
            }
            if !self.started[next].load(Ordering::Acquire) {
                for &entry in self.slots_of(self.order[next]) {
                    if !self.prefetch_slot((entry & !WRITES) as usize, next as u32) {
                        // Everything evictable is needed sooner: wait for
                        // the run to move on, then retry this task.
                        std::thread::sleep(PREFETCH_NAP);
                        continue 'walk;
                    }
                }
            }
            next += 1;
        }
    }

    /// Snapshot the traffic totals.
    pub(crate) fn summary(&self) -> SpillSummary {
        SpillSummary {
            budget: self.budget,
            evictions: self.evictions.load(Ordering::Relaxed),
            writebacks: self.writebacks.load(Ordering::Relaxed),
            demand_faults: self.demand_faults.load(Ordering::Relaxed),
            prefetches: self.prefetches.load(Ordering::Relaxed),
            prefetch_hits: self.prefetch_hits.load(Ordering::Relaxed),
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Process-unique spill file names (several paged runs may share a dir).
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Pick a spill file path under `dir` (or the OS temp dir).
pub(crate) fn spill_file_path(dir: Option<&Path>) -> PathBuf {
    let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
    let name = format!("hqr-spill-{}-{}.tiles", std::process::id(), seq);
    dir.map_or_else(std::env::temp_dir, Path::to_path_buf).join(name)
}

/// The two directions of the next-use table: per slot the positions (in
/// the run's order) at which it is touched, per task the slots it touches,
/// both in CSR form.
struct UseTable {
    use_off: Vec<u32>,
    uses: Vec<u32>,
    task_off: Vec<u32>,
    task_slots: Vec<u32>,
}

fn use_table(graph: &TaskGraph, order: &[u32], nslots: usize) -> UseTable {
    let spf = graph.mt() * graph.nt();
    let slot_of = |(fam, i, j): (SlotFamily, usize, usize)| {
        ((fam as usize) * spf + i + j * graph.mt()) as u32
    };
    let mut task_off = Vec::with_capacity(graph.tasks().len() + 1);
    let mut task_slots: Vec<u32> = Vec::with_capacity(graph.tasks().len() * 4);
    task_off.push(0);
    for t in graph.tasks() {
        task_slots.extend(t.writes().into_iter().map(|s| slot_of(s) | WRITES));
        task_slots.extend(t.reads().into_iter().map(slot_of));
        task_off.push(task_slots.len() as u32);
    }
    let slots_of = |tid: u32| {
        let t = tid as usize;
        task_slots[task_off[t] as usize..task_off[t + 1] as usize].iter().map(|e| e & !WRITES)
    };
    let mut use_off = vec![0u32; nslots + 1];
    for &tid in order {
        for slot in slots_of(tid) {
            use_off[slot as usize + 1] += 1;
        }
    }
    for s in 0..nslots {
        use_off[s + 1] += use_off[s];
    }
    // Positions are visited in ascending order, so each slot's list is too.
    let mut fill = use_off.clone();
    let mut uses = vec![0u32; use_off[nslots] as usize];
    for (at, &tid) in order.iter().enumerate() {
        for slot in slots_of(tid) {
            let next = &mut fill[slot as usize];
            uses[*next as usize] = at as u32;
            *next += 1;
        }
    }
    UseTable { use_off, uses, task_off, task_slots }
}

impl PagedStore {
    /// Build the paged store over a matrix for the run `plan` describes:
    /// take ownership of every matrix tile and of `t`, the T a resumed
    /// run's pending readers need (every other T slot the graph writes
    /// comes into being as zeros at its first pin), rebuild the V copies
    /// those readers need from the factored tiles, then evict — furthest
    /// next use first — down to `budget` bytes so the run starts inside its
    /// residency target. The matrix is hollow until [`PagedStore::unpage`]
    /// returns its tiles.
    pub(crate) fn build(
        a: &mut TiledMatrix,
        t: TSet,
        ib: usize,
        plan: &RunPlan<'_>,
        budget: u64,
        dir: Option<&Path>,
    ) -> Result<PagedStore, String> {
        let RunPlan { graph, .. } = *plan;
        let order = (plan.order)();
        let (mt, nt, b) = (a.mt(), a.nt(), a.b());
        let spf = mt * nt;
        let nslots = SLOT_FAMILIES * spf;
        let tile_bytes = (SlotFamily::A.slot_len(b, ib) * 8) as u64;
        let mut region = [0u64; SLOT_FAMILIES];
        for k in 1..SLOT_FAMILIES {
            let records = spf * f64_record_len(FAMILIES[k - 1].slot_len(b, ib));
            region[k] = region[k - 1] + records as u64;
        }
        let path = spill_file_path(dir);
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| format!("cannot create spill file {}: {e}", path.display()))?;
        let UseTable { use_off, uses, task_off, task_slots } = use_table(graph, &order, nslots);
        let mut position = vec![NEVER; graph.tasks().len()];
        for (at, &tid) in order.iter().enumerate() {
            position[tid as usize] = at as u32;
        }
        // Slots some task writes exist.
        let mut exists = vec![false; nslots];
        for entry in task_slots.iter().filter(|&&e| e & WRITES != 0) {
            exists[(entry & !WRITES) as usize] = true;
        }
        // Taken before the tiles they come from.
        let mut vg: Vec<Option<Box<[f64]>>> = (0..spf).map(|_| None).collect();
        for (i, k) in resumed_v_copies(plan) {
            vg[i + k * mt] = Some(packed_v(a, i, k));
        }
        let mut slots = Vec::with_capacity(nslots);
        // Family A first, in slot-index order (i fastest — idx = i + j*mt).
        for j in 0..nt {
            for i in 0..mt {
                let buf = Some(a.take_tile_buf(i, j));
                slots.push(Mutex::new(Slot { buf, dirty: true, exists: true, ..Slot::default() }));
            }
        }
        // Then the V copies and the T a resumed run needs (`TSet::for_run`
        // rebuilds only those); every other slot starts empty.
        for buf in vg.into_iter().chain(t.tg).chain(t.tk) {
            let exists = exists[slots.len()];
            debug_assert!(buf.is_none() || exists, "a buffer the graph never writes");
            let dirty = buf.is_some();
            slots.push(Mutex::new(Slot { buf, dirty, exists, ..Slot::default() }));
        }
        let core = Arc::new(PagedCore {
            b,
            ib,
            mt,
            slots_per_family: spf,
            tile_bytes,
            region,
            budget: budget.max(tile_bytes), // at least one resident tile
            file,
            path,
            slots,
            started: order.iter().map(|_| AtomicBool::new(false)).collect(),
            pinning: AtomicU32::new(0),
            order,
            position,
            use_off,
            uses,
            task_off,
            task_slots,
            residency: Mutex::new(Residency {
                victims: BTreeSet::new(),
                running: BTreeMap::new(),
                resident: 0,
                free: Default::default(),
            }),
            evictions: AtomicU64::new(0),
            writebacks: AtomicU64::new(0),
            demand_faults: AtomicU64::new(0),
            prefetches: AtomicU64::new(0),
            prefetch_hits: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        // Establish the initial residency: everything kept above starts
        // resident (the caller allocated it), so spill the slots needed
        // last until the working set fits. Errors here are real I/O
        // failures.
        for idx in 0..nslots {
            let mut s = lock(&core.slots[idx]);
            if s.buf.is_some() {
                lock(&core.residency).resident += core.slot_bytes(idx);
                core.make_evictable(idx, &mut s);
            }
        }
        core.reserve_room(0, None)?;
        let worker = Arc::clone(&core);
        let prefetcher = std::thread::Builder::new()
            .name("hqr-spill-prefetch".into())
            .spawn(move || worker.prefetch_loop())
            .map_err(|e| format!("cannot spawn prefetch thread: {e}"))?;
        Ok(PagedStore { core, prefetcher: Some(prefetcher) })
    }

    /// Fault every tile back in and return it to the matrix, then stop the
    /// prefetch thread; scratch still held (a halted run's) is dropped.
    /// Called exactly once when execution (or the owning job) finishes — on
    /// success *and* on error paths, so callers never observe a hollow
    /// matrix. Tiles whose spill records fail their checksum are restored
    /// as zeros and reported in the returned error.
    pub(crate) fn unpage(&mut self, a: &mut TiledMatrix) -> Result<(), String> {
        self.stop_prefetcher();
        let core = &self.core;
        let mut first_err: Option<String> = None;
        for j in 0..core.slots_per_family / core.mt {
            for i in 0..core.mt {
                let idx = core.slot_index(SlotFamily::A, i, j);
                let buf = lock(&core.slots[idx]).buf.take().unwrap_or_else(|| {
                    let mut buf = vec![0.0; core.slot_len(idx)].into_boxed_slice();
                    if let Err(e) = core.read_record(idx, &mut buf) {
                        first_err.get_or_insert(e);
                        buf.fill(0.0);
                    }
                    buf
                });
                a.put_tile_buf(i, j, buf);
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    fn stop_prefetcher(&mut self) {
        self.core.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.prefetcher.take() {
            let _ = h.join();
        }
    }
}

impl Drop for PagedStore {
    fn drop(&mut self) {
        self.stop_prefetcher();
        let _ = std::fs::remove_file(&self.core.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elim::ElimOp;
    use crate::exec::TFactors;

    fn fixture(mt: usize, nt: usize, b: usize) -> (TaskGraph, TiledMatrix, TFactors) {
        let mut elims = Vec::new();
        for k in 0..mt.min(nt) {
            for i in (k + 1)..mt {
                elims.push(ElimOp::new(k as u32, i as u32, k as u32, true));
            }
        }
        let g = TaskGraph::build(mt, nt, b, &elims);
        let a = TiledMatrix::random(mt, nt, b, 42);
        let f = TFactors::allocate_for(&g, b);
        (g, a, f)
    }

    /// A store over the fixture whose run order is program order (what the
    /// engine's preview gives a flat tree on one FIFO worker is not needed
    /// here: any order is a valid plan).
    fn build(
        a: &mut TiledMatrix,
        f: &TFactors,
        g: &TaskGraph,
        completed: Option<&[bool]>,
        budget: u64,
    ) -> PagedStore {
        let order = || {
            let left = |&t: &u32| !completed.is_some_and(|c| c[t as usize]);
            (0..g.tasks().len() as u32).filter(left).collect()
        };
        let plan = RunPlan { graph: g, completed, order: &order };
        let t = TSet::for_run(&plan, a, f);
        PagedStore::build(a, t, f.ib(), &plan, budget, None).unwrap()
    }

    fn resident(core: &PagedCore, idx: usize) -> bool {
        lock(&core.slots[idx]).buf.is_some()
    }

    /// Evict until nothing unpinned is resident.
    fn evict_all(core: &PagedCore) {
        loop {
            let claim = lock(&core.residency).victims.pop_last();
            match claim {
                Some(v) => core.evict(v).map(drop).unwrap(),
                None => return,
            }
        }
    }

    #[test]
    fn build_unpage_roundtrips_bitwise() {
        let (g, mut a, f) = fixture(3, 2, 4);
        let before = a.to_dense();
        let tile_bytes = (4 * 4 * 8) as u64;
        // Budget of two tiles: almost everything spills at build time.
        let mut store = build(&mut a, &f, &g, None, 2 * tile_bytes);
        assert!(lock(&store.core.residency).resident <= 2 * tile_bytes);
        store.unpage(&mut a).unwrap();
        assert_eq!(a.to_dense().data(), before.data(), "spill roundtrip must be bitwise");
        let s = store.core.summary();
        assert!(s.evictions > 0 && s.writebacks > 0, "build under budget must evict");
    }

    #[test]
    fn build_keeps_the_tiles_needed_first_and_no_factor_buffer() {
        let (g, mut a, f) = fixture(3, 2, 4);
        let tile_bytes = (4 * 4 * 8) as u64;
        let mut store = build(&mut a, &f, &g, None, 2 * tile_bytes);
        let core = Arc::clone(&store.core);
        // Program order opens with GEQRT(0,0) then UNMQR(0,0;1): A(0,0) and
        // A(0,1) are the two tiles needed first.
        assert!(resident(&core, core.slot_index(SlotFamily::A, 0, 0)));
        assert!(resident(&core, core.slot_index(SlotFamily::A, 0, 1)));
        // Six matrix tiles, two kept: four write-backs, and not one for a
        // factor buffer — those start as zeros with no record.
        let s = core.summary();
        assert_eq!((s.evictions, s.writebacks), (4, 4));
        let vg = core.slot_index(SlotFamily::Vg, 0, 0);
        assert!(!resident(&core, vg) && !lock(&core.slots[vg]).on_disk);
        // First pin materialises it: no fault, no prefetch.
        let ev = core.pin_task(0).unwrap();
        assert_eq!(ev.demand_faults, 0);
        assert!(resident(&core, vg));
        core.unpin_task(0);
        assert_eq!(core.summary().demand_faults, 0);
        store.unpage(&mut a).unwrap();
    }

    #[test]
    fn pin_faults_in_and_blocks_eviction() {
        let (g, mut a, f) = fixture(3, 2, 3);
        let tile_bytes = (3 * 3 * 8) as u64;
        let mut store = build(&mut a, &f, &g, None, 2 * tile_bytes);
        store.stop_prefetcher();
        let core = Arc::clone(&store.core);
        // The last task, TSMQR(2,1;1)... pins A(2,1), spilled at build time.
        let last = (g.tasks().len() - 1) as u32;
        let idx = core.slot_index(SlotFamily::A, 2, 1);
        assert!(core.slots_of(last).iter().any(|&e| (e & !WRITES) as usize == idx));
        assert!(!resident(&core, idx));
        let ev = core.pin_task(last).unwrap();
        assert!(ev.demand_faults > 0, "evicted slot must fault in on pin");
        // A pinned slot survives any amount of eviction pressure.
        evict_all(&core);
        assert!(resident(&core, idx), "pinned slot evicted");
        core.unpin_task(last);
        evict_all(&core);
        assert!(!resident(&core, idx), "unpinned slot must evict");
        store.unpage(&mut a).unwrap();
    }

    #[test]
    fn eviction_takes_the_furthest_next_use_and_spares_a_prefetched_slot() {
        let (g, mut a, f) = fixture(4, 3, 3);
        let tile_bytes = (3 * 3 * 8) as u64;
        // Room for every matrix tile, so the test chooses what is spilled.
        let mut store = build(&mut a, &f, &g, None, 12 * tile_bytes);
        store.stop_prefetcher();
        let core = Arc::clone(&store.core);
        // Spill the tile needed first of all, A(0,0) (task 0 touches it)...
        let idx = core.slot_index(SlotFamily::A, 0, 0);
        assert!(lock(&core.residency).victims.remove(&(0, idx as u32)));
        assert!(core.evict((0, idx as u32)).unwrap());
        // ...and bring it back the way the prefetcher does, ahead of task 0.
        assert!(core.prefetch_slot(idx, 0));
        assert!(resident(&core, idx) && lock(&core.slots[idx]).prefetched);
        assert_eq!(core.summary().prefetches, 1);
        // Demand reservations now evict one slot each. Under LRU the
        // prefetched slot — never pinned, so with the oldest stamp — went
        // first; keyed by its imminent next use it goes last.
        for _ in 0..11 {
            assert_eq!(core.reserve_room(tile_bytes, None).unwrap(), Some(1));
            assert!(resident(&core, idx), "prefetched slot evicted before a later-needed one");
        }
        // The prefetcher never displaces a slot needed as soon or sooner.
        assert_eq!(core.reserve_room(tile_bytes, Some(0)).unwrap(), None);
        store.unpage(&mut a).unwrap();
    }

    #[test]
    fn resumed_run_starts_its_cursors_past_completed_tasks() {
        let (g, mut a, f) = fixture(3, 2, 3);
        let tile_bytes = (3 * 3 * 8) as u64;
        // Panel 0 done: every task with k == 0.
        let completed: Vec<bool> = g.tasks().iter().map(|t| t.k == 0).collect();
        let mut store = build(&mut a, &f, &g, Some(&completed), 64 * tile_bytes);
        let core = Arc::clone(&store.core);
        for key in lock(&core.residency).victims.iter().map(|v| v.0).filter(|&k| k != NEVER) {
            let task = core.order[key as usize] as usize;
            assert!(!completed[task], "next use of a slot points at completed task {task}");
        }
        // A(0,0) is only touched by panel 0: never needed again. No task
        // left reads a T panel 0 wrote, so none is rebuilt (their τ stays
        // in `f`); panel 1's are still lazy zeros.
        let idx = core.slot_index(SlotFamily::A, 0, 0);
        assert_eq!(lock(&core.slots[idx]).key, Some(NEVER));
        for (i, k) in [(0, 0), (1, 1)] {
            let tg = core.slot_index(SlotFamily::Tg, i, k);
            assert!(!resident(&core, tg) && !lock(&core.slots[tg]).on_disk);
        }
        store.unpage(&mut a).unwrap();
    }

    #[test]
    fn corrupt_record_is_a_typed_fault() {
        let (g, mut a, f) = fixture(2, 2, 3);
        let tile_bytes = (3 * 3 * 8) as u64;
        let mut store = build(&mut a, &f, &g, None, tile_bytes);
        store.stop_prefetcher();
        let core = Arc::clone(&store.core);
        // Ensure the victim slot is on disk and evicted.
        let idx = core.slot_index(SlotFamily::A, 1, 1);
        assert!(!resident(&core, idx));
        // Flip one payload byte of its record: the checksum trailer must
        // catch the at-rest corruption on the next fault-in.
        let off = core.record_offset(idx) + 20;
        let mut byte = [0u8; 1];
        core.file.read_exact_at(&mut byte, off).unwrap();
        byte[0] ^= 0x10;
        core.file.write_all_at(&byte, off).unwrap();
        let last = (g.tasks().len() - 1) as u32;
        let err = core.pin_task(last).unwrap_err();
        assert!(err.contains("corrupt"), "error must name the corruption: {err}");
        // Unpage restores what it can and reports the bad slot.
        let err = store.unpage(&mut a).unwrap_err();
        assert!(err.contains("A(1,1)"), "error must name the slot: {err}");
    }

    /// A version-3 binary spilled a V copy as the whole `b × b` factored
    /// tile. Such a record is refused by its version on fault-in, never
    /// read as `v_len(b)` doubles.
    #[test]
    fn a_full_tile_v_copy_record_is_a_version_error() {
        let (g, mut a, f) = fixture(2, 2, 3);
        let mut store = build(&mut a, &f, &g, None, (3 * 3 * 8) as u64);
        store.stop_prefetcher();
        let core = Arc::clone(&store.core);
        let idx = core.slot_index(SlotFamily::Vg, 0, 0);
        let tile: Vec<f64> = (0..9).map(|e| e as f64 * 0.5).collect();
        let at = core.record_offset(idx);
        write_f64_record(SPILL_MAGIC, 3, S_TILE, &tile, |off, bytes| {
            core.file.write_all_at(bytes, at + off as u64)
        })
        .unwrap();
        let mut dst = vec![0.0; core.slot_len(idx)];
        let err = core.read_record(idx, &mut dst).unwrap_err();
        assert!(err.contains("format version 3; this build reads version 4"), "{err}");
        assert!(!err.contains("corrupt"), "a version error is not corruption: {err}");
        let _ = store.unpage(&mut a);
    }

    #[test]
    fn old_version_record_is_unsupported_not_corrupt() {
        let (g, mut a, f) = fixture(2, 2, 3);
        let tile_bytes = (3 * 3 * 8) as u64;
        let mut store = build(&mut a, &f, &g, None, tile_bytes);
        store.stop_prefetcher();
        let core = Arc::clone(&store.core);
        let idx = core.slot_index(SlotFamily::A, 1, 1);
        // Rewrite the record's version word to 1 (the FNV-trailer format).
        core.file.write_all_at(&1u32.to_le_bytes(), core.record_offset(idx) + 8).unwrap();
        let mut dst = vec![0.0; 9];
        let err = core.read_record(idx, &mut dst).unwrap_err();
        assert!(err.contains("format version 1; this build reads version 4"), "{err}");
        assert!(!err.contains("corrupt"), "a version error is not corruption: {err}");
        let _ = store.unpage(&mut a);
    }
}
