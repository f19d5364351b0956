//! Serial and multithreaded DAG executors, and the execution core they
//! share with the multi-job pool.
//!
//! Entry points to run a factorization DAG (five, all here):
//!
//! * [`execute_serial`] / [`execute_serial_ib`] — program order on the
//!   calling thread, no scheduler, panics propagate. The reference oracle
//!   every bitwise-parity suite compares against.
//! * [`try_execute_with`] — the engine: worker threads, inner block size,
//!   scheduling policy, bounded per-task retry with write-set rollback,
//!   deterministic fault injection ([`crate::FaultPlan`]), integrity
//!   guards, a stall watchdog and an optional paged tile store, all
//!   selected by [`ExecOptions`]; every failure is a typed [`ExecError`].
//! * [`try_execute_traced`] — the same run plus an [`ExecTrace`].
//! * [`try_execute_parallel`] — a shim over [`try_execute_with`] kept for
//!   the benchmark harness.
//!
//! [`crate::JobPool`] runs many DAGs on one set of workers, and takes and
//! resumes their checkpoints. [`try_apply_q`] runs the same engine over a
//! [`TaskGraph::apply_q`] graph to apply Q.
//!
//! The execution core is four pieces, each written once: the kernel
//! dispatcher (`hqr_kernels::run_kernel`, reached through
//! [`TileStore::run_task`]), the worker loop ([`worker_loop`]: pop local →
//! take global → rotated victim scan → backoff → bounded park), the
//! dependency state and its release rule ([`Frontier`]), and the per-DAG
//! run state ([`DagRun`]: store, guards, fault plan, a [`Frontier`], and
//! the attempt/complete/release steps), fed by a shared [`GlobalQueue`]. All are
//! public: `hqr-net` workers run them too, and the simulator's event
//! engine releases tasks through the same [`Frontier`].

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashSet};
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crossbeam_deque::Injector;
/// The deque types [`worker_loop`] takes, re-exported for its clients.
pub use crossbeam_deque::{Steal, Stealer, Worker};
use crossbeam_utils::Backoff;

use crate::elim::ElimOp;
use crate::error::{ExecError, StallCause, StallReport};
use crate::fault::{
    ExecOptions, FaultKind, FaultPlan, FaultStats, QuietPanics, INJECTED_FAULT_PREFIX,
    POISON_STRIKES,
};
use crate::graph::TaskGraph;
use crate::integrity::{GuardStore, IntegrityMode};
use crate::lineage::Slot;
use crate::sched::{self, SchedPolicy};
use crate::store::{RunPlan, TileStore};
use crate::task::{SlotFamily, Task};
use hqr_kernels::{KernelClass, KernelKind, Trans};
use hqr_tile::TiledMatrix;

/// The τ of each GEQRT and kill kernel of a factorization, `tau_len(b)`
/// doubles: with the factored matrix (R above, V below) and the elimination
/// list, all of Q, as LAPACK's `dgeqrf` keeps it. T and the V copies are
/// run storage; `hqr_kernels::t_from_tau` rebuilds T from V and τ at `ib`.
#[derive(Clone)]
pub struct TFactors {
    pub(crate) b: usize,
    pub(crate) ib: usize,
    pub(crate) mt: usize,
    pub(crate) nt: usize,
    pub(crate) tg: Vec<Option<Box<[f64]>>>,
    pub(crate) tk: Vec<Option<Box<[f64]>>>,
}

impl std::fmt::Debug for TFactors {
    /// Summarized (the buffers hold O(mt·nt·b) floats).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let count = |v: &[Option<Box<[f64]>>]| v.iter().filter(|o| o.is_some()).count();
        f.debug_struct("TFactors")
            .field("b", &self.b)
            .field("ib", &self.ib)
            .field("mt", &self.mt)
            .field("nt", &self.nt)
            .field("tg_buffers", &count(&self.tg))
            .field("tk_buffers", &count(&self.tk))
            .finish()
    }
}

/// Every T slot `graph`'s tasks write, as `(family, i, k)`: the slots a
/// factorization keeps τ for besides the matrix tiles.
pub(crate) fn factor_slots(graph: &TaskGraph) -> impl Iterator<Item = Slot> + '_ {
    graph.tasks().iter().flat_map(Task::writes).filter(|s| is_t(s.0))
}

/// The families a [`TFactors`] holds.
fn is_t(fam: SlotFamily) -> bool {
    matches!(fam, SlotFamily::Tg | SlotFamily::Tk)
}

/// One buffer per T slot of a `mt × nt` tile matrix, indexed `i + k·mt`.
type Family = Vec<Option<Box<[f64]>>>;

/// How many tasks that are not done read each scratch slot — GEQRT's V
/// copy and T (UNMQR reads both), a kill's T (its updates read it) —
/// indexed `i + k·mt` within the `Vg`, `Tg` and `Tk` families in turn: a
/// slot is needed from its writer until the last of them completes.
/// Counted from the graph; a resumed run leaves out the readers
/// `completed` marks.
pub(crate) struct Readers {
    pending: Vec<AtomicU32>,
    mt: usize,
    tiles: usize,
}

impl Readers {
    pub(crate) fn new(graph: &TaskGraph, completed: Option<&[bool]>) -> Self {
        let (mt, tiles) = (graph.mt(), graph.mt() * graph.nt());
        let pending = (0..3 * tiles).map(|_| AtomicU32::new(0)).collect();
        let mut readers = Readers { pending, mt, tiles };
        for (t, task) in graph.tasks().iter().enumerate() {
            if !completed.is_some_and(|c| c[t]) {
                for s in task.reads() {
                    if let Some(at) = readers.at(s) {
                        *readers.pending[at].get_mut() += 1;
                    }
                }
            }
        }
        readers
    }

    /// Where scratch slot `s` is counted; `None` for a tile.
    fn at(&self, (fam, i, k): Slot) -> Option<usize> {
        let family = (fam as usize).checked_sub(1)?;
        Some(family * self.tiles + i + k * self.mt)
    }

    /// Count `t`'s completion: the scratch slots it was the last pending
    /// reader of, and those it wrote that nothing will read.
    pub(crate) fn spend(&self, t: &Task) -> Spent {
        let (mut spent, mut n) = (Spent::default(), 0);
        let writes = t.writes().into_iter().map(|s| (s, false));
        for (s, read) in writes.chain(t.reads().into_iter().map(|s| (s, true))) {
            let Some(at) = self.at(s) else { continue };
            // Every reader depends on the writer, so none has counted down.
            let ended = match read {
                true => self.pending[at].fetch_sub(1, Ordering::AcqRel) == 1,
                false => self.pending[at].load(Ordering::Acquire) == 0,
            };
            if ended {
                spent.0[n] = Some(s);
                n += 1;
            }
        }
        spent
    }
}

/// The tasks done in `completed` that write a slot of `family` which a
/// task not done still reads: what a run resumed there needs from before.
fn live_writers(graph: &TaskGraph, completed: &[bool], family: fn(SlotFamily) -> bool) -> Vec<u32> {
    let tasks = graph.tasks().iter().enumerate();
    let pending = tasks.clone().filter(|&(t, _)| !completed[t]);
    let read: HashSet<Slot> =
        pending.flat_map(|(_, t)| t.reads()).filter(|s| family(s.0)).collect();
    let live =
        tasks.filter(|(t, task)| completed[*t] && task.writes().iter().any(|s| read.contains(s)));
    live.map(|(t, _)| t as u32).collect()
}

/// The GEQRTs done in `completed` whose V copy a task not done still
/// reads, as task indices: the copies a run resumed there needs, which
/// are rebuilt from the factored tiles.
pub fn live_v_copies(graph: &TaskGraph, completed: &[bool]) -> Vec<u32> {
    live_writers(graph, completed, |fam| fam == SlotFamily::Vg)
}

impl TFactors {
    /// No buffer at all: the families a decoder fills.
    pub(crate) fn empty(mt: usize, nt: usize, b: usize, ib: usize) -> Self {
        let none = || (0..mt * nt).map(|_| None).collect();
        TFactors { b, ib, mt, nt, tg: none(), tk: none() }
    }

    /// A zeroed τ for every factor slot the graph writes, at `ib`.
    pub fn allocate_for(graph: &TaskGraph, ib: usize) -> Self {
        let (b, mt) = (graph.b(), graph.mt());
        let mut f = TFactors::empty(mt, graph.nt(), b, ib);
        for (fam, i, k) in factor_slots(graph) {
            let family = f.family_mut(fam).expect("a factor family");
            family[i + k * mt].get_or_insert_with(|| vec![0.0; hqr_kernels::tau_len(b)].into());
        }
        f
    }

    /// Inner block size of the run, which every rebuilt T uses.
    pub fn ib(&self) -> usize {
        self.ib
    }

    pub(crate) fn family_mut(&mut self, fam: SlotFamily) -> Option<&mut Vec<Option<Box<[f64]>>>> {
        match fam {
            SlotFamily::Tg => Some(&mut self.tg),
            SlotFamily::Tk => Some(&mut self.tk),
            SlotFamily::A | SlotFamily::Vg => None,
        }
    }

    /// Tile size.
    pub fn b(&self) -> usize {
        self.b
    }

    /// The τ of T slot `(fam, i, k)`: `None` when the graph never writes
    /// that slot, and for the `A` family (its tiles are the matrix's)
    /// and the `Vg` family (V lives in the factored tile).
    pub fn slot(&self, fam: SlotFamily, i: usize, k: usize) -> Option<&[f64]> {
        let family = match fam {
            SlotFamily::Tg => &self.tg,
            SlotFamily::Tk => &self.tk,
            SlotFamily::A | SlotFamily::Vg => return None,
        };
        family[i + k * self.mt].as_deref()
    }

    /// τ of the GEQRT applied to row `i` in panel `k`.
    pub fn tg(&self, i: usize, k: usize) -> Option<&[f64]> {
        self.slot(SlotFamily::Tg, i, k)
    }

    /// τ of the kill (TSQRT/TTQRT) whose victim was row `i`, panel `k`.
    pub fn tk(&self, i: usize, k: usize) -> Option<&[f64]> {
        self.slot(SlotFamily::Tk, i, k)
    }

    /// Mutable view of an allocated τ, for callers (the distributed gather
    /// step) that fill a [`TFactors`] from bytes computed elsewhere.
    /// `None` when the graph never writes that slot.
    pub fn slot_mut(&mut self, fam: SlotFamily, i: usize, k: usize) -> Option<&mut [f64]> {
        let idx = i + k * self.mt;
        self.family_mut(fam)?.get_mut(idx).and_then(|o| o.as_deref_mut())
    }

    /// Bit-exact equality of every τ (comparing `f64::to_bits`, so
    /// `-0.0 != 0.0` and NaNs compare by payload) — the check behind the
    /// "resume is bitwise-identical" guarantee. T is a function of V and τ
    /// on a fixed arm, so equal tiles and τ mean equal T.
    pub fn bitwise_eq(&self, other: &TFactors) -> bool {
        fn family_eq(a: &[Option<Box<[f64]>>], b: &[Option<Box<[f64]>>]) -> bool {
            a.len() == b.len()
                && a.iter().zip(b).all(|(x, y)| match (x, y) {
                    (None, None) => true,
                    (Some(x), Some(y)) => {
                        x.len() == y.len()
                            && x.iter().zip(y.iter()).all(|(p, q)| p.to_bits() == q.to_bits())
                    }
                    _ => false,
                })
        }
        self.b == other.b
            && self.ib == other.ib
            && self.mt == other.mt
            && self.nt == other.nt
            && family_eq(&self.tg, &other.tg)
            && family_eq(&self.tk, &other.tk)
    }
}

/// T factors rebuilt outside the run that made them, `t_len(b, ib)`
/// doubles per slot, indexed as [`TFactors`]: those an application of Q
/// reads, and those a resumed run starts with. A run's own T are scratch
/// ([`TileStore`]).
pub(crate) struct TSet {
    pub(crate) tg: Family,
    pub(crate) tk: Family,
}

impl TSet {
    /// The T a run resumed at `plan.completed` starts with: each one a
    /// task not done reads and a done task wrote, rebuilt from `a` and `f`.
    pub(crate) fn for_run(plan: &RunPlan<'_>, a: &TiledMatrix, f: &TFactors) -> Self {
        let RunPlan { graph, completed, .. } = *plan;
        let live = completed.map_or_else(Vec::new, |done| live_writers(graph, done, is_t));
        let tasks: Vec<Task> = live.into_iter().map(|t| graph.tasks()[t as usize]).collect();
        TSet::rebuilt(a, f, &tasks)
    }

    /// The T of each slot a task of `tasks` writes or reads, rebuilt for
    /// the factor kernel that made it from its factored tile A(i,k) and its
    /// τ in `f`.
    pub(crate) fn rebuilt(a: &TiledMatrix, f: &TFactors, tasks: &[Task]) -> Self {
        let (b, ib, len) = (f.b, f.ib, hqr_kernels::t_len(f.b, f.ib));
        let none = || (0..f.mt * f.nt).map(|_| None).collect();
        let mut set = TSet { tg: none(), tk: none() };
        let touched =
            tasks.iter().flat_map(|t| t.writes().into_iter().chain(t.reads()).map(move |s| (s, t)));
        let made: BTreeMap<Slot, KernelClass> =
            touched.filter(|(s, _)| is_t(s.0)).map(|(s, t)| (s, t.kind.class())).collect();
        for ((fam, i, k), class) in made {
            let kind = match (fam, class) {
                (SlotFamily::Tg, _) => KernelKind::Geqrt,
                (_, KernelClass::Tt) => KernelKind::Ttqrt,
                (_, KernelClass::Ts) => KernelKind::Tsqrt,
            };
            let tau = f.slot(fam, i, k).expect("a factorization keeps τ for every factor slot");
            let family = if fam == SlotFamily::Tg { &mut set.tg } else { &mut set.tk };
            let t = family[i + k * f.mt].insert(vec![0.0; len].into());
            hqr_kernels::t_from_tau(kind, b, ib, a.tile(i, k), tau, t);
        }
        set
    }
}

/// Execute the DAG on the calling thread, in program order (which
/// [`TaskGraph::build`] guarantees is topological).
pub fn execute_serial(graph: &TaskGraph, a: &mut TiledMatrix) -> TFactors {
    execute_serial_ib(graph, a, graph.b())
}

/// [`execute_serial`] with an explicit inner block size (PLASMA's IB);
/// `ib == b` selects the unblocked kernels.
pub fn execute_serial_ib(graph: &TaskGraph, a: &mut TiledMatrix, ib: usize) -> TFactors {
    let mut f = TFactors::allocate_for(graph, ib);
    serial_run(graph, a, &mut f).unpage(a).expect("a resident store reads no spill file");
    f
}

/// [`execute_serial_ib`]'s run into `f`, whose store it leaves open.
fn serial_run(graph: &TaskGraph, a: &mut TiledMatrix, f: &mut TFactors) -> TileStore {
    let store = TileStore::new(a, f);
    let readers = Readers::new(graph, None);
    for t in graph.tasks() {
        // SAFETY: single-threaded, topological order; `t` was the last
        // task of each slot it spends, and the ones left are later.
        unsafe {
            store.run_task(t, graph.trans());
            store.keep_tau(t);
            readers.spend(t).slots().for_each(|s| drop(store.release(s)));
        }
    }
    store
}

/// One executed task in an execution trace: which lane ran it and when
/// (seconds since the run started).
#[derive(Clone, Copy, Debug)]
pub struct TaskRecord {
    /// Index into [`TaskGraph::tasks`].
    pub task: u32,
    /// Lane that executed it: a worker thread, or a simulated core
    /// (see [`ExecTrace::nodes`] for the numbering).
    pub worker: u16,
    /// Start time (s): the worker picked the task up.
    pub start: f64,
    /// When the kernel itself began (s): the end of the pin pass that made
    /// the task's slots resident on a paged run, `== start` on a resident
    /// one. `start..kernel_start` is time spent waiting on the storage
    /// tier, `kernel_start..end` computing.
    pub kernel_start: f64,
    /// End time (s).
    pub end: f64,
}

/// Per-worker scheduler counters, accumulated by the work-stealing loop.
///
/// Together they attribute every task acquisition to its source — the
/// worker's own LIFO deque (data-reuse hits), the global injector (initial
/// frontier and poison re-enqueues), or a peer's deque (load-balancing
/// steals) — and count the recovery events the fault layer triggered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerCounters {
    /// Tasks popped from the worker's own LIFO deque.
    pub local_pops: u64,
    /// Tasks taken from the global injector.
    pub injector_pops: u64,
    /// Tasks stolen FIFO from a peer worker's deque.
    pub steals: u64,
    /// Panics caught while running tasks (injected and genuine).
    pub panics_caught: u64,
    /// Failed attempts rolled back and retried on this worker.
    pub retries: u64,
    /// Tasks this (poisoned) worker handed back to its peers.
    pub requeues: u64,
    /// Paged runs only: tiles this worker faulted in from the spill file
    /// on demand (the prefetcher missed them).
    pub tile_faults: u64,
    /// Paged runs only: pins that found their tile already resident
    /// because the background prefetcher loaded it.
    pub prefetch_hits: u64,
    /// Paged runs only: evictions this worker's pins triggered to make
    /// room in the resident tier.
    pub tile_spills: u64,
}

/// What a scheduler instant event marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InstantKind {
    /// A task attempt panicked and the panic was caught.
    PanicCaught,
    /// A rolled-back task attempt is about to re-run on the same worker.
    Retry,
    /// A poisoned worker pushed the task back for healthy peers.
    Requeue,
    /// A tile-guard verification caught silent data corruption.
    SdcDetected,
    /// A corrupted task attempt was rolled back and is about to recompute.
    SdcRecomputed,
    /// Paged runs only: a task's pin pass demand-faulted at least one
    /// tile in from the spill file.
    TileFaulted,
    /// Paged runs only: a task's pin pass evicted (spilled) at least one
    /// resident tile to make room.
    TileSpilled,
    /// Simulated runs only: a node crashed (drawn on its first lane).
    NodeCrash,
    /// Simulated runs only: the interconnect degraded (drawn on lane 0).
    LinkDegrade,
}

/// A point event on a lane's timeline (fault/retry/spill markers).
#[derive(Clone, Copy, Debug)]
pub struct ExecInstant {
    /// What happened.
    pub kind: InstantKind,
    /// Task involved; `None` for events that concern no task (a node
    /// crash, a link degradation).
    pub task: Option<u32>,
    /// Lane it happened on.
    pub worker: u16,
    /// Seconds since the run started.
    pub time: f64,
}

/// One inter-node message of a simulated run: the output tile of
/// `producer` moving from node `src` to node `dst`.
#[derive(Clone, Copy, Debug)]
pub struct TransferRecord {
    /// Task whose output tile moved.
    pub producer: u32,
    /// Sending node.
    pub src: u16,
    /// Receiving node.
    pub dst: u16,
    /// Time the message left the sender's NIC (s).
    pub depart: f64,
    /// Time the payload was available at the receiver (s).
    pub arrive: f64,
    /// True for crash-recovery restaging traffic.
    pub recovery: bool,
}

/// Timeline of a traced run, real or simulated: the one schedule record
/// every backend fills and [`crate::trace::chrome_trace_from_exec`]
/// renders.
#[derive(Clone, Debug)]
pub struct ExecTrace {
    /// Number of lanes: worker threads, or simulated cores over all nodes.
    pub nthreads: usize,
    /// Number of nodes the lanes are spread over (1 for an in-process
    /// run). Lanes are numbered node-major:
    /// `lane = node * (nthreads / nodes) + core`.
    pub nodes: usize,
    /// Inter-node messages in send order; empty for an in-process run.
    pub transfers: Vec<TransferRecord>,
    /// Scheduling policy the run used for its shared ready queue.
    pub policy: SchedPolicy,
    /// Per-task records, sorted by start time.
    pub records: Vec<TaskRecord>,
    /// Fault/retry instants, sorted by time.
    pub instants: Vec<ExecInstant>,
    /// Scheduler counters, one per worker.
    pub counters: Vec<WorkerCounters>,
    /// Wall-clock duration of the whole execution (s).
    pub wall: f64,
    /// Spill-traffic totals when the run used the paged (two-tier) tile
    /// store; `None` for fully-resident runs.
    pub spill: Option<crate::spill::SpillSummary>,
}

impl ExecTrace {
    /// Total peer-deque steals across all workers.
    pub fn total_steals(&self) -> u64 {
        self.counters.iter().map(|c| c.steals).sum()
    }

    /// Total injector pops across all workers.
    pub fn total_injector_pops(&self) -> u64 {
        self.counters.iter().map(|c| c.injector_pops).sum()
    }

    /// Busy seconds per worker.
    pub fn per_worker_busy(&self) -> Vec<f64> {
        let mut busy = vec![0.0; self.nthreads];
        for r in &self.records {
            busy[r.worker as usize] += r.end - r.start;
        }
        busy
    }

    /// Average worker utilization over the wall-clock span.
    pub fn utilization(&self) -> f64 {
        if self.wall == 0.0 {
            return 0.0;
        }
        self.per_worker_busy().iter().sum::<f64>() / (self.wall * self.nthreads as f64)
    }

    /// Kernel seconds per kernel kind (`kernel_start..end`: a paged run's
    /// pin waits are busy time, not kernel time), indexed by
    /// [`crate::analysis::kind_index`].
    pub fn kernel_seconds(&self, tasks: &[Task]) -> [f64; 6] {
        let mut out = [0.0; 6];
        for r in &self.records {
            out[crate::analysis::kind_index(tasks[r.task as usize].kind)] += r.end - r.kernel_start;
        }
        out
    }
}

/// Execute on `nthreads` workers with typed errors.
///
/// A one-line shim over [`try_execute_with`] (`ExecOptions::with_threads`,
/// recovery accounting dropped), kept only because the out-of-tree
/// benchmark harness imports it; new code should call [`try_execute_with`].
pub fn try_execute_parallel(
    graph: &TaskGraph,
    a: &mut TiledMatrix,
    nthreads: usize,
) -> Result<TFactors, ExecError> {
    try_execute_with(graph, a, &ExecOptions::with_threads(nthreads)).map(|(f, _)| f)
}

/// Fault-tolerant execution with full control: worker count, inner block
/// size, per-task retry with write-set rollback, deterministic fault
/// injection and a stall watchdog. Returns the factors plus recovery
/// accounting.
///
/// Newly-enabled tasks go to the completing worker's LIFO deque, so a core
/// preferentially runs close successors of the task it just finished — the
/// data-reuse heuristic of DAGuE (§IV-C). Idle workers steal FIFO from
/// peers or from the shared ready queue. A kernel panic halts the sibling
/// workers and is reported as a typed [`ExecError`] instead of unwinding
/// through the caller or deadlocking the pool.
///
/// Because a failed attempt is rolled back to the task's pre-execution
/// state before re-running, and the kernels are deterministic, a recovered
/// run produces a factorization bitwise-identical to a fault-free run.
pub fn try_execute_with(
    graph: &TaskGraph,
    a: &mut TiledMatrix,
    opts: &ExecOptions,
) -> Result<(TFactors, FaultStats), ExecError> {
    let (f, stats, _) = run_engine(graph, a, opts, None, false)?;
    Ok((f, stats))
}

/// [`try_execute_with`] plus a full [`ExecTrace`]: per-task spans,
/// fault/retry instants, and per-worker scheduler counters — everything
/// [`crate::trace::chrome_trace_from_exec`] needs to render a Perfetto
/// timeline.
pub fn try_execute_traced(
    graph: &TaskGraph,
    a: &mut TiledMatrix,
    opts: &ExecOptions,
) -> Result<(TFactors, FaultStats, ExecTrace), ExecError> {
    let (f, stats, trace) = run_engine(graph, a, opts, None, true)?;
    Ok((f, stats, trace.expect("tracing requested")))
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast_ref::<&str>() {
        Some(s) => (*s).to_string(),
        None => match payload.downcast_ref::<String>() {
            Some(s) => s.clone(),
            None => "non-string panic payload".to_string(),
        },
    }
}

/// Lock a mutex, tolerating poisoning: the engine's own `catch_unwind`
/// keeps kernel panics from unwinding through a held lock, but a daemon
/// hosting many jobs must never let one panicked thread wedge the whole
/// process behind a poisoned mutex.
pub(crate) fn relock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn set_error(slot: &Mutex<Option<ExecError>>, e: ExecError) {
    let mut guard = relock(slot);
    if guard.is_none() {
        *guard = Some(e);
    }
}

/// Nap length for an idle worker whose exponential backoff ladder is
/// exhausted: long enough to stop burning the core through a serial tail,
/// short enough that newly released work (and a halt) is observed almost
/// immediately. A release from outside the loop can end the nap early by
/// unparking the worker's thread.
const IDLE_PARK: Duration = Duration::from_micros(100);

/// Where [`worker_loop`] found a task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// The worker's own LIFO deque (data-reuse hit).
    Local,
    /// The executor's shared ready queue.
    Global,
    /// A peer worker's deque (load-balancing steal).
    Peer,
}

/// Acquire one task for worker `me`: its own deque first, then the shared
/// queue (`take_global`, which may move a batch into `local`), then the
/// peers' deques. Retries transient races ([`Steal::Retry`]) until every
/// source reports a definite answer; returns `None` only when the shared
/// queue and all peers were empty.
pub(crate) fn acquire<T>(
    me: usize,
    local: &Worker<T>,
    stealers: &[Stealer<T>],
    take_global: &impl Fn(&Worker<T>) -> Steal<T>,
) -> Option<(T, Source)> {
    if let Some(task) = local.pop() {
        return Some((task, Source::Local));
    }
    loop {
        let mut contended = false;
        match take_global(local) {
            Steal::Success(task) => return Some((task, Source::Global)),
            Steal::Retry => contended = true,
            Steal::Empty => {}
        }
        // Start the victim scan just past `me` and wrap, so a herd of idle
        // workers fans out across victims instead of all draining the
        // lowest-index deques first.
        let n = stealers.len();
        for off in 1..n {
            match stealers[(me + off) % n].steal() {
                Steal::Success(task) => return Some((task, Source::Peer)),
                Steal::Retry => contended = true,
                Steal::Empty => {}
            }
        }
        if !contended {
            return None;
        }
    }
}

/// The worker loop every executor runs — the single-DAG engine (which
/// also applies Q, [`try_apply_q`]), the multi-job
/// [`crate::pool::JobPool`] and an `hqr-net` worker's compute thread (one
/// worker, no peers): `acquire` a task and hand it to `run` until `run`
/// breaks, `halted()` turns true, or no task can be found and `drained()`
/// says none will come. An idle worker climbs the spin/yield backoff
/// ladder, then parks in bounded naps of `IDLE_PARK` instead of burning
/// its core through a long serial tail; new work is picked up within one
/// nap, or at once if whoever released it unparks the thread.
pub fn worker_loop<T>(
    me: usize,
    local: &Worker<T>,
    stealers: &[Stealer<T>],
    take_global: impl Fn(&Worker<T>) -> Steal<T>,
    halted: impl Fn() -> bool,
    drained: impl Fn() -> bool,
    mut run: impl FnMut(T, Source) -> ControlFlow<()>,
) {
    let backoff = Backoff::new();
    while !halted() {
        let Some((task, source)) = acquire(me, local, stealers, &take_global) else {
            if drained() {
                break;
            }
            if backoff.is_completed() {
                // Re-check the halt first: one raised while this worker was
                // scanning must not pay another park of shutdown latency.
                if halted() {
                    break;
                }
                std::thread::park_timeout(IDLE_PARK);
            } else {
                backoff.snooze();
            }
            continue;
        };
        backoff.reset();
        if run(task, source).is_break() {
            break;
        }
    }
}

/// The shared ready queue of the execution core, feeding idle workers: a
/// heap ordered by the run's static priority keys when the run publishes
/// its releases ([`RunPolicy::publish_rest`]), so they are handed out
/// best-priority-first, and the FIFO injector (with batch steals into the
/// thief's deque) when it keeps them.
pub enum GlobalQueue {
    /// Arrival order.
    Fifo(Injector<u32>),
    /// Lowest `(rank, task id)` first.
    Prio(Mutex<BinaryHeap<Reverse<(u64, u32)>>>),
}

impl GlobalQueue {
    /// The queue a run with this [`RunPolicy::publish_rest`] uses.
    pub fn new(publish_rest: bool) -> GlobalQueue {
        match publish_rest {
            true => GlobalQueue::Prio(Mutex::new(BinaryHeap::new())),
            false => GlobalQueue::Fifo(Injector::new()),
        }
    }

    /// Enqueue `tid` under its priority key (ignored by the FIFO queue).
    pub fn push(&self, tid: u32, ranks: &[u64]) {
        match self {
            GlobalQueue::Fifo(inj) => inj.push(tid),
            GlobalQueue::Prio(q) => relock(q).push(Reverse((ranks[tid as usize], tid))),
        }
    }

    /// Take the next task: lowest key first for the heap; for the FIFO
    /// injector a batch is stolen into `dest` and its first task returned.
    pub fn take(&self, dest: &Worker<u32>) -> Steal<u32> {
        match self {
            GlobalQueue::Fifo(inj) => inj.steal_batch_and_pop(dest),
            GlobalQueue::Prio(q) => match relock(q).pop() {
                Some(Reverse((_, tid))) => Steal::Success(tid),
                None => Steal::Empty,
            },
        }
    }
}

/// Everything one worker thread accumulates privately and hands back when
/// the scope joins.
#[derive(Default)]
struct WorkerLog {
    records: Vec<TaskRecord>,
    instants: Vec<ExecInstant>,
    counters: WorkerCounters,
    stats: FaultStats,
}

/// How one task's attempt ladder ended without an error.
pub enum Attempt {
    /// The task ran to completion; the caller must [`DagRun::complete`] it.
    /// On a paged store, `pinned_at` is when its pin pass ended.
    Done { pinned_at: Option<Instant> },
    /// A poisoned worker gave the task back to its peers.
    Requeue,
    /// The run was halted (cancel, deadline, drain, or a sibling's error)
    /// between attempts; the task's write set is back in its pre-attempt
    /// state and the task is NOT done. Whoever halted the run said why.
    Aborted,
}

/// The per-run policy knobs of a [`DagRun`], as the engine's
/// [`ExecOptions`], the pool's per-job policy and an `hqr-net` worker spell
/// them. Default: FIFO ranks, no guards, retries or faults, releases kept.
#[derive(Default)]
pub struct RunPolicy<'a> {
    /// Whose static priority keys rank the ready tasks.
    pub policy: SchedPolicy,
    /// Which tile guards are kept and checked.
    pub integrity: IntegrityMode,
    /// Per-task retry budget after a caught panic or detected corruption.
    pub max_retries: u32,
    /// Planned faults to inject, if any.
    pub plan: Option<&'a FaultPlan>,
    /// Release path. `true`: a completing worker keeps only its
    /// best-ranked released successor and publishes the rest on the shared
    /// queue, so the most urgent work is never buried in one deque (the
    /// engine under a prioritizing policy; the pool always). `false`: every
    /// released successor goes to the worker's own LIFO deque (the engine
    /// under FIFO — the data-reuse heuristic of DAGuE §IV-C). It also picks
    /// the run's [`GlobalQueue`].
    pub publish_rest: bool,
}

impl<'a> RunPolicy<'a> {
    /// The engine's policy as `opts` spells it.
    fn of(opts: &'a ExecOptions) -> Self {
        RunPolicy {
            policy: opts.policy,
            integrity: opts.integrity,
            max_retries: opts.max_retries,
            plan: opts.plan.as_ref(),
            publish_rest: opts.policy != SchedPolicy::Fifo,
        }
    }
}

/// The dependency state of one DAG run, apart from anything that runs a
/// kernel: per-task in-degrees and done flags, the count of tasks left,
/// the policy's priority keys, and the one release rule. A [`DagRun`]
/// holds one for the engine, the pool and an `hqr-net` worker;
/// `preview_order` and the simulator's event engine hold a bare one.
///
/// The graph is passed to each call rather than stored, as for [`DagRun`].
pub struct Frontier {
    indeg: Vec<AtomicU32>,
    done: Vec<AtomicBool>,
    /// Tasks not yet completed.
    pub remaining: AtomicUsize,
    /// Static priority keys under the run's policy (lower sorts first).
    pub ranks: Vec<u64>,
    /// The release path of [`RunPolicy::publish_rest`].
    publish_rest: bool,
}

impl Frontier {
    /// The dependency state of a run of the tasks not marked in
    /// `completed`, and its initial ready frontier, in task order. Each
    /// remaining task's in-degree discounts its completed predecessors,
    /// from state no worker can see yet: once the first task is queued,
    /// workers release successors themselves, so a later scan of the live
    /// counters could queue a task twice.
    pub fn new(
        graph: &TaskGraph,
        policy: SchedPolicy,
        publish_rest: bool,
        completed: Option<&[bool]>,
    ) -> (Frontier, Vec<u32>) {
        let n = graph.tasks().len();
        let is_done = |tid: usize| completed.is_some_and(|c| c[tid]);
        let mut indeg: Vec<u32> = graph.in_degrees().to_vec();
        for t in (0..n).filter(|&t| is_done(t)) {
            for &s in graph.successors(t) {
                indeg[s as usize] -= 1;
            }
        }
        let ready = (0..n).filter(|&t| indeg[t] == 0 && !is_done(t)).map(|t| t as u32).collect();
        let frontier = Frontier {
            indeg: indeg.into_iter().map(AtomicU32::new).collect(),
            done: (0..n).map(|t| AtomicBool::new(is_done(t))).collect(),
            remaining: AtomicUsize::new((0..n).filter(|&t| !is_done(t)).count()),
            ranks: sched::priorities(graph, policy),
            publish_rest,
        };
        (frontier, ready)
    }

    /// True once `tid` has completed (in this run or before it).
    pub fn is_done(&self, tid: u32) -> bool {
        self.done[tid as usize].load(Ordering::Acquire)
    }

    /// The completed bitmap. At quiescence it is closed under predecessors
    /// (a task only completes after all of them did) — what a resumable
    /// checkpoint requires.
    pub(crate) fn completed(&self) -> Vec<bool> {
        self.done.iter().map(|d| d.load(Ordering::Acquire)).collect()
    }

    /// Mark `tid` completed and release its successors: every one whose
    /// last predecessor this was becomes ready, unless it is already done
    /// (a `completed` mask need not be closed under predecessors). With
    /// `publish_rest` the best-ranked one goes to `keep` (the caller's own
    /// deque) and the others to `publish` (the shared queue); without it
    /// all go to `keep`, in successor order.
    pub fn complete(
        &self,
        graph: &TaskGraph,
        tid: u32,
        mut keep: impl FnMut(u32),
        mut publish: impl FnMut(u32),
    ) {
        self.done[tid as usize].store(true, Ordering::Release);
        let mut best: Option<u32> = None;
        for &s in graph.successors(tid as usize) {
            if self.indeg[s as usize].fetch_sub(1, Ordering::AcqRel) == 1 && !self.is_done(s) {
                if !self.publish_rest {
                    keep(s);
                    continue;
                }
                match best {
                    Some(k) if self.ranks[s as usize] < self.ranks[k as usize] => {
                        publish(k);
                        best = Some(s);
                    }
                    Some(_) => publish(s),
                    None => best = Some(s),
                }
            }
        }
        if let Some(s) = best {
            keep(s);
        }
        self.remaining.fetch_sub(1, Ordering::AcqRel);
    }

    /// Diagnostic snapshot of the scheduler state for [`ExecError::Stalled`].
    fn stall_report(&self, cause: StallCause, timeout: Duration, remaining: usize) -> StallReport {
        const CAP: usize = 16;
        let mut completed = 0;
        let mut stuck_frontier = Vec::new();
        let mut blocked = Vec::new();
        let mut truncated = false;
        for tid in 0..self.indeg.len() {
            if self.is_done(tid as u32) {
                completed += 1;
                continue;
            }
            let d = self.indeg[tid].load(Ordering::Acquire);
            if d == 0 {
                if stuck_frontier.len() < CAP {
                    stuck_frontier.push(tid as u32);
                } else {
                    truncated = true;
                }
            } else if blocked.len() < CAP {
                blocked.push((tid as u32, d));
            } else {
                truncated = true;
            }
        }
        StallReport { cause, timeout, completed, remaining, stuck_frontier, blocked, truncated }
    }
}

/// The state of one DAG being executed — the execution core's run state —
/// independent of which executor drives it: the single-job engine below
/// (one per run), the multi-job [`crate::pool::JobPool`] (one per
/// activation) or an `hqr-net` worker (one per epoch): the tile store,
/// the integrity guards, the fault plan and retry knobs, and the
/// [`Frontier`], with the run's halt flag. Both push a ready task through
/// the same two steps: [`DagRun::attempt`] (input-guard pre-check,
/// write-set snapshot, `catch_unwind` around the kernel with planned
/// fault/SDC injection, output-guard verification, rollback + bounded
/// retry, every failure mapped to its [`ExecError`]) and
/// [`DagRun::complete`] (the frontier's release rule, and the count of each
/// scratch slot's pending readers, whose end [`DagRun::release`] turns into
/// a free buffer).
///
/// The graph is passed to each call rather than stored: the engine borrows
/// it from its caller, the pool owns it next to this struct.
pub struct DagRun {
    /// The tile store (resident or paged); the owner must
    /// [`TileStore::unpage`] it before touching the matrix again.
    pub(crate) store: TileStore,
    /// One guard per slot, shared by all workers under the same DAG
    /// exclusive-writer discipline as the tile buffers themselves.
    guards: Option<GuardStore>,
    plan: Option<FaultPlan>,
    max_retries: u32,
    /// Snapshot/rollback enabled (retries or a fault plan are configured).
    recovery: bool,
    /// [`IntegrityMode::Full`]: verify input guards before launching.
    full_integrity: bool,
    /// Dependency state, priority keys and the release rule.
    pub frontier: Frontier,
    /// Pending readers of each scratch slot.
    readers: Readers,
    /// Raised to stop the run; re-checked between retry attempts so a long
    /// retry ladder yields promptly instead of burning its whole budget.
    pub halt: AtomicBool,
}

/// The scratch slots (V copies and T factors, at most two) a completion
/// spent, as [`DagRun::complete`] returns them: no task of the run touches
/// them again, so [`DagRun::release`] may take their buffers.
#[must_use = "a spent scratch slot stays held until it is released"]
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Spent([Option<Slot>; 2]);

impl Spent {
    fn slots(&self) -> impl Iterator<Item = Slot> + '_ {
        self.0.iter().flatten().copied()
    }
}

impl DagRun {
    /// Set up the run of the tasks not marked in `completed`, and return it
    /// with its initial ready frontier, in task order (see
    /// [`Frontier::new`]).
    pub fn new(
        graph: &TaskGraph,
        store: TileStore,
        p: &RunPolicy<'_>,
        completed: Option<&[bool]>,
    ) -> (DagRun, Vec<u32>) {
        let (frontier, ready) = Frontier::new(graph, p.policy, p.publish_rest, completed);
        let run = DagRun {
            store,
            guards: p.integrity.is_on().then(|| GuardStore::new(graph.mt(), graph.nt())),
            plan: p.plan.filter(|plan| !plan.is_empty()).cloned(),
            max_retries: p.max_retries,
            recovery: p.max_retries > 0 || p.plan.is_some(),
            full_integrity: p.integrity == IntegrityMode::Full,
            frontier,
            readers: Readers::new(graph, completed),
            halt: AtomicBool::new(false),
        };
        (run, ready)
    }

    /// Run ready task `tid` on worker `me` through the full attempt ladder.
    /// `poisoned` marks a worker the fault plan poisons (engine only).
    ///
    /// # Safety
    /// `tid` must be ready — every predecessor completed, `tid` itself not
    /// — and no other thread may run it, so DAG order guarantees this
    /// worker holds exclusive access to its read/write sets for the kernel,
    /// the snapshot, and the guard updates. The caller's scheduler
    /// discharges this.
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn attempt(
        &self,
        graph: &TaskGraph,
        tid: u32,
        me: usize,
        poisoned: bool,
        wstats: &mut FaultStats,
        counters: &mut WorkerCounters,
        instant: &mut dyn FnMut(InstantKind),
    ) -> Result<Attempt, ExecError> {
        let t = &graph.tasks()[tid as usize];
        let (store, plan) = (&self.store, self.plan.as_ref());
        let sdc = |slot: String, attempts: u32, message: String| ExecError::SdcDetected {
            task: tid,
            kernel: t.kind,
            slot,
            attempts,
            message,
        };
        // Paged runs: pin every slot the task touches (faulting misses in
        // from the spill file) before anything — guard checks, snapshot,
        // kernel — reads or writes them. The pins outlive the whole ladder,
        // so evicted buffers can't move under a snapshot's raw pointers.
        // Fallible, not panicking: this runs outside the `catch_unwind`
        // perimeter below. A failure is a spill-file I/O error or an
        // at-rest checksum mismatch; nothing ran.
        let pins = store.pin_task(tid).map_err(|message| ExecError::SpillIo { message })?;
        let pinned_at = pins.is_some().then(Instant::now);
        if let Some(p) = &pins {
            counters.tile_faults += p.demand_faults;
            counters.prefetch_hits += p.prefetch_hits;
            counters.tile_spills += p.evictions;
            if p.demand_faults > 0 {
                instant(InstantKind::TileFaulted);
            }
            if p.evictions > 0 {
                instant(InstantKind::TileSpilled);
            }
        }
        if self.full_integrity {
            // SAFETY: `tid` is ready, so DAG order guarantees no concurrent
            // writer of its read or write set.
            if let Some(m) = self.guards.as_ref().and_then(|g| unsafe { g.verify_inputs(store, t) })
            {
                // Corrupted *inputs* cannot be healed by re-running this task.
                wstats.sdc_detected += 1;
                instant(InstantKind::SdcDetected);
                return Err(sdc(m.label(), 0, m.to_string()));
            }
        }
        // SAFETY: exclusive access per the function contract — for the kernel
        // and the snapshot alike.
        let snap = self.recovery.then(|| unsafe { store.snapshot(t) });
        let mut attempt = 0u32;
        let mut recomputed_sdc = false;
        loop {
            // Between attempts the write set is consistent (pristine or rolled
            // back), so this is a safe point to yield to a run-level halt.
            if self.halt.load(Ordering::Acquire) {
                return Ok(Attempt::Aborted);
            }
            let inject = poisoned || plan.is_some_and(|p| p.should_fail_attempt(tid, attempt));
            // Everything that touches the task's buffers runs inside the
            // perimeter, so a panic in any of it is a failed attempt.
            let run = catch_unwind(AssertUnwindSafe(|| {
                if inject {
                    panic!("{INJECTED_FAULT_PREFIX}: task {tid} attempt {attempt} on worker {me}");
                }
                // SAFETY: DAG order, as above.
                unsafe { store.run_task(t, graph.trans()) };
                // Kernel-postcondition hook: refresh the write-set guards
                // from the fresh output while it is "hot". The window
                // between this hook and the commit-time check below is
                // where an SDC strike lands.
                if let Some(g) = &self.guards {
                    // SAFETY: DAG order, as above.
                    unsafe { g.refresh_task(store, t) };
                }
                // The strike happens regardless of the integrity mode —
                // only the *verification* is optional.
                let strike = plan.and_then(|p| p.sdc_for(tid)).filter(|_| attempt == 0);
                if let Some(fault) = &strike {
                    // SAFETY: DAG order, as above.
                    unsafe { store.apply_sdc(t, fault) };
                }
                strike.is_some()
            }));
            match run {
                Ok(struck) => {
                    wstats.sdc_injected += u32::from(struck);
                    // SAFETY: DAG order, as above.
                    let found =
                        self.guards.as_ref().and_then(|g| unsafe { g.verify_outputs(store, t) });
                    let Some(m) = found else {
                        wstats.tasks_recovered += u32::from(attempt > 0);
                        wstats.sdc_recomputed += u32::from(recomputed_sdc);
                        // SAFETY: DAG order, as above; the pins still hold.
                        unsafe { store.keep_tau(t) };
                        return Ok(Attempt::Done { pinned_at });
                    };
                    wstats.sdc_detected += 1;
                    instant(InstantKind::SdcDetected);
                    if let Some(s) = &snap {
                        // SAFETY: exclusive access, as above.
                        unsafe { store.rollback(s) };
                        wstats.tiles_rolled_back += s.tiles() as u32;
                    }
                    if snap.is_some() && attempt < self.max_retries {
                        attempt += 1;
                        wstats.tasks_reexecuted += 1;
                        counters.retries += 1;
                        recomputed_sdc = true;
                        instant(InstantKind::SdcRecomputed);
                        continue;
                    }
                    // The mismatch persisted past the recompute budget (or
                    // no snapshot was available to recompute from).
                    return Err(sdc(m.label(), attempt, m.to_string()));
                }
                Err(payload) => {
                    wstats.panics_caught += 1;
                    counters.panics_caught += 1;
                    instant(InstantKind::PanicCaught);
                    if let Some(s) = &snap {
                        // SAFETY: exclusive access, as above.
                        unsafe { store.rollback(s) };
                        wstats.tiles_rolled_back += s.tiles() as u32;
                    }
                    if poisoned {
                        return Ok(Attempt::Requeue);
                    }
                    if snap.is_some() && attempt < self.max_retries {
                        attempt += 1;
                        wstats.tasks_reexecuted += 1;
                        counters.retries += 1;
                        instant(InstantKind::Retry);
                        continue;
                    }
                    // Out of retry budget, or no recovery enabled.
                    let message = panic_message(payload);
                    return Err(if self.recovery {
                        let attempts = attempt + 1;
                        ExecError::TaskFailed { task: tid, kernel: t.kind, attempts, message }
                    } else {
                        ExecError::WorkerPanicked { task: tid, kernel: t.kind, worker: me, message }
                    });
                }
            }
        }
    }

    /// Complete `tid`, which just ran [`Attempt::Done`] (or, on an
    /// `hqr-net` worker, ran elsewhere), through [`Frontier::complete`],
    /// unless the fault plan drops the completion; and count it against the
    /// scratch slots it reads or writes. Returns those no task will touch
    /// again — `tid` was their last pending reader, or wrote what nothing
    /// reads — for the caller to [`DagRun::release`] once nothing outside
    /// the run needs them either: at once in process, after the task's
    /// pushes are encoded on an `hqr-net` worker.
    pub fn complete(
        &self,
        graph: &TaskGraph,
        tid: u32,
        keep: impl FnMut(u32),
        publish: impl FnMut(u32),
    ) -> Option<Spent> {
        if self.plan.as_ref().is_some_and(|p| p.loses_completion(tid)) {
            // Dropped completion: the task ran, but its successors are never
            // released and `remaining` stays high; the (mandatory) watchdog
            // reports the stall.
            self.frontier.done[tid as usize].store(true, Ordering::Release);
            return None;
        }
        self.frontier.complete(graph, tid, keep, publish);
        Some(self.readers.spend(&graph.tasks()[tid as usize])).filter(|s| s.0[0].is_some())
    }

    /// Hand spent scratch back: to the run's free lists, where the next
    /// writer of its size takes it, or — on a worker's shard, which keeps
    /// no list — a V copy's buffer to the caller.
    pub fn release(&self, spent: Spent) -> Option<Box<[f64]>> {
        // SAFETY: a `Spent` is only made by `complete`, once every task
        // that touches its slots has completed.
        spent.slots().fold(None, |buf, s| buf.or(unsafe { self.store.release(s) }))
    }
}

/// The order in which a single worker would run the tasks not marked in
/// `completed` under policy `p`: a dry run of the engine's own queues
/// ([`acquire`] over one LIFO deque and the shared queue) and release
/// rule, with no kernel. It is what a paged tile store measures "next
/// use" in — exact at one thread, and the order each of several workers
/// follows between steals.
pub(crate) fn preview_order(
    graph: &TaskGraph,
    p: &RunPolicy<'_>,
    completed: Option<&[bool]>,
) -> Vec<u32> {
    let (frontier, ready) = Frontier::new(graph, p.policy, p.publish_rest, completed);
    let global = GlobalQueue::new(p.publish_rest);
    for tid in ready {
        global.push(tid, &frontier.ranks);
    }
    let worker = Worker::new_lifo();
    let stealers = [worker.stealer()];
    let mut order = Vec::new();
    while let Some((tid, _)) = acquire(0, &worker, &stealers, &|dest| global.take(dest)) {
        order.push(tid);
        frontier.complete(graph, tid, |s| worker.push(s), |s| global.push(s, &frontier.ranks));
    }
    order
}

/// The executor engine behind [`try_execute_with`] / [`try_execute_traced`]
/// and lineage recovery: allocate the factors, open the tile store
/// (resident or paged), hand it to [`drive`] to run the tasks not marked in
/// `completed`, and dissolve it again on every exit path.
pub(crate) fn run_engine(
    graph: &TaskGraph,
    a: &mut TiledMatrix,
    opts: &ExecOptions,
    completed: Option<&[bool]>,
    trace: bool,
) -> Result<(TFactors, FaultStats, Option<ExecTrace>), ExecError> {
    let b = graph.b();
    let ib = checked_ib(opts, b)?;
    if a.mt() != graph.mt() || a.nt() != graph.nt() || a.b() != b {
        return Err(ExecError::Config {
            message: format!(
                "matrix is {}x{} tiles of size {} but the graph was built for {}x{} of size {b}",
                a.mt(),
                a.nt(),
                a.b(),
                graph.mt(),
                graph.nt()
            ),
        });
    }
    // The store takes a place for each T its writer makes; a lineage
    // closure here reads no older T.
    let mut f = TFactors::allocate_for(graph, ib);
    let epoch = Instant::now();
    let policy = RunPolicy::of(opts);
    let (budget, spill_dir) = (opts.resident_budget, opts.spill_dir.as_deref());
    let order = || preview_order(graph, &policy, completed);
    let run_plan = RunPlan { graph, completed, order: &order };
    let store = TileStore::open(a, &mut f, &run_plan, budget, spill_dir)
        .map_err(|message| ExecError::SpillIo { message })?;
    let (mut run, frontier) = DagRun::new(graph, store, &policy, completed);
    let result = drive(graph, &run, frontier, opts, trace, epoch);
    // Dissolve the paged cache before anything touches `a`/`f` again —
    // on success *and* on error paths, so the matrix is never left hollow.
    let unpage_err = run.store.unpage(a).err();
    let (stats, mut exec_trace) = result?;
    if let Some(message) = unpage_err {
        return Err(ExecError::SpillIo { message });
    }
    // A paged run's wall clock includes handing the buffers back.
    if let Some(t) = &mut exec_trace {
        t.wall = epoch.elapsed().as_secs_f64();
    }
    Ok((f, stats, exec_trace))
}

/// The run's inner block size: `opts.ib`, or `b` (the plain kernels).
fn checked_ib(opts: &ExecOptions, b: usize) -> Result<usize, ExecError> {
    let ib = opts.ib.unwrap_or(b);
    if ib == 0 || ib > b {
        return Err(ExecError::Config {
            message: format!("inner block size {ib} must be in 1..={b}"),
        });
    }
    Ok(ib)
}

/// Apply op(Q) of a completed factorization to `c` on the engine: Qᵀ·C
/// for `Trans::Trans`, Q·C for `NoTrans` (§V-A's "reverse trees"). The
/// DAG is [`TaskGraph::apply_q`]'s, so the run has the engine's threads,
/// policy, retry, fault plan, integrity guards and watchdog from `opts`;
/// only C's tiles are written, and `factored` (V and the V2 blocks in
/// place: an UNMQR reads GEQRT(i,k)'s V from the tile A(i,k) itself) and
/// `factors` are read where they are. `elims` is the elimination list
/// that produced them, and `ib` is `factors.ib()`.
///
/// For `NoTrans` the updates that would meet only +0 tiles do not run:
/// those of panel `k` on a C column whose tiles from row `k` down all hold
/// +0 (panel `k`'s reflectors touch rows `≥ k`, and Q·C runs later panels
/// first, so such an update would read +0 and leave +0). This changes no
/// bit; a fault plan indexes the tasks that remain.
///
/// Refused with [`ExecError::Config`] before any kernel runs: a C whose
/// tile rows or tile size differ from `factored`, factors of another
/// shape, an `opts.ib` other than `factors.ib()`, an elimination list that
/// reads a factor slot `factors` does not hold, a lossy fault plan without
/// a watchdog, and any `opts.resident_budget` (a paged store takes
/// ownership of its buffers, and the factored tiles are only borrowed).
pub fn try_apply_q(
    factored: &TiledMatrix,
    factors: &TFactors,
    elims: &[ElimOp],
    c: &mut TiledMatrix,
    trans: Trans,
    opts: &ExecOptions,
) -> Result<FaultStats, ExecError> {
    let refuse = |message: String| Err(ExecError::Config { message });
    let (mt, nt, b, ib) = (factored.mt(), factored.nt(), factored.b(), factors.ib);
    let (fm, fnt, fb, cm, cb) = (factors.mt, factors.nt, factors.b, c.mt(), c.b());
    if (fm, fnt, fb, cm, cb) != (mt, nt, b, mt, b) {
        return refuse(format!(
            "factors are {fm}x{fnt} tiles of size {fb} and C has {cm} tile rows of size {cb}, \
             for a {mt}x{nt} matrix of size {b}"
        ));
    }
    if opts.ib.is_some_and(|x| x != ib) {
        return refuse(format!("inner block size {:?} but the factors are for {ib}", opts.ib));
    }
    if opts.resident_budget.is_some() {
        return refuse("apply-Q runs resident: it borrows the factored tiles".to_string());
    }
    let graph = TaskGraph::apply_q(mt, nt, c.nt(), b, elims, trans)
        .map_err(|e| ExecError::Config { message: e.to_string() })?;
    // V is read where it lives, in the factored tiles; a GEQRT's τ says
    // whether it ran.
    let mut reads = graph.tasks().iter().flat_map(Task::reads);
    let absent = |&(fam, i, k): &Slot| is_t(fam) && factors.slot(fam, i, k).is_none();
    if let Some((fam, i, k)) = reads.find(absent) {
        let slot = fam.name();
        return refuse(format!("the list reads {slot}({i},{k}), which the factors do not hold"));
    }
    let graph = match trans {
        Trans::NoTrans => graph.without_zero_updates(&last_nonzero_rows(c)),
        Trans::Trans => graph,
    };
    run_apply(&graph, factored, factors, c, opts)
}

/// Per column tile of `c`, the last tile row holding a bit pattern other
/// than +0 (`None` for a column of +0 only).
fn last_nonzero_rows(c: &TiledMatrix) -> Vec<Option<usize>> {
    let nonzero = |i: usize, j: usize| c.tile(i, j).iter().any(|x| x.to_bits() != 0);
    (0..c.nt()).map(|j| (0..c.mt()).rev().find(|&i| nonzero(i, j))).collect()
}

/// Run an apply-Q `graph` that [`try_apply_q`] has checked.
fn run_apply(
    graph: &TaskGraph,
    factored: &TiledMatrix,
    factors: &TFactors,
    c: &mut TiledMatrix,
    opts: &ExecOptions,
) -> Result<FaultStats, ExecError> {
    let epoch = Instant::now();
    // The T factors the graph reads, rebuilt from the factored tiles and τ.
    let t = TSet::rebuilt(factored, factors, graph.tasks());
    let store = TileStore::for_apply(factored, factors.ib, t, c);
    let (run, frontier) = DagRun::new(graph, store, &RunPolicy::of(opts), None);
    drive(graph, &run, frontier, opts, false, epoch).map(|(stats, _)| stats)
}

/// The worker-and-watchdog half of the engine: run `run` (whose store is
/// already open) from `frontier` to quiescence on `opts.nthreads` workers.
///
/// Workers run the shared [`worker_loop`] over the [`DagRun`]: each task
/// runs inside `catch_unwind` so a panicking kernel (real or injected by
/// the [`crate::FaultPlan`]) can be retried against a pre-execution
/// snapshot of its write-set, reported as a typed error, or — for poisoned
/// workers — handed back to healthy peers. A watchdog thread converts lack
/// of progress into [`ExecError::Stalled`]. The store is left open: the
/// caller dissolves it.
fn drive(
    graph: &TaskGraph,
    run: &DagRun,
    frontier: Vec<u32>,
    opts: &ExecOptions,
    trace: bool,
    epoch: Instant,
) -> Result<(FaultStats, Option<ExecTrace>), ExecError> {
    let nthreads = opts.nthreads.max(1);
    let plan = opts.plan.as_ref();
    // A lost completion stalls the run, and only a watchdog ends a stall.
    use FaultKind::*;
    let (engine, kinds): (_, &[FaultKind]) = match opts.watchdog {
        Some(_) => ("the engine", &[FailTask, PoisonWorker, CorruptTask, LoseCompletion]),
        None => ("the engine without a watchdog", &[FailTask, PoisonWorker, CorruptTask]),
    };
    if let Some(p) = plan {
        p.check_kinds(engine, kinds).map_err(|message| ExecError::Config { message })?;
    }
    let recovery = opts.recovery_enabled();
    let alive = AtomicUsize::new(nthreads);
    let error: Mutex<Option<ExecError>> = Mutex::new(None);
    let global = GlobalQueue::new(run.frontier.publish_rest);
    for tid in frontier {
        global.push(tid, &run.frontier.ranks);
    }
    let workers: Vec<Worker<u32>> = (0..nthreads).map(|_| Worker::new_lifo()).collect();
    let stealers: Vec<Stealer<u32>> = workers.iter().map(|w| w.stealer()).collect();
    let mut logs: Vec<WorkerLog> = (0..nthreads).map(|_| WorkerLog::default()).collect();

    std::thread::scope(|scope| {
        let (alive, error, global, stealers) = (&alive, &error, &global, &stealers);
        let (remaining, halt) = (&run.frontier.remaining, &run.halt);
        let mut watchdog = None;
        if let Some(window) = opts.watchdog {
            watchdog = Some(scope.spawn(move || {
                // Short poll slices, and shutdown checked *before* each
                // nap: a worker error (`halt`) or completion must not pay
                // another full poll interval of join latency, so a worker
                // leaving its loop also unparks this thread. The stall
                // window itself is still measured against `last_change`, so
                // polling more often than window/8 only sharpens detection.
                let poll = (window / 8).clamp(Duration::from_millis(1), Duration::from_millis(5));
                let mut last = remaining.load(Ordering::Acquire);
                let mut last_change = Instant::now();
                loop {
                    let rem = remaining.load(Ordering::Acquire);
                    if rem == 0 || halt.load(Ordering::Acquire) {
                        break;
                    }
                    if rem != last {
                        last = rem;
                        last_change = Instant::now();
                    } else if last_change.elapsed() >= window {
                        let report =
                            run.frontier.stall_report(StallCause::WatchdogTimeout, window, rem);
                        set_error(error, ExecError::Stalled(report));
                        halt.store(true, Ordering::Release);
                        break;
                    }
                    std::thread::park_timeout(poll);
                }
            }));
        }
        for ((me, worker), log) in workers.into_iter().enumerate().zip(logs.iter_mut()) {
            let watchdog = watchdog.as_ref().map(|w| w.thread().clone());
            scope.spawn(move || {
                // Expected (caught) panics shouldn't spam stderr through
                // the panic hook while recovery is handling them — but
                // only on this worker thread; the rest of the process
                // keeps its backtraces.
                let _quiet = recovery.then(QuietPanics::engage);
                let poisoned = plan.is_some_and(|p| p.is_poisoned(me));
                let mut strikes = 0u32;
                let WorkerLog { records, instants, counters, stats: wstats } = log;
                let now = || epoch.elapsed().as_secs_f64();
                let mut instant = |kind: InstantKind, task: u32| {
                    if trace {
                        let (worker, time) = (me as u16, now());
                        instants.push(ExecInstant { kind, task: Some(task), worker, time });
                    }
                };
                let fail = |e: ExecError| {
                    set_error(error, e);
                    halt.store(true, Ordering::Release);
                    ControlFlow::Break(())
                };
                worker_loop(
                    me,
                    &worker,
                    stealers,
                    |dest| global.take(dest),
                    || halt.load(Ordering::Acquire),
                    || remaining.load(Ordering::Acquire) == 0,
                    |tid, source| {
                        match source {
                            Source::Local => counters.local_pops += 1,
                            Source::Global => counters.injector_pops += 1,
                            Source::Peer => counters.steals += 1,
                        }
                        let start = trace.then(now);
                        // SAFETY: every predecessor of `tid` has completed
                        // (its in-degree reached 0) and `tid` has not, and
                        // it was queued once, so its read/write sets are
                        // exclusively this worker's until completion.
                        let end = unsafe {
                            run.attempt(graph, tid, me, poisoned, wstats, counters, &mut |k| {
                                instant(k, tid)
                            })
                        };
                        match end {
                            Ok(Attempt::Done { pinned_at }) => {
                                if let Some(start) = start {
                                    let (task, end) = (tid, now());
                                    let kernel_start = pinned_at
                                        .map_or(start, |t| (t - epoch).as_secs_f64().max(start));
                                    records.push(TaskRecord {
                                        task,
                                        worker: me as u16,
                                        start,
                                        kernel_start,
                                        end,
                                    });
                                }
                                let spent = run.complete(
                                    graph,
                                    tid,
                                    |s| worker.push(s),
                                    |s| global.push(s, &run.frontier.ranks),
                                );
                                if let Some(v) = spent {
                                    run.release(v);
                                }
                            }
                            Ok(Attempt::Requeue) => {
                                strikes += 1;
                                wstats.tasks_reexecuted += 1;
                                counters.requeues += 1;
                                instant(InstantKind::Requeue, tid);
                                global.push(tid, &run.frontier.ranks);
                                if strikes >= POISON_STRIKES {
                                    // The poisoned worker "dies"; its queued
                                    // work stays stealable by healthy peers.
                                    wstats.workers_lost += 1;
                                    return ControlFlow::Break(());
                                }
                            }
                            // Someone else halted the run and recorded why;
                            // the task is untouched and not done.
                            Ok(Attempt::Aborted) => return ControlFlow::Break(()),
                            Err(e) => return fail(e),
                        }
                        ControlFlow::Continue(())
                    },
                );
                if alive.fetch_sub(1, Ordering::AcqRel) == 1 {
                    let rem = remaining.load(Ordering::Acquire);
                    if rem > 0 && !halt.load(Ordering::Acquire) {
                        let _ = fail(ExecError::Stalled(run.frontier.stall_report(
                            StallCause::AllWorkersExited,
                            Duration::ZERO,
                            rem,
                        )));
                    }
                }
                // Done or halted: the scope joins the watchdog without its nap.
                watchdog.iter().for_each(std::thread::Thread::unpark);
            });
        }
    });
    // Snapshotted here, before the caller unpages: unpage mass-faults every
    // slot back in and would otherwise inflate the counters.
    let spill = run.store.spill_summary();
    if let Some(e) = error.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner) {
        return Err(e);
    }
    let rem = run.frontier.remaining.load(Ordering::Acquire);
    if rem != 0 {
        // Unreachable by construction (every exit path above reports an
        // error first), but kept as a typed error rather than an assert.
        return Err(ExecError::Stalled(run.frontier.stall_report(
            StallCause::AllWorkersExited,
            Duration::ZERO,
            rem,
        )));
    }
    let mut stats = FaultStats::default();
    for log in &logs {
        stats.merge(&log.stats);
    }
    let exec_trace = trace.then(|| {
        let wall = epoch.elapsed().as_secs_f64();
        let counters = logs.iter().map(|l| l.counters).collect();
        let mut records = Vec::new();
        let mut instants = Vec::new();
        for log in logs {
            records.extend(log.records);
            instants.extend(log.instants);
        }
        records.sort_by(|a, b| a.start.total_cmp(&b.start));
        instants.sort_by(|a, b| a.time.total_cmp(&b.time));
        let (nodes, transfers, policy) = (1, Vec::new(), opts.policy);
        ExecTrace { nthreads, nodes, transfers, policy, records, instants, counters, wall, spill }
    });
    Ok((stats, exec_trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elim::ElimOp;
    use crate::store::working_set_bytes;
    use hqr_tile::DenseMatrix;
    use std::collections::HashMap;

    fn flat_elims(mt: usize, nt: usize) -> Vec<ElimOp> {
        let mut v = Vec::new();
        for k in 0..mt.min(nt) {
            for i in (k + 1)..mt {
                v.push(ElimOp::new(k as u32, i as u32, k as u32, true));
            }
        }
        v
    }

    /// The engine on `nthreads` workers with default options.
    fn parallel(g: &TaskGraph, a: &mut TiledMatrix, nthreads: usize) -> TFactors {
        try_execute_with(g, a, &ExecOptions::with_threads(nthreads)).unwrap().0
    }

    fn binary_elims(mt: usize, nt: usize) -> Vec<ElimOp> {
        // Per-panel binary tree with TT kernels.
        let mut v = Vec::new();
        for k in 0..mt.min(nt) {
            let rows: Vec<u32> = (k as u32..mt as u32).collect();
            let mut stride = 1;
            while stride < rows.len() {
                let mut idx = 0;
                while idx + stride < rows.len() {
                    v.push(ElimOp::new(k as u32, rows[idx + stride], rows[idx], false));
                    idx += 2 * stride;
                }
                stride *= 2;
            }
        }
        v
    }

    /// R from the serial tile factorization must match the dense reference
    /// up to row signs, and the norm must be preserved.
    fn check_r_against_reference(mt: usize, nt: usize, b: usize, elims: &[ElimOp]) {
        let mut a = hqr_tile::TiledMatrix::random(mt, nt, b, 7);
        let a0 = a.to_dense();
        let g = TaskGraph::build(mt, nt, b, elims);
        let _f = execute_serial(&g, &mut a);
        let r = a.to_dense().upper_triangle();
        let (_, r_ref) = hqr_kernels::reference::dense_householder_qr(&a0);
        for d in 0..(nt * b).min(mt * b) {
            let sign = if r.get(d, d) * r_ref.get(d, d) >= 0.0 { 1.0 } else { -1.0 };
            for j in d..nt * b {
                let diff = (r.get(d, j) - sign * r_ref.get(d, j)).abs();
                assert!(diff < 1e-11, "R mismatch at ({d},{j}): {diff}");
            }
        }
    }

    /// Q·[R; 0] and Q·[I; 0], the check's two `NoTrans` applies, give the
    /// bits of the whole DAG without the updates that find only +0 tiles:
    /// on column `jc`, those of panels after `jc`. A −0 in a column's last
    /// row is not +0, and keeps every update of that column.
    #[test]
    fn dropped_zero_updates_change_no_bit() {
        let (mt, nt, b) = (6usize, 4usize, 3usize);
        // A flat tree of TS and TT kills: UNMQR, TSMQR and TTMQR all run.
        let ops: Vec<ElimOp> = (0..nt as u32)
            .flat_map(|k| (k + 1..mt as u32).map(move |i| ElimOp::new(k, i, k, i % 2 == 0)))
            .collect();
        let mut a = TiledMatrix::random(mt, nt, b, 79);
        let f = execute_serial(&TaskGraph::build(mt, nt, b, &ops), &mut a);
        let opts = ExecOptions::with_threads(2);
        let full = TaskGraph::apply_q(mt, nt, nt, b, &ops, Trans::NoTrans).unwrap();
        let (mut r0, mut i0) = (TiledMatrix::zeros(mt, nt, b), TiledMatrix::zeros(mt, nt, b));
        r0.fill_with(|i, j| if i <= j { a.get(i, j) } else { 0.0 });
        i0.fill_with(|i, j| if i == j { 1.0 } else { 0.0 });
        let mut signed = i0.clone();
        signed.tile_mut(mt - 1, 0)[0] = -0.0;
        let on_column = |j: usize| full.tasks().iter().filter(|t| t.j as usize == nt + j).count();
        let below = |j: usize| {
            full.tasks().iter().filter(|t| t.j as usize == nt + j && t.k as usize > j).count()
        };
        let dropped: usize = (0..nt).map(below).sum();
        assert!(dropped > 0 && on_column(0) > 0);
        let bits =
            |m: &TiledMatrix| m.to_dense().data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let lost_to_sign = below(0);
        for (c0, kept) in [
            (&r0, full.tasks().len() - dropped),
            (&i0, full.tasks().len() - dropped),
            (&signed, full.tasks().len() - dropped + lost_to_sign),
        ] {
            assert_eq!(
                full.clone().without_zero_updates(&last_nonzero_rows(c0)).tasks().len(),
                kept
            );
            let (mut pruned, mut whole) = (c0.clone(), c0.clone());
            try_apply_q(&a, &f, &ops, &mut pruned, Trans::NoTrans, &opts).unwrap();
            run_apply(&full, &a, &f, &mut whole, &opts).unwrap();
            assert_eq!(bits(&pruned), bits(&whole));
        }
    }

    #[test]
    fn try_apply_q_refuses_before_any_kernel_runs() {
        let (mt, nt, b) = (6usize, 2usize, 4usize);
        let ts = flat_elims(mt, nt);
        let mut a = TiledMatrix::random(mt, nt, b, 77);
        let f = execute_serial(&TaskGraph::build(mt, nt, b, &ts), &mut a);
        let c0 = TiledMatrix::random(mt, 2, b, 78);
        let one = ExecOptions::with_threads(3);
        // A TT list over TS factors: its GEQRTs below the diagonal row have
        // no reflectors in `f`.
        let tt: Vec<ElimOp> = ts.iter().map(|o| ElimOp { ts: false, ..*o }).collect();
        let budget = ExecOptions { resident_budget: Some(1 << 20), ..one.clone() };
        let cases = [
            (&tt, &one, mt, "which the factors do not hold"),
            (&ts, &ExecOptions { ib: Some(2), ..one.clone() }, mt, "factors are for 4"),
            (&ts, &budget, mt, "runs resident"),
            (&ts, &one, mt + 1, "tile rows"),
        ];
        for (ops, opts, rows, why) in cases {
            let mut c = TiledMatrix::random(rows, 2, b, 78);
            let before = c.to_dense();
            let err = try_apply_q(&a, &f, ops, &mut c, Trans::Trans, opts).unwrap_err();
            assert!(
                matches!(&err, ExecError::Config { message } if message.contains(why)),
                "{err}"
            );
            assert!(c
                .to_dense()
                .data()
                .iter()
                .zip(before.data())
                .all(|(x, y)| x.to_bits() == y.to_bits()));
        }
        let mut c = c0.clone();
        try_apply_q(&a, &f, &ts, &mut c, Trans::Trans, &one).unwrap();
        assert_ne!(c.to_dense().data(), c0.to_dense().data());
    }

    #[test]
    fn serial_flat_tree_r_matches_reference() {
        check_r_against_reference(4, 3, 4, &flat_elims(4, 3));
    }

    #[test]
    fn serial_binary_tree_r_matches_reference() {
        check_r_against_reference(5, 3, 4, &binary_elims(5, 3));
    }

    #[test]
    fn serial_square_matrix() {
        check_r_against_reference(4, 4, 3, &flat_elims(4, 4));
    }

    #[test]
    fn factorization_preserves_column_norms_of_r() {
        // ‖R e_j‖ = ‖A e_j‖ since Q is orthogonal — true per panel head.
        let (mt, nt, b) = (4, 2, 4);
        let mut a = hqr_tile::TiledMatrix::random(mt, nt, b, 17);
        let a0 = a.to_dense();
        let g = TaskGraph::build(mt, nt, b, &flat_elims(mt, nt));
        let _ = execute_serial(&g, &mut a);
        let r = a.to_dense().upper_triangle();
        // First column: |r00| == ‖a[:,0]‖.
        let col0: f64 = (0..mt * b).map(|i| a0.get(i, 0).powi(2)).sum::<f64>().sqrt();
        assert!((r.get(0, 0).abs() - col0).abs() < 1e-12);
    }

    /// The invariant a V copy's release rests on: a factored tile's
    /// strict lower triangle (V) holds, bit for bit, from the end of its
    /// GEQRT to the end of the run — later kills rewrite only the tile's R,
    /// and updates never write a factored tile — and GEQRT's copy is that
    /// triangle. So a released copy can be rebuilt from the tile, and Q
    /// applied from it.
    #[test]
    fn a_factored_tiles_strict_lower_triangle_outlives_its_geqrt() {
        let (mt, nt, b, ib) = (6usize, 4usize, 6usize, 4usize);
        let ops: Vec<ElimOp> = (0..nt as u32)
            .flat_map(|k| (k + 1..mt as u32).map(move |i| ElimOp::new(k, i, k, i % 2 == 0)))
            .collect();
        let g = TaskGraph::build(mt, nt, b, &ops);
        let mut a = TiledMatrix::random(mt, nt, b, 80);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut after_geqrt = Vec::new();
        let mut f = TFactors::allocate_for(&g, ib);
        let store = TileStore::new(&mut a, &mut f);
        for t in g.tasks().iter() {
            // SAFETY: single-threaded, topological order.
            unsafe { store.run_task(t, g.trans()) };
            if t.kind == KernelKind::Geqrt {
                let (i, k) = (t.i as usize, t.k as usize);
                // SAFETY: as above; nothing runs meanwhile.
                let (tile, v) = unsafe {
                    (
                        store.slot_data((SlotFamily::A, i, k)),
                        store.slot_data((SlotFamily::Vg, i, k)),
                    )
                };
                let mut lower = vec![0.0; hqr_kernels::v_len(b)];
                hqr_kernels::pack_v(b, tile, &mut lower);
                assert_eq!(bits(v), bits(&lower), "GEQRT({i},{k})'s copy");
                after_geqrt.push(((i, k), lower));
            }
        }
        drop(store);
        for ((i, k), lower) in &after_geqrt {
            assert_eq!(bits(&crate::store::packed_v(&a, *i, *k)), bits(lower), "({i},{k})");
        }
        assert!(after_geqrt.len() > nt, "TT kills leave GEQRTs below the diagonal");
    }

    /// A traced run of `g` on `opts`' backing from the start: its factors,
    /// its trace, and the scratch its store holds at the end
    /// ([`TileStore::scratch_held`]).
    fn scratch_of_a_run(
        g: &TaskGraph,
        a: &mut TiledMatrix,
        opts: &ExecOptions,
    ) -> (TFactors, ExecTrace, [(usize, usize); 2]) {
        let ib = checked_ib(opts, g.b()).unwrap();
        let mut f = TFactors::allocate_for(g, ib);
        let policy = RunPolicy::of(opts);
        let order = || preview_order(g, &policy, None);
        let plan = RunPlan { graph: g, completed: None, order: &order };
        let store = TileStore::open(a, &mut f, &plan, opts.resident_budget, None).unwrap();
        let (mut run, frontier) = DagRun::new(g, store, &policy, None);
        let (_, trace) = drive(g, &run, frontier, opts, true, Instant::now()).unwrap();
        let held = run.store.scratch_held();
        run.store.unpage(a).unwrap();
        (f, trace.unwrap(), held)
    }

    /// The most T factors live at once when `g`'s tasks run in `order`:
    /// each T from its writer's start to its last reader's end.
    fn most_t_live(g: &TaskGraph, order: impl Iterator<Item = u32>) -> usize {
        let mut spans: HashMap<Slot, (usize, usize)> = HashMap::new();
        let mut n = 0;
        for (at, tid) in order.enumerate() {
            let t = &g.tasks()[tid as usize];
            for s in t.writes().into_iter().chain(t.reads()).filter(|s| is_t(s.0)) {
                spans.entry(s).or_insert((at, at)).1 = at;
            }
            n = at + 1;
        }
        let live = |at: usize| spans.values().filter(|&&(w, r)| w <= at && at <= r).count();
        (0..n).map(live).max().unwrap_or(0)
    }

    /// Every V copy and every T is released by the end of a run, flat at
    /// one and two threads and paged. A one-worker flat run holds one copy
    /// at a time (each GEQRT's readers run before the next GEQRT), and
    /// touches as many T places as it holds T at once on the order it ran
    /// in. The results are the serial run's bits.
    #[test]
    fn a_run_ends_holding_no_scratch() {
        let (mt, nt, b) = (6usize, 4usize, 4usize);
        let g = TaskGraph::build(mt, nt, b, &binary_elims(mt, nt));
        let input = TiledMatrix::random(mt, nt, b, 81);
        let mut want = input.clone();
        let f = execute_serial_ib(&g, &mut want, 2);
        let one = ExecOptions { ib: Some(2), ..ExecOptions::with_threads(1) };
        let budget = Some(working_set_bytes(&g, 2) / 3);
        for opts in [
            one.clone(),
            ExecOptions { nthreads: 2, ..one.clone() },
            ExecOptions { resident_budget: budget, ..one.clone() },
        ] {
            let label = format!("{} threads, budget {:?}", opts.nthreads, opts.resident_budget);
            let mut a = input.clone();
            let (got, trace, [(v, v_places), (t, t_places)]) = scratch_of_a_run(&g, &mut a, &opts);
            assert_eq!((v, t), (0, 0), "{label}");
            if opts.nthreads == 1 && budget != opts.resident_budget {
                let order = trace.records.iter().map(|r| r.task);
                assert_eq!((v_places, t_places), (1, most_t_live(&g, order)), "{label}");
                assert!(t_places > 1, "a TT tree holds several T at once");
            }
            assert_eq!(a.to_dense().data(), want.to_dense().data(), "{label}");
            assert!(got.bitwise_eq(&f), "{label}");
        }
    }

    /// On `hqr_adaptive`'s lists, a one-worker flat run touches as many T
    /// places as it holds T at once on the order it ran in, and
    /// `execute_serial_ib` one: in program order a factor task's updates
    /// follow it before the next factor task runs.
    #[test]
    fn t_places_are_the_most_t_held_at_once() {
        let b = 8;
        for (mt, nt) in [(8, 8), (16, 4), (64, 4)] {
            let grid = hqr_tile::ProcessGrid::new(2, 1);
            let ops = hqr::baselines::hqr_adaptive(mt, nt, grid).elims.to_ops();
            let ops: Vec<ElimOp> =
                ops.iter().map(|o| ElimOp::new(o.k, o.victim, o.killer, o.ts)).collect();
            let g = TaskGraph::build(mt, nt, b, &ops);
            let input = TiledMatrix::random(mt, nt, b, 82);
            let mut a = input.clone();
            let (_, trace, [_, (_, places)]) =
                scratch_of_a_run(&g, &mut a, &ExecOptions::with_threads(1));
            let realized = most_t_live(&g, trace.records.iter().map(|r| r.task));
            assert_eq!(places, realized, "{mt}x{nt} tiles, one worker");
            let mut f = TFactors::allocate_for(&g, b);
            let mut a = input.clone();
            let [_, (_, serial)] = serial_run(&g, &mut a, &mut f).scratch_held();
            let program = most_t_live(&g, 0..g.tasks().len() as u32);
            assert_eq!((serial, program), (1, 1), "{mt}x{nt} tiles, program order");
        }
    }

    /// A run ends when its last task does. The watchdog polls for stalls
    /// in naps of up to 5 ms (at a 60 s window), and the run's scope joins
    /// it: a worker leaving its loop wakes it, so the end does not wait
    /// for the nap.
    #[test]
    fn the_watchdog_does_not_delay_the_end_of_a_run() {
        let (mt, nt, b) = (6, 3, 48);
        let g = TaskGraph::build(mt, nt, b, &flat_elims(mt, nt));
        let opts =
            ExecOptions { watchdog: Some(Duration::from_secs(60)), ..ExecOptions::with_threads(2) };
        let mut gaps: Vec<f64> = (0..15)
            .map(|seed| {
                let mut a = TiledMatrix::random(mt, nt, b, seed);
                let (_, _, t) = try_execute_traced(&g, &mut a, &opts).unwrap();
                t.wall - t.records.iter().map(|r| r.end).fold(0.0, f64::max)
            })
            .collect();
        gaps.sort_by(f64::total_cmp);
        let median = gaps[gaps.len() / 2];
        assert!(median < 1e-3, "last kernel to the run's end: median {median:e} s of {gaps:?}");
    }

    #[test]
    fn tfactors_allocation_is_sparse() {
        let g = TaskGraph::build(3, 2, 2, &flat_elims(3, 2));
        let f = TFactors::allocate_for(&g, 1);
        // GEQRT only on diagonal rows (flat tree = TS everywhere).
        assert!(f.tg(0, 0).is_some());
        // A T is `t_len(b, ib)`, two 1 x 1 triangles; V copies are run
        // scratch, never a factorization's.
        assert_eq!(f.tg(0, 0).unwrap().len(), 2);
        assert!(f.slot(SlotFamily::Vg, 0, 0).is_none());
        assert_eq!(f.tk(1, 0).unwrap().len(), 2);
        assert!(f.tg(1, 1).is_some());
        assert!(f.tg(2, 0).is_none(), "TS victims have no GEQRT T");
        assert!(f.tk(1, 0).is_some());
        assert!(f.tk(0, 0).is_none(), "the diagonal row is never killed");
    }

    #[test]
    fn traced_execution_matches_untraced() {
        let (mt, nt, b) = (6, 4, 4);
        let g = TaskGraph::build(mt, nt, b, &binary_elims(mt, nt));
        let mut a1 = hqr_tile::TiledMatrix::random(mt, nt, b, 29);
        let mut a2 = a1.clone();
        let _ = parallel(&g, &mut a1, 3);
        let (_, _, trace) = try_execute_traced(&g, &mut a2, &ExecOptions::with_threads(3)).unwrap();
        assert_eq!(a1.to_dense().data(), a2.to_dense().data());
        assert_eq!(trace.records.len(), g.tasks().len(), "every task recorded");
        assert_eq!(trace.nthreads, 3);
        let util = trace.utilization();
        assert!(util > 0.0 && util <= 1.0 + 1e-9, "utilization {util}");
        // Records are non-overlapping per worker.
        let mut last_end = [0.0f64; 3];
        for r in &trace.records {
            assert!(r.start >= last_end[r.worker as usize] - 1e-9);
            assert!(r.end >= r.start);
            last_end[r.worker as usize] = r.end;
        }
        // Kernel-time histogram covers all busy time.
        let per_kind: f64 = trace.kernel_seconds(g.tasks()).iter().sum();
        let busy: f64 = trace.per_worker_busy().iter().sum();
        assert!((per_kind - busy).abs() < 1e-9);
    }

    #[test]
    fn traced_single_thread_works() {
        let g = TaskGraph::build(3, 2, 3, &flat_elims(3, 2));
        let mut a = hqr_tile::TiledMatrix::random(3, 2, 3, 30);
        let (_, _, trace) = try_execute_traced(&g, &mut a, &ExecOptions::with_threads(1)).unwrap();
        assert_eq!(trace.records.len(), g.tasks().len());
        assert_eq!(trace.nthreads, 1);
    }

    #[test]
    fn steal_scan_starts_past_self() {
        // Regression: the victim scan used to start at index 0, so every
        // idle worker hammered the lowest-index deques first.
        let global = GlobalQueue::new(false);
        let workers: Vec<Worker<u32>> = (0..4).map(|_| Worker::new_lifo()).collect();
        let stealers: Vec<Stealer<u32>> = workers.iter().map(|w| w.stealer()).collect();
        for (i, w) in workers.iter().enumerate() {
            if i != 1 {
                w.push(i as u32 * 10);
            }
        }
        let got = acquire(1, &workers[1], &stealers, &|w| global.take(w));
        assert_eq!(got, Some((20, Source::Peer)), "worker 1 must try worker 2 first, not 0");
    }

    #[test]
    fn steal_scan_wraps_around() {
        let global = GlobalQueue::new(false);
        let workers: Vec<Worker<u32>> = (0..4).map(|_| Worker::new_lifo()).collect();
        let stealers: Vec<Stealer<u32>> = workers.iter().map(|w| w.stealer()).collect();
        workers[0].push(7); // only worker 0 has work
        let got = acquire(2, &workers[2], &stealers, &|w| global.take(w));
        assert_eq!(got, Some((7, Source::Peer)), "scan from worker 2 must wrap 3 -> 0");
        // Nothing anywhere: a definite miss.
        assert_eq!(acquire(2, &workers[2], &stealers, &|w| global.take(w)), None);
    }

    #[test]
    fn acquire_prefers_local_then_global_then_peers() {
        let global = GlobalQueue::new(true);
        let workers: Vec<Worker<u32>> = (0..2).map(|_| Worker::new_lifo()).collect();
        let stealers: Vec<Stealer<u32>> = workers.iter().map(|w| w.stealer()).collect();
        workers[0].push(1);
        workers[1].push(3);
        global.push(2, &[0, 0, 0]);
        let take = |w: &Worker<u32>| global.take(w);
        assert_eq!(acquire(0, &workers[0], &stealers, &take), Some((1, Source::Local)));
        assert_eq!(acquire(0, &workers[0], &stealers, &take), Some((2, Source::Global)));
        assert_eq!(acquire(0, &workers[0], &stealers, &take), Some((3, Source::Peer)));
    }

    #[test]
    fn idle_worker_parks_then_exits_on_halt_or_drain() {
        // The loop shared by the engine, the pool and apply-Q: with nothing
        // to run it must neither spin forever nor miss either exit signal.
        let local: Worker<u32> = Worker::new_lifo();
        let stealers = [local.stealer()];
        let polls = std::cell::Cell::new(0u32);
        let none = |_: &Worker<u32>| Steal::Empty;
        worker_loop(
            0,
            &local,
            &stealers,
            none,
            || false,
            || {
                polls.set(polls.get() + 1);
                polls.get() > 20 // well past the backoff ladder: it parked
            },
            |_, _| unreachable!("no task was ever queued"),
        );
        assert_eq!(polls.get(), 21);
        let halt = AtomicBool::new(false);
        local.push(5);
        let mut ran = Vec::new();
        worker_loop(
            0,
            &local,
            &stealers,
            none,
            || halt.load(Ordering::Acquire),
            || false,
            |t, source| {
                ran.push((t, source));
                halt.store(true, Ordering::Release);
                ControlFlow::Continue(())
            },
        );
        assert_eq!(ran, vec![(5, Source::Local)]);
    }

    #[test]
    fn priority_queue_pops_best_rank_first() {
        let global = GlobalQueue::new(true);
        let ranks = [5u64, 1, 9, 3];
        for t in 0..4u32 {
            global.push(t, &ranks);
        }
        let w = Worker::new_lifo();
        let mut order = Vec::new();
        while let Steal::Success(t) = global.take(&w) {
            order.push(t);
        }
        assert_eq!(order, vec![1, 3, 0, 2], "lowest key first");
    }

    #[test]
    fn zero_matrix_stays_zero() {
        let (mt, nt, b) = (3, 2, 3);
        let mut a = hqr_tile::TiledMatrix::zeros(mt, nt, b);
        let g = TaskGraph::build(mt, nt, b, &flat_elims(mt, nt));
        let _ = execute_serial(&g, &mut a);
        assert_eq!(a.frob_norm(), 0.0);
    }

    #[test]
    fn orthogonal_transform_preserves_total_norm() {
        let (mt, nt, b) = (5, 2, 3);
        let mut a = hqr_tile::TiledMatrix::random(mt, nt, b, 23);
        let before = a.frob_norm();
        let g = TaskGraph::build(mt, nt, b, &flat_elims(mt, nt));
        let _ = execute_serial(&g, &mut a);
        // After factorization the matrix holds R (upper) and V blocks; the
        // R part alone cannot exceed, and its columns' norms match A's.
        let r = a.to_dense().upper_triangle();
        assert!(r.frob_norm() <= before + 1e-12);
        let _ = DenseMatrix::zeros(1, 1);
    }
}
