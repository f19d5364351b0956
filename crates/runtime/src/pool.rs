//! Multi-job work-stealing pool: one shared set of worker threads
//! multiplexing many concurrent factorization jobs.
//!
//! This is the structural refactor behind the `hqr serve` daemon. The
//! single-job engine in [`crate::exec`] borrows its graph and matrix from
//! the caller and dies with the call; the pool instead *owns* every
//! admitted job (graph, tile store, factor buffers) behind an `Arc`, so a
//! long-running process can interleave tasks from many tenants on one set
//! of cores — the paper's "keep every core busy" goal lifted from one DAG
//! to a population of DAGs.
//!
//! Every rule below is decided by one pure function, [`crate::pool_step::step`];
//! this module drives it (one lock for job state) and owns the data plane.
//! Robustness is per-tenant policy, reusing the PR 1–5 substrate through
//! the shared per-DAG run state ([`crate::exec`]'s `DagRun`):
//!
//! * **admission control** — a job's working-set footprint is priced at
//!   submission; jobs that can never fit the memory budget are rejected,
//!   jobs that don't fit *right now* wait in a bounded queue;
//! * **backpressure + load shedding** — when the queue is full, an arriving
//!   higher-QoS job evicts the lowest-QoS queued job (marked [`JobState::Shed`]);
//!   equal-or-lower QoS arrivals are rejected with a typed error;
//! * **deadlines** — a per-job deadline halts the job's tasks and routes it
//!   into the retry/quarantine path, generalizing the engine watchdog;
//! * **job-level retry** — a failed or timed-out job is re-run from its
//!   pristine payload after a capped exponential backoff, and quarantined
//!   ([`JobState::Quarantined`]) once its retry budget is exhausted;
//! * **graceful drain** — stop admitting, let running jobs finish within a
//!   grace period, and checkpoint the stragglers at a quiescent point (the
//!   PR-3 machinery). Nothing else is written: on a durable pool the
//!   write-ahead journal already holds every queued spec and now the
//!   stragglers' checkpoints, so a restart after a drain is the same
//!   [`JobPool::recover`] as a restart after a crash.
//!
//! Scheduling across jobs is QoS-major: the shared ready heap orders tasks
//! by (QoS class, admission order, per-job policy rank), so interactive
//! jobs preempt batch work at task granularity while each job internally
//! honors its own [`SchedPolicy`]. Workers keep the data-reuse LIFO deque
//! of the single-job engine: the best-ranked released successor stays
//! local, the rest are published to the shared heap.
//!
//! Fault plans are supported per job (failure and SDC strikes); every other
//! kind is rejected at submission: poisoned workers (worker indices belong
//! to one engine run), lost completions (the pool's progress accounting
//! would wedge), and the simulator's and coordinator's kinds. The daemon's
//! `Submit` frame carries a plan's per-task failures only, and the journal
//! carries no plan, so a job recovered after a restart runs without
//! injection.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError, RwLock, RwLockReadGuard};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

use crossbeam_deque::{Steal, Stealer, Worker};

use crate::checkpoint::{
    checkpoint_from_bytes, checkpoint_sections, checkpoint_to_bytes, elims_from_words,
    elims_to_words, read_checkpoint, write_checkpoint, Checkpoint, CheckpointError,
};
use crate::elim::ElimOp;
use crate::error::ExecError;
use crate::exec::{
    preview_order, relock, worker_loop, Attempt, DagRun, RunPolicy, TFactors, WorkerCounters,
};
use crate::fault::{FaultKind, FaultPlan, FaultStats};
use crate::graph::TaskGraph;
use crate::integrity::IntegrityMode;
use crate::journal::{
    accepted_len, io_err, result_from_bytes, Journal, JournalError, JournalEvent, ResultStore,
};
pub use crate::pool_step::SuspendKind;
use crate::pool_step::{
    over_budget, snapshot, step, Conclusion, Effect, Event, Job, Observed, PoolState, Verdict,
};
use crate::sched::SchedPolicy;
use crate::store::{working_set_bytes, RunPlan, TileStore};
use hqr_tile::io::{
    bytes_of_u64s, tiled_parts, u64s_of_bytes, BinFormatError, SectionList, SectionReader,
    MAX_FRAME,
};
use hqr_tile::TiledMatrix;

/// Magic bytes opening an encoded [`JobSpec`]. The name is historical: the
/// container used to be a drain-time queue file of many specs; it is now
/// the encoding of one, on the wire and in the journal.
pub const QUEUE_MAGIC: [u8; 8] = *b"HQRQUEUE";
/// Spec container version (2: `checksum64` trailer).
pub const QUEUE_VERSION: u32 = 2;

/// Section tags of the spec container — the count section and first
/// entry of the old queue layout, which every reader and writer of
/// version 2 agrees on.
const QSEC_COUNT: u32 = 1;
const QSEC_META: u32 = 16;
const QSEC_TAG: u32 = 17;
const QSEC_ELIMS: u32 = 18;
const QSEC_TILES: u32 = 19;
const QSEC_CKPT: u32 = 20;
const QSEC_DEDUP: u32 = 21;

/// File name of the write-ahead journal inside a state directory.
pub const JOURNAL_FILE: &str = "journal.wal";
/// Subdirectory of the state directory holding suspension checkpoints.
pub const CKPT_DIR: &str = "ckpt";
/// Subdirectory of the state directory holding durable results.
pub const RESULTS_DIR: &str = "results";

/// Opaque identifier of a job accepted by a [`JobPool`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Quality-of-service class of a job — the tenant's priority tier.
///
/// Ordering is semantic: `Interactive > Normal > Batch`. The scheduler
/// serves higher classes first at *task* granularity, admission serves
/// them first from the queue, and load shedding evicts the lowest class
/// first.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QosClass {
    /// Throughput work; first to be shed under overload.
    Batch,
    /// The default tier.
    #[default]
    Normal,
    /// Latency-sensitive work; served first, never shed by arrivals.
    Interactive,
}

impl QosClass {
    /// Every class, lowest to highest priority.
    pub const ALL: [QosClass; 3] = [QosClass::Batch, QosClass::Normal, QosClass::Interactive];

    /// Parse a CLI spelling.
    pub fn parse(s: &str) -> Option<QosClass> {
        match s {
            "batch" => Some(QosClass::Batch),
            "normal" => Some(QosClass::Normal),
            "interactive" => Some(QosClass::Interactive),
            _ => None,
        }
    }

    /// Canonical short name (the CLI spelling).
    pub fn name(self) -> &'static str {
        match self {
            QosClass::Batch => "batch",
            QosClass::Normal => "normal",
            QosClass::Interactive => "interactive",
        }
    }

    /// Min-heap key component: lower sorts first, so higher QoS gets 0.
    fn inverted(self) -> u64 {
        2 - self as u64
    }

    fn from_index(v: u64) -> Option<QosClass> {
        QosClass::ALL.get(v as usize).copied()
    }
}

impl fmt::Display for QosClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What a job starts from: a fresh matrix, or a suspended checkpoint.
#[derive(Clone, Debug)]
pub enum JobInput {
    /// Factor `a` according to `elims` from scratch.
    Fresh {
        /// The elimination list defining the factorization DAG.
        elims: Vec<ElimOp>,
        /// The matrix to factor.
        a: TiledMatrix,
    },
    /// Continue a factorization from a consistent checkpoint (produced by
    /// [`crate::checkpoint`] or by a drain suspension).
    Resume(Box<Checkpoint>),
}

/// Everything a tenant specifies about one factorization job: the input
/// plus per-job policy for every knob PRs 1–5 added to the engine.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// What to factor.
    pub input: JobInput,
    /// Inner block size; `None` selects the tile size (fresh jobs) or the
    /// checkpointed value (resumed jobs). A resumed job's `ib`, if given,
    /// must match the checkpoint.
    pub ib: Option<usize>,
    /// Priority tier for scheduling, admission, and shedding.
    pub qos: QosClass,
    /// Ready-queue ranking *within* this job's DAG.
    pub policy: SchedPolicy,
    /// Silent-data-corruption guarding for this job's tasks.
    pub integrity: IntegrityMode,
    /// Per-task retry budget after a caught panic or detected corruption.
    pub max_retries: u32,
    /// Job-level re-run budget: how many times a failed or timed-out job
    /// is re-run from its pristine payload before quarantine.
    pub job_retries: u32,
    /// Wall-clock budget per attempt; exceeding it halts the attempt and
    /// routes the job into the retry/quarantine path.
    pub deadline: Option<Duration>,
    /// Deterministic fault injection for this job only: task failures and
    /// SDC strikes; any other kind is rejected at submission. The spec's
    /// encoding leaves it out. The daemon's `Submit` frame carries its
    /// per-task failures beside the spec, and the journal carries none, so
    /// a job recovered after a restart runs without injection.
    pub plan: Option<FaultPlan>,
    /// Free-form label shown by `hqr jobs`.
    pub tag: String,
    /// Client-supplied idempotency key. Submitting a spec whose key is
    /// already registered returns the original job's id instead of
    /// creating a duplicate — safe resubmission after a lost response.
    pub dedup_key: Option<String>,
}

impl JobSpec {
    /// A fresh job with default policy (normal QoS, FIFO, no integrity
    /// checking, no retries, no deadline).
    pub fn fresh(elims: Vec<ElimOp>, a: TiledMatrix) -> JobSpec {
        JobSpec {
            input: JobInput::Fresh { elims, a },
            ib: None,
            qos: QosClass::default(),
            policy: SchedPolicy::default(),
            integrity: IntegrityMode::default(),
            max_retries: 0,
            job_retries: 0,
            deadline: None,
            plan: None,
            tag: String::new(),
            dedup_key: None,
        }
    }

    /// A job resuming from `ckpt` with default policy.
    pub fn resume(ckpt: Checkpoint) -> JobSpec {
        JobSpec {
            input: JobInput::Resume(Box::new(ckpt)),
            ..JobSpec::fresh(Vec::new(), TiledMatrix::zeros(1, 1, 1))
        }
    }

    /// Serialize the spec (minus any fault plan) for the wire protocol and
    /// the journal. The encoding is a section container: meta words, tag
    /// string, then either elims + tiles (fresh) or an embedded checkpoint
    /// container (resume).
    pub fn to_bytes(&self) -> Vec<u8> {
        let kind = match &self.input {
            JobInput::Fresh { .. } => 0u64,
            JobInput::Resume(_) => 1u64,
        };
        let meta = [
            kind,
            self.qos as u64,
            self.policy_word(),
            self.integrity_word(),
            self.ib.map_or(0, |ib| ib as u64),
            self.max_retries as u64,
            self.job_retries as u64,
            self.deadline.map_or(u64::MAX, |d| d.as_millis() as u64),
            0, // attempts consumed: the journal's `Accepted` record carries them now
        ];
        let mut w = SectionList::new(QUEUE_MAGIC, QUEUE_VERSION);
        w.section(QSEC_META, bytes_of_u64s(&meta)).section(QSEC_TAG, self.tag.as_bytes());
        if let Some(k) = &self.dedup_key {
            w.section(QSEC_DEDUP, k.as_bytes());
        }
        match &self.input {
            JobInput::Fresh { elims, a } => {
                w.section(QSEC_ELIMS, bytes_of_u64s(&elims_to_words(elims)));
                w.section_of(QSEC_TILES, tiled_parts(a));
            }
            JobInput::Resume(ck) => {
                w.section(QSEC_CKPT, checkpoint_to_bytes(ck));
            }
        }
        w.section(QSEC_COUNT, bytes_of_u64s(&[1]));
        w.into_bytes()
    }

    /// Decode the inverse of [`JobSpec::to_bytes`], from owned bytes or
    /// straight out of a borrowed frame.
    pub fn from_bytes(bytes: impl AsRef<[u8]>) -> Result<JobSpec, QueueFormatError> {
        let bad = |message: String| QueueFormatError::Inconsistent { message };
        let r = SectionReader::from_bytes(bytes, QUEUE_MAGIC, QUEUE_VERSION)?;
        let meta = u64s_of_bytes(QSEC_META, r.require(QSEC_META)?)?;
        if meta.len() != 9 {
            return Err(bad(format!("spec meta holds {} words, expected 9", meta.len())));
        }
        let qos = QosClass::from_index(meta[1])
            .ok_or_else(|| bad(format!("unknown QoS index {}", meta[1])))?;
        let policy = match meta[2] {
            0 => SchedPolicy::Fifo,
            1 => SchedPolicy::PanelFirst,
            2 => SchedPolicy::CriticalPath,
            other => return Err(bad(format!("unknown policy index {other}"))),
        };
        let integrity = match meta[3] {
            0 => IntegrityMode::Off,
            1 => IntegrityMode::Spot,
            2 => IntegrityMode::Full,
            other => return Err(bad(format!("unknown integrity index {other}"))),
        };
        let utf8 = |b: &[u8], what: &str| {
            String::from_utf8(b.to_vec()).map_err(|_| bad(format!("spec {what} is not UTF-8")))
        };
        let tag = utf8(r.require(QSEC_TAG)?, "tag")?;
        let dedup_key = r.section(QSEC_DEDUP).map(|b| utf8(b, "dedup key")).transpose()?;
        let retries = |i: usize, what: &str| {
            u32::try_from(meta[i])
                .map_err(|_| bad(format!("spec {what} {} overflows u32", meta[i])))
        };
        let input = match meta[0] {
            0 => {
                let words = u64s_of_bytes(QSEC_ELIMS, r.require(QSEC_ELIMS)?)?;
                let elims = elims_from_words(QSEC_ELIMS, &words)
                    .map_err(|e| bad(format!("spec elims: {e}")))?;
                let a = hqr_tile::io::tiled_from_bytes(QSEC_TILES, r.require(QSEC_TILES)?)?;
                JobInput::Fresh { elims, a }
            }
            1 => JobInput::Resume(Box::new(checkpoint_from_bytes(r.require(QSEC_CKPT)?.to_vec())?)),
            other => return Err(bad(format!("unknown spec kind {other}"))),
        };
        Ok(JobSpec {
            input,
            ib: if meta[4] == 0 { None } else { Some(meta[4] as usize) },
            qos,
            policy,
            integrity,
            max_retries: retries(5, "max_retries")?,
            job_retries: retries(6, "job_retries")?,
            deadline: if meta[7] == u64::MAX { None } else { Some(Duration::from_millis(meta[7])) },
            plan: None,
            tag,
            dedup_key,
        })
    }

    fn policy_word(&self) -> u64 {
        match self.policy {
            SchedPolicy::Fifo => 0,
            SchedPolicy::PanelFirst => 1,
            SchedPolicy::CriticalPath => 2,
        }
    }

    fn integrity_word(&self) -> u64 {
        match self.integrity {
            IntegrityMode::Off => 0,
            IntegrityMode::Spot => 1,
            IntegrityMode::Full => 2,
        }
    }
}

/// Lifecycle state of a job, as reported by [`JobPool::status`].
///
/// ```text
///            submit                    admit
/// (arrival) ───────► Queued ─────────────────────► Running
///              │        │ shed / cancel               │
///              │        ▼                             │ finish
///   reject     │     Shed / Cancelled                 ▼
///  (typed Err) │                                  Completed
///              │     Running ──fail/deadline──► Backoff ──admit──► Running
///                       │                          │ budget exhausted
///                       │ cancel                   ▼
///                       ▼                      Quarantined
///                   Cancelled      Running ──drain grace expired──► Suspended
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for admission (memory budget / active slot).
    #[default]
    Queued,
    /// Tasks are being executed by the shared pool.
    Running,
    /// Failed or timed out; waiting out the retry backoff before re-running.
    Backoff,
    /// Finished; the factors are available from [`JobPool::wait`].
    Completed,
    /// Cancelled by the tenant before completion.
    Cancelled,
    /// Evicted from the full queue by a higher-QoS arrival.
    Shed,
    /// Exhausted its job-level retry budget; the last error is recorded.
    Quarantined,
    /// Halted at a quiescent point (by a drain or a suspend request),
    /// checkpointed and parked until [`JobPool::resume_job`] — or, on a
    /// durable pool, until the next [`JobPool::recover`].
    Suspended,
}

impl JobState {
    /// True when the job will never run again in this pool.
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running | JobState::Backoff)
    }

    /// Canonical lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Backoff => "backoff",
            JobState::Completed => "completed",
            JobState::Cancelled => "cancelled",
            JobState::Shed => "shed",
            JobState::Quarantined => "quarantined",
            JobState::Suspended => "suspended",
        }
    }

    /// Parse the inverse of [`JobState::name`].
    pub fn parse(s: &str) -> Option<JobState> {
        [
            JobState::Queued,
            JobState::Running,
            JobState::Backoff,
            JobState::Completed,
            JobState::Cancelled,
            JobState::Shed,
            JobState::Quarantined,
            JobState::Suspended,
        ]
        .into_iter()
        .find(|j| j.name() == s)
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// The spec itself is unusable (bad elimination list, bad `ib`,
    /// a fault kind the pool cannot inject, checkpoint mismatch, ...).
    Invalid {
        /// What was wrong.
        message: String,
    },
    /// The job's working set alone exceeds the pool's memory budget; it
    /// could never be admitted.
    OverBudget {
        /// Bytes the job needs resident.
        need: u64,
        /// The pool's configured budget.
        budget: u64,
    },
    /// The submission queue is full and the job's QoS does not dominate
    /// any queued job (backpressure: the caller should retry later).
    QueueFull {
        /// The configured queue capacity.
        cap: usize,
    },
    /// The pool is draining and admits no new work.
    Draining,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Invalid { message } => write!(f, "invalid job spec: {message}"),
            SubmitError::OverBudget { need, budget } => {
                write!(f, "job needs {need} bytes resident but the pool budget is {budget}")
            }
            SubmitError::QueueFull { cap } => {
                write!(f, "submission queue is full ({cap} jobs) and the job's QoS sheds nothing")
            }
            SubmitError::Draining => write!(f, "pool is draining; submissions are closed"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why an encoded [`JobSpec`] could not be decoded.
#[derive(Debug)]
pub enum QueueFormatError {
    /// The container is unreadable or corrupt.
    Format(BinFormatError),
    /// A section decoded but its contents are inconsistent.
    Inconsistent {
        /// What invariant failed.
        message: String,
    },
    /// An embedded checkpoint failed to decode.
    Checkpoint(CheckpointError),
}

impl fmt::Display for QueueFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueFormatError::Format(e) => write!(f, "spec format error: {e}"),
            QueueFormatError::Inconsistent { message } => {
                write!(f, "inconsistent job spec: {message}")
            }
            QueueFormatError::Checkpoint(e) => write!(f, "embedded checkpoint: {e}"),
        }
    }
}

impl std::error::Error for QueueFormatError {}

impl From<BinFormatError> for QueueFormatError {
    fn from(e: BinFormatError) -> Self {
        QueueFormatError::Format(e)
    }
}

impl From<CheckpointError> for QueueFormatError {
    fn from(e: CheckpointError) -> Self {
        QueueFormatError::Checkpoint(e)
    }
}

/// Snapshot of one job for `hqr jobs` listings.
#[derive(Clone, Debug)]
pub struct JobView {
    /// The job's id.
    pub id: JobId,
    /// Tenant label.
    pub tag: String,
    /// Current lifecycle state.
    pub state: JobState,
    /// Priority tier.
    pub qos: QosClass,
    /// Attempts started (initial run plus job-level retries).
    pub attempts: u32,
    /// Tasks completed in the current/last attempt.
    pub tasks_done: usize,
    /// Tasks in the job's DAG.
    pub tasks_total: usize,
    /// Why the job is in its current state, when that needs saying (the
    /// failure it is backing off from, what suspended or ended it).
    pub error: Option<String>,
    /// Wall-clock from submission to terminal state (terminal jobs only).
    pub wall: Option<Duration>,
}

/// The factored output of a completed job.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The factored matrix (R in the upper triangle, V blocks below).
    pub a: TiledMatrix,
    /// The Householder factor buffers.
    pub factors: TFactors,
}

/// Terminal report for one job, returned by [`JobPool::wait`].
#[derive(Debug)]
pub struct JobOutcome {
    /// The job's id.
    pub id: JobId,
    /// The terminal state.
    pub state: JobState,
    /// Attempts started (initial run plus job-level retries).
    pub attempts: u32,
    /// The last error, if the job did not complete.
    pub error: Option<String>,
    /// Fault-recovery accounting accumulated across attempts.
    pub stats: FaultStats,
    /// The factorization (present iff `state == Completed`, this is the
    /// first waiter to claim it, and — on a durable pool, where it lives in
    /// the result store rather than in memory — retention has not pruned
    /// it).
    pub result: Option<JobResult>,
    /// Wall-clock from submission to the terminal state.
    pub wall: Duration,
}

/// Pool sizing and robustness knobs.
#[derive(Clone, Debug, PartialEq)]
pub struct PoolConfig {
    /// Worker threads shared by every job.
    pub nthreads: usize,
    /// Memory budget (bytes) for the *active* working set: admitted jobs'
    /// tiles, factor buffers, and retained pristine payloads. `u64::MAX`
    /// disables the gate.
    pub mem_budget: u64,
    /// Bounded submission queue: jobs accepted but not yet admitted.
    pub queue_cap: usize,
    /// Maximum concurrently active jobs; `0` means unbounded.
    pub max_active: usize,
    /// Longest the supervisor sleeps: submissions and quiesced runs wake it
    /// at once, deadlines and backoffs are checked at least this often.
    pub tick: Duration,
    /// First job-level retry backoff; doubles per attempt.
    pub backoff_base: Duration,
    /// Upper bound on the job-level retry backoff.
    pub backoff_cap: Duration,
    /// Crash-safe durability: when set, the pool keeps a write-ahead
    /// journal of every lifecycle transition, persists completed results,
    /// and checkpoints running jobs, all under one state directory.
    pub durability: Option<DurabilityConfig>,
    /// Per-job resident cap (bytes). A job whose working set exceeds the
    /// cap runs out-of-core: its tiles live in a spill file and at most
    /// `resident_budget` bytes of them stay in memory, so admission
    /// charges `min(footprint, resident_budget)` instead of the full
    /// footprint. `None` keeps every admitted job fully resident.
    pub resident_budget: Option<u64>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            nthreads: 4,
            mem_budget: u64::MAX,
            queue_cap: 64,
            max_active: 0,
            tick: Duration::from_millis(1),
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_secs(1),
            durability: None,
            resident_budget: None,
        }
    }
}

/// Crash-safety knobs: where durable state lives and how eagerly running
/// jobs are checkpointed.
#[derive(Clone, Debug, PartialEq)]
pub struct DurabilityConfig {
    /// State directory; the pool creates [`JOURNAL_FILE`], [`CKPT_DIR`],
    /// and [`RESULTS_DIR`] inside it.
    pub state_dir: PathBuf,
    /// Periodic-checkpoint interval for running jobs that have made
    /// progress since activation and carry no deadline (a deadline's
    /// wall budget is per activation, so periodic re-queuing would reset
    /// it). `Duration::ZERO` disables periodic checkpoints; suspensions
    /// and drains still checkpoint.
    pub ckpt_interval: Duration,
    /// Retention cap on stored results, oldest pruned first; `0` keeps
    /// everything.
    pub result_cap: usize,
    /// Journal size threshold (bytes) that triggers a compacting
    /// rotation after the next append; `0` lets the journal grow
    /// without bound.
    pub journal_rotate_bytes: u64,
    /// Byte ceiling on the stored-result directory, oldest pruned
    /// first; `0` keeps everything.
    pub result_max_bytes: u64,
    /// Age ceiling on stored results; `None` keeps results regardless
    /// of age.
    pub result_max_age: Option<Duration>,
}

impl DurabilityConfig {
    /// Defaults rooted at `state_dir`: 30 s periodic checkpoints,
    /// unbounded result retention, and no journal rotation.
    pub fn at(state_dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig {
            state_dir: state_dir.into(),
            ckpt_interval: Duration::from_secs(30),
            result_cap: 0,
            journal_rotate_bytes: 0,
            result_max_bytes: 0,
            result_max_age: None,
        }
    }
}

/// What the data plane needs to run a job; opaque to [`step`].
struct Work {
    graph: TaskGraph,
    /// Inner block size in effect (recorded into suspension checkpoints).
    ib: usize,
    policy: SchedPolicy,
    integrity: IntegrityMode,
    max_retries: u32,
    plan: Option<FaultPlan>,
    /// What the next activation starts from: the submitted matrix, or the
    /// last suspension's checkpoint. A run that cannot be retried takes it.
    seed: Option<JobInput>,
}

/// What the pool holds for a job that is not running.
enum Held {
    /// The means to run it (again).
    Work(Box<Work>),
    /// A completed job's finished checkpoint, until the first
    /// [`JobPool::wait`] claims it; `None` when the durable store has it
    /// instead.
    Done(Option<Box<Checkpoint>>),
}

/// One admitted job: the pool's unit of ownership. The run state's
/// [`TileStore`] holds raw pointers into the heap buffers of `a` and
/// `factors` below — tiles and τ are independently boxed slices, so moving
/// this struct (or the `Arc` around it) never invalidates the store.
struct ActiveJob {
    /// Activation id — unique per *attempt*, so stale queue entries from a
    /// previous incarnation of a retried job can never reach a new one.
    rid: u64,
    /// Public job id (stable across retries); also the FCFS tie-break
    /// within a QoS class, ids being handed out in admission order.
    id: u64,
    qos_inv: u64,
    work: Box<Work>,
    /// The job's elimination list (re-serialized on suspension).
    elims: Vec<ElimOp>,
    /// Store, guards, fault plan, ranks and frontier of this activation;
    /// `run.halt` halts the job's tasks.
    run: DagRun,
    /// Tasks remaining when this activation started — periodic
    /// checkpoints only fire once the activation has made progress.
    initial_remaining: usize,
    /// Workers currently holding (or about to run) one of this job's
    /// tasks. Finalization requires `halted-or-finished` AND `inflight == 0`.
    inflight: AtomicUsize,
    /// Why the run was halted (set once; first writer wins).
    verdict: Mutex<Option<Verdict>>,
    stats: Mutex<FaultStats>,
    started: Instant,
    /// Backing storage for `run.store` (kept alive for the job's lifetime).
    a: TiledMatrix,
    /// The τ of the job's factor tasks: a resumed job's from its
    /// checkpoint; each of this activation's adds its own when it is done.
    factors: TFactors,
}

impl ActiveJob {
    /// Record a verdict (first wins) and halt the job's tasks.
    fn halt_with(&self, v: Verdict) {
        relock(&self.verdict).get_or_insert(v);
        self.run.halt.store(true, Ordering::SeqCst);
    }

    fn tasks_done(&self) -> usize {
        self.work.graph.tasks().len() - self.run.frontier.remaining.load(Ordering::Acquire)
    }
}

/// What [`JobPool::drain`] accomplished.
#[derive(Clone, Debug)]
pub struct DrainReport {
    /// Jobs that reached a terminal state during the drain window.
    pub finished: usize,
    /// Jobs halted at a quiescent point and checkpointed.
    pub suspended: Vec<JobId>,
    /// Live jobs (queued, backing off, suspended) the journal holds for
    /// the next [`JobPool::recover`]; 0 on a volatile pool.
    pub persisted: usize,
}

/// What [`JobPool::recover`] reconstructed from the write-ahead journal.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryReport {
    /// Jobs named by the journal.
    pub total: usize,
    /// Completed jobs re-registered (results retrievable).
    pub completed_retained: usize,
    /// Other terminal jobs re-registered (quarantined, cancelled, shed).
    pub terminal_retained: usize,
    /// Live jobs resubmitted from their last durable checkpoint.
    pub resumed_from_checkpoint: usize,
    /// Live jobs resubmitted from their original spec (no usable
    /// checkpoint).
    pub restarted_fresh: usize,
    /// Live jobs whose journaled spec was unusable; quarantined so they
    /// still reach a terminal state.
    pub unrecoverable: usize,
}

type ReadyKey = Reverse<(u64, u64, u64, u32, u64)>;

/// The control plane behind its one lock.
struct Control {
    state: PoolState<Held>,
    /// Journal records decided on and not yet written, in `step` order.
    /// Whoever next holds the journal file writes all of them, so records
    /// reach the file in decision order though nobody syncs under this lock.
    outbox: Vec<JournalEvent>,
}

struct Shared {
    cfg: PoolConfig,
    /// `step`'s clock counts from here.
    epoch: Instant,
    /// The one lock for job state: held for a `step` or a lookup, never
    /// across I/O.
    control: Mutex<Control>,
    waiters: Condvar,
    active: RwLock<HashMap<u64, Arc<ActiveJob>>>,
    /// Shared ready heap: (qos_inv, job id, rank, tid, rid), min-ordered.
    ready: Mutex<BinaryHeap<ReadyKey>>,
    /// Write-ahead journal of lifecycle transitions (durable pools only).
    /// Taken before `control` when both are needed, never after.
    journal: Option<Mutex<Journal>>,
    /// Durable store of completed results (durable pools only).
    results: Option<ResultStore>,
    /// The supervisor's thread, unparked by the events it acts on.
    supervisor: OnceLock<Thread>,
    next_rid: AtomicU64,
    stop: AtomicBool,
}

impl Shared {
    fn push_ready(&self, job: &ActiveJob, tid: u32) {
        relock(&self.ready).push(Reverse((
            job.qos_inv,
            job.id,
            job.run.frontier.ranks[tid as usize],
            tid,
            job.rid,
        )));
    }

    /// The active-job map, read-locked (poison-tolerant like [`relock`]).
    fn active(&self) -> RwLockReadGuard<'_, HashMap<u64, Arc<ActiveJob>>> {
        self.active.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Write every journal record decided so far, oldest first, under one
    /// `fdatasync`. On return the caller's own records are durable — written
    /// here, or by the thread this one waited behind. Journal IO failure
    /// degrades durability, never availability: it goes to stderr.
    fn flush(&self) {
        let Some(j) = &self.journal else { return };
        let mut j = relock(j);
        let batch = std::mem::take(&mut relock(&self.control).outbox);
        if let Err(e) = j.append(&batch) {
            eprintln!("hqr-pool: journal append failed: {e}");
        }
        // Size-threshold rotation: compact away terminal noise once the file
        // outgrows the configured budget.
        let rotate_at = self.cfg.durability.as_ref().map_or(0, |d| d.journal_rotate_bytes);
        if j.rotate_due(rotate_at) {
            match j.rotate() {
                Ok(reclaimed) => {
                    eprintln!("hqr-pool: journal rotated, reclaimed {reclaimed} bytes")
                }
                Err(e) => eprintln!("hqr-pool: journal rotation failed: {e}"),
            }
        }
    }

    /// Wake the supervisor: there is a job to admit or a run to conclude.
    fn kick(&self) {
        self.supervisor.get().map(Thread::unpark);
    }

    /// The one way the live pool changes a job's state: feed `event` to
    /// [`step`] under the state lock, then carry out what it asks for with
    /// the lock released — journal first (write-ahead: nothing else happens
    /// and no caller is answered before the records are durable).
    /// Returns the answer to the caller, if the event asked for one.
    fn apply(&self, event: Event<Held>) -> Option<Effect<Held>> {
        let mut c = relock(&self.control);
        let mut effects = step(&mut c.state, event, self.epoch.elapsed());
        let answer = effects.pop_if(|e| matches!(e, Effect::Submitted(_) | Effect::Ack(_)));
        let mut wrote = false;
        let (mut starts, mut rest) = (Vec::new(), Vec::new());
        for effect in effects {
            match effect {
                Effect::Journal(ev) if self.journal.is_some() => {
                    c.outbox.push(ev);
                    wrote = true;
                }
                Effect::Journal(_) => {}
                Effect::Activate(id, held) => {
                    let Some(Held::Work(work)) = held else {
                        unreachable!("a waiting job holds its work")
                    };
                    let job = &c.state.jobs[&id];
                    starts.push((id, job.qos, job.may_retry(), work));
                }
                other => rest.push(other),
            }
        }
        drop(c);
        if wrote {
            self.flush();
        }
        for effect in rest {
            match effect {
                Effect::Halt(id, v) => {
                    if let Some(job) = self.active().values().find(|j| j.id == id) {
                        job.halt_with(v);
                    }
                }
                Effect::DropCheckpoint(id) => {
                    if let Some(d) = &self.cfg.durability {
                        let _ = std::fs::remove_file(d.state_dir.join(ckpt_file(id)));
                    }
                }
                Effect::Wake => self.waiters.notify_all(),
                _ => unreachable!("handled under the lock"),
            }
        }
        for (id, qos, retain, work) in starts {
            activate_job(self, id, qos, retain, work);
        }
        answer
    }

    /// Jobs the state has running (activating and concluding included).
    fn running(&self) -> usize {
        relock(&self.control).state.live().filter(|j| j.state == JobState::Running).count()
    }
}

/// A job's suspension checkpoint, relative to the state directory.
fn ckpt_file(id: u64) -> String {
    format!("{CKPT_DIR}/job-{id}.ckpt")
}

/// The multi-job pool: owned worker threads plus a supervisor enforcing
/// admission, deadlines, retry/quarantine, and drain.
pub struct JobPool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

fn invalid(message: impl Into<String>) -> SubmitError {
    SubmitError::Invalid { message: message.into() }
}

/// The first tile of `a` holding a NaN or an infinity, as a rejection.
fn reject_non_finite(a: &TiledMatrix, what: &str) -> Result<(), SubmitError> {
    for i in 0..a.mt() {
        for j in 0..a.nt() {
            if let Some(v) = a.tile(i, j).iter().find(|v| !v.is_finite()) {
                return Err(invalid(format!(
                    "{what} tile ({i}, {j}) holds a non-finite value ({v})"
                )));
            }
        }
    }
    Ok(())
}

/// Validate a spec, price it, and turn it into the [`Job`] that travels
/// through the pool: the one place a spec is taken apart. `journaled` pools
/// get the spec's encoding along, for the `Accepted` record, and refuse a
/// job whose record would pass [`MAX_FRAME`].
fn prepare(spec: JobSpec, cfg: &PoolConfig, journaled: bool) -> Result<(Job, Held), SubmitError> {
    // Worker indices belong to one engine run, and a lost completion would
    // wedge the pool's progress accounting: the pool injects task kinds only.
    if let Some(p) = &spec.plan {
        p.check_kinds("the pool", &[FaultKind::FailTask, FaultKind::CorruptTask])
            .map_err(invalid)?;
    }
    let (elims, a) = match &spec.input {
        JobInput::Fresh { elims, a } => (elims, a),
        JobInput::Resume(ck) => (&ck.elims, &ck.a),
    };
    let graph = TaskGraph::try_build(a.mt(), a.nt(), a.b(), elims)
        .map_err(|e| invalid(format!("elimination list rejected: {e}")))?;
    let ib = effective_ib(&spec, a.b()).map_err(invalid)?;
    if let JobInput::Resume(ck) = &spec.input {
        ck.validate_against(&graph, ib)
            .map_err(|e| invalid(format!("checkpoint rejected: {e}")))?;
        reject_non_finite(a, "checkpoint")?;
    } else {
        reject_non_finite(a, "matrix")?;
    }
    // A job that may be retried keeps its pristine matrix beside the
    // working copy. A resident budget caps the charge: the job runs
    // out-of-core with at most that many bytes of tiles in memory.
    let need = working_set_bytes(&graph, ib)
        + if spec.job_retries > 0 { (a.rows() * a.cols() * 8) as u64 } else { 0 };
    let bytes = journaled.then(|| spec.to_bytes());
    let record = bytes.as_deref().map_or(0, |b| accepted_len(spec.dedup_key.as_deref(), b));
    if record > MAX_FRAME {
        return Err(invalid(format!("its {record}-byte journal record passes the frame cap")));
    }
    let tasks_total = graph.tasks().len();
    let JobSpec { input, qos, policy, integrity, max_retries, job_retries, deadline, plan, .. } =
        spec;
    let work = Work { graph, ib, policy, integrity, max_retries, plan, seed: Some(input) };
    let job = Job {
        tag: spec.tag,
        qos,
        job_retries,
        deadline,
        footprint: cfg.resident_budget.map_or(need, |rb| need.min(rb.max(1))),
        dedup: spec.dedup_key,
        spec: bytes,
        tasks_total,
        ..Job::default()
    };
    Ok((job, Held::Work(Box::new(work))))
}

fn effective_ib(spec: &JobSpec, b: usize) -> Result<usize, String> {
    let ib = match (&spec.input, spec.ib) {
        (JobInput::Resume(ck), None) => ck.ib,
        (JobInput::Resume(ck), Some(ib)) if ib != ck.ib => {
            return Err(format!("spec ib={ib} but the checkpoint was taken with ib={}", ck.ib));
        }
        (_, Some(ib)) => ib,
        (_, None) => b,
    };
    if ib == 0 || ib > b {
        return Err(format!("inner block size {ib} must be in 1..={b}"));
    }
    Ok(ib)
}

/// Give a replayed job back what only its spec and checkpoint file know:
/// label, policy, price — and, if it will run again, what to run from: its
/// checkpoint when readable (`true`), so no completed panel is recomputed.
fn hydrate(job: &mut Job, dir: &Path, cfg: &PoolConfig) -> Result<Option<(bool, Held)>, String> {
    let bytes = job.spec.as_ref().ok_or("journal lost the job's spec")?;
    let mut spec = JobSpec::from_bytes(bytes).map_err(|e| e.to_string())?;
    (job.tag, job.qos) = (spec.tag.clone(), spec.qos);
    if job.settled().is_some() {
        return Ok(None);
    }
    let ckpt = job.ckpt_file.as_ref().and_then(|f| read_checkpoint(&dir.join(f)).ok());
    let resumed = ckpt.is_some();
    match ckpt {
        Some(ck) => {
            spec.input = JobInput::Resume(Box::new(ck));
            spec.ib = None; // take the checkpoint's recorded ib
        }
        None => (job.ckpt_file, job.ckpt_tasks_done) = (None, 0),
    }
    let (priced, held) = prepare(spec, cfg, false).map_err(|e| e.to_string())?;
    if let Some(e) = over_budget(cfg, priced.footprint) {
        return Err(e.to_string());
    }
    *job = Job {
        id: job.id,
        attempts: job.attempts,
        spec: job.spec.take(),
        ckpt_file: job.ckpt_file.take(),
        ckpt_tasks_done: job.ckpt_tasks_done,
        ..priced
    };
    Ok(Some((resumed, held)))
}

/// One job as the listings show it; `live_done` is its running
/// activation's progress, if it has one.
fn view(job: &Job, live_done: Option<usize>) -> JobView {
    JobView {
        id: JobId(job.id),
        tag: job.tag.clone(),
        state: job.state,
        qos: job.qos,
        attempts: job.attempts,
        // The activation was read before the state: a job concluded in
        // between is terminal here and its own count is the right one.
        tasks_done: live_done.filter(|_| !job.state.is_terminal()).unwrap_or(job.tasks_done),
        tasks_total: job.tasks_total,
        error: job.error.clone(),
        wall: job.wall,
    }
}

impl JobPool {
    /// Spawn the worker threads and supervisor for a new pool.
    ///
    /// # Panics
    ///
    /// Panics where [`JobPool::try_new`] returns an error — a pool that
    /// cannot keep its durability promise must not start.
    pub fn new(cfg: PoolConfig) -> JobPool {
        JobPool::try_new(cfg).expect("open pool state directory")
    }

    /// [`JobPool::new`], reporting an unusable durability state directory
    /// (it cannot be created, or its journal or result store cannot be
    /// opened) as an error instead of panicking.
    pub fn try_new(cfg: PoolConfig) -> Result<JobPool, JournalError> {
        let nthreads = cfg.nthreads.max(1);
        let (journal, results) = match &cfg.durability {
            Some(d) => {
                let ckpts = d.state_dir.join(CKPT_DIR);
                std::fs::create_dir_all(&ckpts).map_err(|e| io_err(&ckpts, e))?;
                let j = Journal::open(&d.state_dir.join(JOURNAL_FILE))?;
                let r = ResultStore::with_retention(
                    &d.state_dir.join(RESULTS_DIR),
                    d.result_cap,
                    d.result_max_bytes,
                    d.result_max_age,
                )?;
                (Some(Mutex::new(j)), Some(r))
            }
            None => (None, None),
        };
        let cfg = PoolConfig { nthreads, ..cfg };
        let state = PoolState::new(cfg.clone());
        let shared = Arc::new(Shared {
            cfg,
            epoch: Instant::now(),
            control: Mutex::new(Control { state, outbox: Vec::new() }),
            waiters: Condvar::new(),
            active: RwLock::new(HashMap::new()),
            ready: Mutex::new(BinaryHeap::new()),
            journal,
            results,
            supervisor: OnceLock::new(),
            next_rid: AtomicU64::new(1),
            stop: AtomicBool::new(false),
        });
        let workers: Vec<Worker<(u64, u32)>> = (0..nthreads).map(|_| Worker::new_lifo()).collect();
        let stealers: Arc<Vec<Stealer<(u64, u32)>>> =
            Arc::new(workers.iter().map(Worker::stealer).collect());
        let mut handles = Vec::with_capacity(nthreads + 1);
        for (me, local) in workers.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            let stealers = Arc::clone(&stealers);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("hqr-pool-{me}"))
                    .spawn(move || pool_worker(&shared, me, &local, &stealers))
                    .expect("spawn pool worker"),
            );
        }
        {
            let s = Arc::clone(&shared);
            let supervisor = std::thread::Builder::new()
                .name("hqr-pool-supervisor".into())
                .spawn(move || supervisor_loop(&s))
                .expect("spawn pool supervisor");
            let _ = shared.supervisor.set(supervisor.thread().clone());
            handles.push(supervisor);
        }
        Ok(JobPool { shared, handles: Mutex::new(handles) })
    }

    /// Submit one job. Admission-control decisions (budget, backpressure,
    /// shedding) happen here and in the supervisor; an `Ok` id means the
    /// job was *accepted* and will reach a terminal state observable via
    /// [`JobPool::wait`].
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        self.submit_dedup(spec).map(|(id, _)| id)
    }

    /// [`JobPool::submit`] with idempotency reporting: when the spec's
    /// `dedup_key` is already registered, no new job is created and the
    /// original id is returned with `true`. On durable pools the accepted
    /// job is journaled before this returns, so a response the client
    /// receives is a response that survives a crash.
    pub fn submit_dedup(&self, spec: JobSpec) -> Result<(JobId, bool), SubmitError> {
        let s = &*self.shared;
        // Gate and dedup index are asked before the spec is priced (the
        // graph build is the expensive part), and again by `step`.
        let early = relock(&s.control).state.precheck(spec.dedup_key.as_deref(), 0);
        let answer = early.unwrap_or_else(|| {
            let (job, held) = prepare(spec, &s.cfg, s.journal.is_some())?;
            let answer = match s.apply(Event::Submit(Box::new(job), Some(held))) {
                Some(Effect::Submitted(answer)) => answer,
                _ => unreachable!("a submission is answered"),
            };
            // Admission happens now, not at the next tick.
            s.kick();
            answer
        });
        answer.map(|(id, deduped)| (JobId(id), deduped))
    }

    /// Replay the write-ahead journal after a restart — polite (the old
    /// process drained first) or a crash, the code is the same: the records
    /// are folded through [`step`] into the state the old process had
    /// reached, and [`Event::Restart`] re-queues whatever was still live.
    /// Settled jobs stay listed (completed results stay retrievable); live
    /// jobs run from their last durable checkpoint, else from their spec.
    /// The journal is compacted to the [`snapshot`] of that state.
    ///
    /// Call once, before accepting new submissions.
    pub fn recover(&self) -> Result<RecoveryReport, JournalError> {
        let s = &*self.shared;
        let (Some(d), Some(jm)) = (&s.cfg.durability, &s.journal) else {
            return Err(JournalError::Inconsistent {
                message: "pool has no durable state directory".into(),
            });
        };
        let events = Journal::read(&d.state_dir.join(JOURNAL_FILE))?;
        let mut state = PoolState::replayed(s.cfg.clone(), events);
        step(&mut state, Event::Restart, Duration::ZERO);
        let mut report = RecoveryReport { total: state.jobs.len(), ..Default::default() };
        let jobs = state.jobs.values_mut();
        let hydrated: Vec<_> =
            jobs.map(|job| (job.id, job.settled(), hydrate(job, &d.state_dir, &s.cfg))).collect();
        for (id, settled, outcome) in hydrated {
            match (settled, outcome) {
                (Some(JobState::Completed), _) => report.completed_retained += 1,
                (Some(_), _) => report.terminal_retained += 1,
                (None, Ok(Some((resumed, held)))) => {
                    state.held.insert(id, held);
                    report.resumed_from_checkpoint += usize::from(resumed);
                    report.restarted_fresh += usize::from(!resumed);
                }
                // Quarantined, so it still reaches a terminal state.
                (None, lost) => {
                    let why = lost.err().unwrap_or_default();
                    let error = format!("unrecoverable after restart: {why}");
                    let ev = JournalEvent::Quarantined { id, error };
                    step(&mut state, Event::Replay(ev), Duration::ZERO);
                    report.unrecoverable += 1;
                }
            }
        }
        relock(jm).compact(&snapshot(&state))?;
        // Files no record names: a prune or a completion cut short by a crash.
        if let Some(store) = &s.results {
            let listed = |id: &u64| state.jobs.get(id).is_some_and(|j| j.result_file.is_some());
            store.unlink(&store.list().into_iter().filter(|id| !listed(id)).collect::<Vec<_>>());
        }
        // The journal holds the specs from here on; the live state never does.
        state.jobs.values_mut().for_each(|j| j.spec = None);
        relock(&s.control).state = state;
        Ok(report)
    }

    /// Block until `id` reaches a terminal state and return its outcome.
    /// The factored matrix is handed to the first waiter — read back from
    /// the durable result store when that is where it lives (it is gone
    /// if retention has pruned it since); later waiters (and waits on
    /// already-reported jobs) get a payload-less outcome. Returns `None`
    /// for ids this pool never accepted.
    pub fn wait(&self, id: JobId) -> Option<JobOutcome> {
        let s = &*self.shared;
        let mut c = relock(&s.control);
        let (mut out, claimed) = loop {
            let job = c.state.jobs.get_mut(&id.0)?;
            if job.state.is_terminal() {
                let out = JobOutcome {
                    id,
                    state: job.state,
                    attempts: job.attempts,
                    error: job.error.clone(),
                    stats: job.stats,
                    result: None,
                    wall: job.wall.unwrap_or_default(),
                };
                // What is held for a parked job is its work, and stays.
                let done = matches!(c.state.held.get(&id.0), Some(Held::Done(_)));
                break (out, c.state.held.remove(&id.0).filter(|_| done));
            }
            c = s.waiters.wait(c).unwrap_or_else(PoisonError::into_inner);
        };
        drop(c);
        if let Some(Held::Done(in_memory)) = claimed {
            let in_memory = in_memory.map(|c| JobResult { a: c.a, factors: c.factors });
            out.result = in_memory.or_else(|| {
                let stored = s.results.as_ref()?.get(id.0)?;
                result_from_bytes(stored).ok().map(|r| r.result)
            });
        }
        Some(out)
    }

    /// Current snapshot of one job.
    pub fn status(&self, id: JobId) -> Option<JobView> {
        let s = &*self.shared;
        let live_done = s.active().values().find(|j| j.id == id.0).map(|j| j.tasks_done());
        relock(&s.control).state.jobs.get(&id.0).map(|job| view(job, live_done))
    }

    /// Current snapshot of every job the pool has accepted, newest first.
    pub fn jobs(&self) -> Vec<JobView> {
        let s = &*self.shared;
        let live: HashMap<u64, usize> =
            s.active().values().map(|j| (j.id, j.tasks_done())).collect();
        let c = relock(&s.control);
        c.state.jobs.values().rev().map(|job| view(job, live.get(&job.id).copied())).collect()
    }

    /// A yes-or-no request about one job.
    fn ask(&self, event: Event<Held>) -> bool {
        matches!(self.shared.apply(event), Some(Effect::Ack(true)))
    }

    /// Request cancellation. Returns `false` for unknown or already
    /// terminal jobs; otherwise the job reaches [`JobState::Cancelled`]
    /// (unless its run finishes before the halt lands). Queued and parked
    /// (suspended) jobs cancel immediately.
    pub fn cancel(&self, id: JobId) -> bool {
        self.ask(Event::Request(id.0, Verdict::Cancel))
    }

    /// Request suspension of `id`: a queued job parks immediately, a
    /// running job is checkpointed at its next panel-boundary quiescent
    /// point and then parks. The job sits in [`JobState::Suspended`]
    /// until [`JobPool::resume_job`] (or [`JobPool::cancel`]). Returns
    /// `false` for unknown or terminal jobs.
    pub fn suspend(&self, id: JobId) -> bool {
        self.ask(Event::Request(id.0, Verdict::Suspend(SuspendKind::Park)))
    }

    /// Resume a job parked by [`JobPool::suspend`]: it re-queues from its
    /// suspension checkpoint and continues bitwise-identically from the
    /// completed-panel frontier. Returns `false` when `id` is not parked.
    pub fn resume_job(&self, id: JobId) -> bool {
        self.ask(Event::ResumeJob(id.0))
    }

    /// Encoded result container of job `id`, once the job is settled — a
    /// stored result only after its `Completed` record is durable; else the
    /// unclaimed in-memory one. Blocks until then or until the pool starts
    /// draining. `None` (at once for an unknown id) when there is no result:
    /// not completed, drained first, pruned, or already claimed.
    pub fn result_bytes(&self, id: JobId) -> Option<Vec<u8>> {
        let s = &*self.shared;
        let mut c = relock(&s.control);
        let stored = loop {
            let job = c.state.jobs.get(&id.0)?;
            if job.settled().is_some() {
                break job.result_file.is_some();
            }
            if c.state.draining {
                return None;
            }
            c = s.waiters.wait(c).unwrap_or_else(PoisonError::into_inner);
        };
        if !stored {
            return match c.state.held.get(&id.0)? {
                Held::Done(Some(done)) => Some(checkpoint_to_bytes(done)),
                _ => None,
            };
        }
        // Its `Completed` record was queued before the state showed it: flush.
        drop(c);
        s.flush();
        s.results.as_ref()?.get(id.0)
    }

    /// Graceful drain: stop admitting, give running jobs `grace` to
    /// finish, then checkpoint the stragglers at a quiescent point and
    /// park them. Blocks until the pool is quiet. Queued and parked jobs
    /// stay where they are: on a durable pool the journal already holds
    /// them for the next [`JobPool::recover`], on a volatile pool they stay
    /// in memory (a parked job can still be resumed or cancelled).
    pub fn drain(&self, grace: Duration) -> DrainReport {
        let s = &*self.shared;
        s.apply(Event::Drain { grace_over: false });
        // Release the `result_bytes` calls parked on jobs that may not end.
        s.waiters.notify_all();
        // Settled states are absorbing, so a count before and after tells
        // how many jobs ended during the drain.
        let ended = || {
            let c = relock(&s.control);
            let done = [JobState::Completed, JobState::Cancelled, JobState::Quarantined];
            c.state.jobs.values().filter(|j| done.contains(&j.state)).count()
        };
        let ended_before = ended();
        let deadline = Instant::now() + grace;
        while s.running() > 0 && Instant::now() < deadline {
            std::thread::sleep(s.cfg.tick);
        }
        // Suspend what still runs; a job leaves `Running` in the one `step`
        // that parks or settles it.
        s.apply(Event::Drain { grace_over: true });
        while s.running() > 0 {
            std::thread::sleep(s.cfg.tick);
        }
        // Its records were queued before the state showed it; whoever is
        // still writing them holds the journal, so this waits for them.
        s.flush();
        let finished = ended() - ended_before;
        let c = relock(&s.control);
        let parked = c.state.live().filter(|j| j.state == JobState::Suspended);
        let suspended = parked.map(|j| JobId(j.id)).collect();
        let persisted = if s.journal.is_some() { c.state.live().count() } else { 0 };
        DrainReport { finished, suspended, persisted }
    }

    /// Stop the pool: finish active jobs, mark still-queued jobs as shed,
    /// and join every thread. The pool accepts nothing afterwards. A pool
    /// that was drained first keeps its queue un-shed: those jobs are the
    /// journal's to resubmit, and a `Shed` record would end them.
    pub fn shutdown(&self) {
        let s = &*self.shared;
        s.apply(Event::Shutdown { quiet: false });
        s.waiters.notify_all();
        while s.running() > 0 {
            std::thread::sleep(s.cfg.tick);
        }
        s.apply(Event::Shutdown { quiet: true });
        self.stop_threads();
    }

    fn stop_threads(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.kick();
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *relock(&self.handles));
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for JobPool {
    fn drop(&mut self) {
        let s = &*self.shared;
        // Abandon outstanding work: halt active jobs so workers stop
        // touching them, then stop the threads. Queued and parked jobs are
        // left as the journal has them.
        s.apply(Event::Drain { grace_over: false });
        for job in s.active().values() {
            job.halt_with(Verdict::Cancel);
        }
        self.stop_threads();
    }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

fn pool_worker(
    shared: &Shared,
    me: usize,
    local: &Worker<(u64, u32)>,
    stealers: &[Stealer<(u64, u32)>],
) {
    // Caught panics (injected faults, kernel bugs) are expected events on
    // this thread for the pool's whole lifetime — keep them off stderr.
    let _quiet = crate::fault::QuietPanics::engage();
    worker_loop(
        me,
        local,
        stealers,
        |_| match relock(&shared.ready).pop() {
            Some(Reverse((_, _, _, tid, rid))) => Steal::Success((rid, tid)),
            None => Steal::Empty,
        },
        || shared.stop.load(Ordering::SeqCst),
        // Pool workers outlive every job: only `stop` ends them.
        || false,
        |(rid, tid), _| {
            let job = shared.active().get(&rid).cloned();
            // A missing rid means the incarnation already finalized (or was
            // retired by a retry); the queue entry is stale — skip it.
            if let Some(job) = job {
                // Inflight is raised BEFORE the halt check (and the
                // supervisor halts BEFORE reading inflight, both SeqCst), so
                // finalization can never observe inflight == 0 while this
                // worker goes on to run a task: either we see the halt and
                // bail, or the supervisor sees our increment and waits.
                job.inflight.fetch_add(1, Ordering::SeqCst);
                if !job.run.halt.load(Ordering::SeqCst) && !job.run.frontier.is_done(tid) {
                    run_job_task(shared, &job, tid, me, local);
                }
                // Whoever leaves a finished or halted run quiescent wakes the
                // supervisor — once its clone, which `finalize_jobs` waits
                // out, is dropped.
                let quiesced = job.inflight.fetch_sub(1, Ordering::SeqCst) == 1
                    && (job.run.frontier.remaining.load(Ordering::Acquire) == 0
                        || job.run.halt.load(Ordering::SeqCst));
                drop(job);
                if quiesced {
                    shared.kick();
                }
            }
            ControlFlow::Continue(())
        },
    );
}

fn run_job_task(
    shared: &Shared,
    job: &Arc<ActiveJob>,
    tid: u32,
    me: usize,
    local: &Worker<(u64, u32)>,
) {
    let graph = &job.work.graph;
    let mut wstats = FaultStats::default();
    let mut counters = WorkerCounters::default();
    // SAFETY: `tid` is ready (released by its last predecessor) and not
    // done, so within this job's DAG this worker holds exclusive access to
    // its read/write sets; distinct jobs never share buffers at all. Pool
    // workers are never poisoned (rejected at submission).
    let end =
        unsafe { job.run.attempt(graph, tid, me, false, &mut wstats, &mut counters, &mut |_| {}) };
    if wstats != FaultStats::default() {
        relock(&job.stats).merge(&wstats);
    }
    match end {
        // The best-ranked released successor stays local (data reuse), the
        // rest go on the shared QoS-major heap.
        Ok(Attempt::Done { .. }) => {
            let spent = job.run.complete(
                graph,
                tid,
                |s| local.push((job.rid, s)),
                |s| shared.push_ready(job, s),
            );
            if let Some(v) = spent {
                job.run.release(v);
            }
        }
        // The job was halted between attempts (cancel/deadline/drain);
        // whoever halted it recorded the verdict. The task is not done.
        Ok(Attempt::Aborted) => {}
        Ok(Attempt::Requeue) => unreachable!("pool workers are never poisoned"),
        Err(e) => job.halt_with(Verdict::Fault(e.to_string())),
    }
}

// ---------------------------------------------------------------------------
// Supervisor side
// ---------------------------------------------------------------------------

fn supervisor_loop(shared: &Shared) {
    while !shared.stop.load(Ordering::SeqCst) {
        // Conclude what has quiesced, then tell `step` what is still
        // running and let it halt, preempt and admit.
        let pruned = finalize_jobs(shared);
        let seen = shared
            .active()
            .values()
            .map(|j| {
                let remaining = j.run.frontier.remaining.load(Ordering::Acquire);
                Observed {
                    id: j.id,
                    remaining,
                    progressed: remaining < j.initial_remaining,
                    halted: j.run.halt.load(Ordering::SeqCst),
                    elapsed: j.started.elapsed(),
                }
            })
            .collect();
        shared.apply(Event::Tick(seen));
        // Last, off every waiter's and arrival's path: the journaled prunes.
        shared.results.iter().for_each(|store| store.unlink(&pruned));
        // Until a submission or a quiesced run unparks it.
        std::thread::park_timeout(shared.cfg.tick);
    }
}

/// Conclude every quiesced run; returns the stored results they pruned.
fn finalize_jobs(shared: &Shared) -> Vec<u64> {
    // Snapshot candidate rids only — holding an Arc clone here would keep
    // the strong count above 1 and wedge the ownership-recovery spin below.
    let candidates: Vec<u64> = shared
        .active()
        .iter()
        .filter(|(_, j)| {
            let finished = j.run.frontier.remaining.load(Ordering::Acquire) == 0;
            let halted = j.run.halt.load(Ordering::SeqCst);
            (finished || halted) && j.inflight.load(Ordering::SeqCst) == 0
        })
        .map(|(&rid, _)| rid)
        .collect();
    let mut pruned = Vec::new();
    for rid in candidates {
        // A worker that raced us holds only a transient Arc clone (it sees
        // `halted` or an all-done bitmap and drops it within one step);
        // the unwrap spin below absorbs it.
        let Some(arc) = shared.active.write().unwrap_or_else(PoisonError::into_inner).remove(&rid)
        else {
            continue;
        };
        let mut arc = arc;
        let job = loop {
            match Arc::try_unwrap(arc) {
                Ok(job) => break job,
                Err(back) => {
                    arc = back;
                    // A worker still holds a transient clone (it will drop
                    // it within its current scheduling step).
                    std::thread::yield_now();
                }
            }
        };
        pruned.extend(conclude_job(shared, job));
    }
    pruned
}

/// Report one quiesced, owned run to [`step`], after the I/O whose outcome
/// the report carries: result stored, or checkpoint captured and written —
/// and return the stored results it pruned (journaled, still on disk).
fn conclude_job(shared: &Shared, mut job: ActiveJob) -> Vec<u64> {
    // An out-of-core job is hollow at quiescence: spilled tiles live only
    // in its spill file. Fault everything back in before any verdict
    // branch clones or returns `a`/`factors`. When the fault-in itself
    // fails, a clean or suspending verdict must not survive — the state
    // it would persist is zero-filled where the read failed.
    let unpage_err = {
        let ActiveJob { run, a, .. } = &mut job;
        run.store.unpage(a).err()
    };
    let verdict = match (relock(&job.verdict).take(), unpage_err) {
        (None | Some(Verdict::Suspend(_)), Some(message)) => {
            Some(Verdict::Fault(ExecError::SpillIo { message }.to_string()))
        }
        (v, _) => v,
    };
    let (tasks_done, stats) = (job.tasks_done(), *relock(&job.stats));
    let ActiveJob { id, mut work, elims, run, a, factors, .. } = job;
    let mut pruned = Vec::new();
    // Quiescent, hence closed under predecessors — what `validate_against`
    // requires of a resumable checkpoint; a finished job's is its result.
    let capture = |elims, a, factors| Checkpoint {
        job: id,
        ..Checkpoint::capture(&work.graph, elims, run.frontier.completed(), a, factors)
    };
    let (durable, payload) = match &verdict {
        None => {
            let done = capture(elims, a, factors);
            // Durable pools persist R/V/T *before* the completion is
            // journaled, so a journaled Completed implies a retrievable
            // result — and once the store holds it the pool keeps no copy:
            // nobody may ever `wait` for this job (a socket client cannot),
            // and a daemon holding every result grew without bound.
            let stored = shared.results.as_ref().and_then(|store| {
                let put = store.put(id, &checkpoint_sections(&done));
                match &put {
                    Err(e) => eprintln!("hqr-pool: persisting result of job-{id} failed: {e}"),
                    Ok(_) => pruned = store.prune(),
                }
                put.ok()
            });
            let unstored = stored.is_none().then(|| Box::new(done));
            (stored, Held::Done(unstored))
        }
        Some(Verdict::Suspend(_)) => {
            let ckpt = capture(elims, a, factors);
            let file = shared.cfg.durability.as_ref().and_then(|d| {
                let file = ckpt_file(id);
                write_checkpoint(&d.state_dir.join(&file), &ckpt)
                    .map_err(|e| eprintln!("hqr-pool: checkpointing job-{id} failed: {e}"))
                    .ok()
                    .map(|()| file)
            });
            work.seed = Some(JobInput::Resume(Box::new(ckpt)));
            (file, Held::Work(work))
        }
        // Re-run from the retained seed, or dropped with the job.
        Some(_) => (None, Held::Work(work)),
    };
    let payload = Some(payload);
    let unlink = pruned.clone();
    let run = Conclusion { id, verdict, tasks_done, stats, durable, pruned, payload };
    shared.apply(Event::Concluded(run));
    unlink
}

/// Build the run state of a job [`step`] just admitted and hand its
/// frontier to the workers. `retain` keeps the seed for a later retry.
fn activate_job(shared: &Shared, id: u64, qos: QosClass, retain: bool, mut work: Box<Work>) {
    let seed = if retain { work.seed.clone() } else { work.seed.take() };
    let n = work.graph.tasks().len();
    let (elims, mut a, mut factors, completed) = match seed.expect("a waiting job holds its seed") {
        JobInput::Fresh { elims, a } => {
            (elims, a, TFactors::allocate_for(&work.graph, work.ib), vec![false; n])
        }
        JobInput::Resume(ck) => {
            let Checkpoint { elims, a, factors, completed, .. } = *ck;
            (elims, a, factors, completed)
        }
    };
    // A job whose working set outgrows the resident budget runs
    // out-of-core: tiles page against a spill file under the state
    // directory (or the OS temp dir on non-durable pools). Spill-store
    // setup failure degrades to fully-resident — the job was already
    // admitted, so availability beats the memory cap here.
    let spill_dir = shared.cfg.durability.as_ref().map(|d| d.state_dir.join("spill"));
    let (run, frontier) = {
        let Work { graph, policy, integrity, max_retries, plan, .. } = &*work;
        let policy = RunPolicy {
            policy: *policy,
            integrity: *integrity,
            max_retries: *max_retries,
            plan: plan.as_ref(),
            publish_rest: true,
        };
        // This job's tasks as one worker would take them: the pool
        // interleaves jobs, but each job's own tasks still come in about
        // this order.
        let order = || preview_order(graph, &policy, Some(&completed));
        let plan = RunPlan { graph, completed: Some(&completed), order: &order };
        let budget = shared.cfg.resident_budget;
        let store = TileStore::open(&mut a, &mut factors, &plan, budget, spill_dir.as_deref())
            .unwrap_or_else(|e| {
                eprintln!("hqr-pool: job {id}: spill store unavailable ({e}); running resident");
                TileStore::resident(&mut a, &mut factors, &plan)
            });
        DagRun::new(graph, store, &policy, Some(&completed))
    };
    let rid = shared.next_rid.fetch_add(1, Ordering::Relaxed);
    let job = Arc::new(ActiveJob {
        rid,
        id,
        qos_inv: qos.inverted(),
        work,
        elims,
        initial_remaining: run.frontier.remaining.load(Ordering::Acquire),
        run,
        inflight: AtomicUsize::new(0),
        verdict: Mutex::new(None),
        stats: Mutex::new(FaultStats::default()),
        started: Instant::now(),
        a,
        factors,
    });
    {
        let mut active = shared.active.write().unwrap_or_else(PoisonError::into_inner);
        active.insert(rid, Arc::clone(&job));
    }
    for tid in frontier {
        shared.push_ready(&job, tid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qos_ordering_and_parsing() {
        assert!(QosClass::Interactive > QosClass::Normal);
        assert!(QosClass::Normal > QosClass::Batch);
        for q in QosClass::ALL {
            assert_eq!(QosClass::parse(q.name()), Some(q));
        }
        assert_eq!(QosClass::parse("platinum"), None);
        assert_eq!(QosClass::Interactive.inverted(), 0);
        assert_eq!(QosClass::Batch.inverted(), 2);
    }

    #[test]
    fn job_state_terminality() {
        for s in [JobState::Queued, JobState::Running, JobState::Backoff] {
            assert!(!s.is_terminal(), "{s}");
            assert_eq!(JobState::parse(s.name()), Some(s));
        }
        for s in [
            JobState::Completed,
            JobState::Cancelled,
            JobState::Shed,
            JobState::Quarantined,
            JobState::Suspended,
        ] {
            assert!(s.is_terminal(), "{s}");
            assert_eq!(JobState::parse(s.name()), Some(s));
        }
    }

    fn flat_elims(mt: usize, nt: usize) -> Vec<ElimOp> {
        let mut elims = Vec::new();
        for k in 0..mt.min(nt) {
            for i in (k + 1)..mt {
                elims.push(ElimOp::new(k as u32, i as u32, k as u32, true));
            }
        }
        elims
    }

    /// The spec container outlived the queue file it was designed for
    /// without a version bump, so its bytes are pinned: the same digest the
    /// commit that still wrote queue files produces for this spec.
    #[test]
    fn job_spec_encoding_is_pinned() {
        let mut spec = JobSpec::fresh(flat_elims(3, 2), TiledMatrix::random(3, 2, 4, 9));
        spec.qos = QosClass::Interactive;
        spec.ib = Some(2);
        spec.deadline = Some(Duration::from_millis(77));
        spec.tag = "pinned".into();
        spec.dedup_key = Some("k/1".into());
        let bytes = spec.to_bytes();
        assert_eq!((bytes.len(), hqr_tile::io::fnv1a64(&bytes)), (1077, 17724287557011816738));
    }

    /// Checkpoint files and resume specs carry these bytes, so they are
    /// pinned too: 2x1 tiles of 4 with ib = 2 (a τ of `tau_len(4)` = 4
    /// doubles per factor slot, no T since version 7, no V copy since
    /// version 6), one task done, every τ filled with its own pattern so
    /// that no kernel's bits enter the digest.
    #[test]
    fn checkpoint_encoding_is_pinned() {
        let (mt, nt, b, ib) = (2, 1, 4, 2);
        let graph = TaskGraph::build(mt, nt, b, &flat_elims(mt, nt));
        let mut factors = TFactors::allocate_for(&graph, ib);
        for (n, (fam, i, k)) in crate::exec::factor_slots(&graph).enumerate() {
            let buf = factors.slot_mut(fam, i, k).expect("allocated");
            buf.iter_mut().enumerate().for_each(|(e, x)| *x = (n * 100 + e) as f64 * 0.25);
        }
        let mut done = vec![false; graph.tasks().len()];
        done[0] = true;
        let a = TiledMatrix::random(mt, nt, b, 21);
        let ckpt = Checkpoint {
            job: 77,
            ..Checkpoint::capture(&graph, flat_elims(mt, nt), done, a, factors)
        };
        let bytes = checkpoint_to_bytes(&ckpt);
        assert_eq!((bytes.len(), hqr_tile::io::fnv1a64(&bytes)), (564, 12770014327603372158));
    }

    #[test]
    fn hostile_spec_words_are_typed_errors() {
        use crate::checkpoint::tests::with_words;
        let bytes = JobSpec::fresh(flat_elims(2, 1), TiledMatrix::random(2, 1, 4, 9)).to_bytes();
        let format = (QUEUE_MAGIC, QUEUE_VERSION);
        let meta = |retries: u64, job_retries: u64| [0, 1, 0, 0, 0, retries, job_retries, 7, 0];
        for (tag, words, why) in [
            (QSEC_ELIMS, &[1 << 62][..], "words for 4611686018427387904 eliminations"),
            (QSEC_ELIMS, &[u64::MAX, 0, 1, 0, 1], "eliminations"),
            (QSEC_META, &meta((1 << 32) + 1, 0), "max_retries 4294967297 overflows u32"),
            (QSEC_META, &meta(0, (1 << 32) + 1), "job_retries 4294967297 overflows u32"),
        ] {
            let err =
                JobSpec::from_bytes(with_words(bytes.clone(), format, tag, words)).unwrap_err();
            assert!(err.to_string().contains(why), "{words:?}: {err}");
        }
        let spec = JobSpec::from_bytes(with_words(bytes.clone(), format, QSEC_META, &meta(3, 2)));
        let spec = spec.expect("in-range words decode");
        assert_eq!((spec.max_retries, spec.job_retries), (3, 2));
        assert!(JobSpec::from_bytes(bytes).is_ok(), "the valid spec decodes as before");
    }

    #[test]
    fn job_spec_roundtrips_dedup_key() {
        let a = TiledMatrix::zeros(2, 1, 4);
        let elims = flat_elims(2, 1);
        let mut spec = JobSpec::fresh(elims, a);
        spec.dedup_key = Some("tenant-42/run-7".into());
        let decoded = JobSpec::from_bytes(spec.to_bytes()).expect("roundtrip");
        assert_eq!(decoded.dedup_key.as_deref(), Some("tenant-42/run-7"));
        spec.dedup_key = None;
        let decoded = JobSpec::from_bytes(spec.to_bytes()).expect("roundtrip");
        assert_eq!(decoded.dedup_key, None);
    }

    /// A journaled pool refuses a job whose `Accepted` record would pass
    /// the frame cap, rather than accept it and fail to journal it; a pool
    /// without a journal takes it. The dedup key travels twice in that
    /// record, in the spec and beside it, so half the cap is enough; its
    /// zero pages are touched only where the spec encoding copies them.
    #[test]
    fn a_job_whose_journal_record_would_pass_the_frame_cap_is_refused() {
        let spec = || {
            let mut spec = JobSpec::fresh(flat_elims(2, 1), TiledMatrix::random(2, 1, 4, 9));
            spec.dedup_key = Some(String::from_utf8(vec![0; MAX_FRAME as usize / 2]).unwrap());
            spec
        };
        let Err(SubmitError::Invalid { message }) = prepare(spec(), &PoolConfig::default(), true)
        else {
            panic!("a journaled pool must refuse the job")
        };
        assert!(message.contains("journal record"), "{message}");
        assert!(prepare(spec(), &PoolConfig::default(), false).is_ok());
        // The length checked is the length written.
        let small = JobSpec::fresh(flat_elims(2, 1), TiledMatrix::random(2, 1, 4, 9)).to_bytes();
        let (dedup, spec) = (Some("k".to_string()), Some(small.clone()));
        let ev = JournalEvent::Accepted { id: 1, attempts: 0, tasks_total: 3, dedup, spec };
        assert_eq!(accepted_len(Some("k"), &small), ev.to_bytes().len() as u64);
    }

    /// Benchmark finding 2: a completed job's record kept the whole
    /// factorization until somebody `wait`ed, which a socket client never
    /// does. Once the durable store holds the result the state must not;
    /// `wait` and `result_bytes` read it back from the store.
    #[test]
    fn durable_pool_keeps_no_in_memory_copy_of_a_stored_result() {
        let dir = std::env::temp_dir().join(format!("hqr_pool_stored_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mt, nt, b) = (3, 2, 4);
        let elims = flat_elims(mt, nt);
        let input = TiledMatrix::random(mt, nt, b, 11);
        let mut expect = input.clone();
        let f_expect =
            crate::exec::execute_serial(&TaskGraph::build(mt, nt, b, &elims), &mut expect);
        let held = |pool: &JobPool, id: JobId| {
            let c = relock(&pool.shared.control);
            match c.state.held.get(&id.0) {
                Some(Held::Done(result)) => Some(result.is_some()),
                _ => None,
            }
        };
        for durable in [true, false] {
            let pool = JobPool::new(PoolConfig {
                nthreads: 2,
                durability: durable.then(|| DurabilityConfig::at(&dir)),
                ..Default::default()
            });
            let id = pool.submit(JobSpec::fresh(elims.clone(), input.clone())).expect("submit");
            while pool.status(id).is_none_or(|v| v.state != JobState::Completed) {
                std::thread::sleep(Duration::from_millis(1));
            }
            // Volatile pools have nowhere else to keep it.
            assert_eq!(held(&pool, id), Some(!durable), "durable={durable}");
            let bytes = pool.result_bytes(id).expect("result bytes");
            assert_eq!(result_from_bytes(bytes).expect("decodes").id, id.0);
            let out = pool.wait(id).expect("known job");
            let result = out.result.expect("first waiter gets the factorization");
            assert_eq!(result.a.to_dense().data(), expect.to_dense().data(), "durable={durable}");
            assert!(result.factors.bitwise_eq(&f_expect), "durable={durable}");
            assert!(pool.wait(id).expect("known job").result.is_none(), "claimed once");
            pool.shutdown();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
