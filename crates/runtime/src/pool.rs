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
//! Fault plans are supported per job (failure and SDC strikes), with two
//! engine-only features rejected at submission: poisoned workers (worker
//! indices belong to one engine run) and lost completions (the pool's
//! progress accounting would wedge). Plans are also not serialized into
//! the journal or the wire — injection is in-process test machinery.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::fmt;
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam_deque::{Steal, Stealer, Worker};

use crate::checkpoint::{
    checkpoint_from_bytes, checkpoint_to_bytes, elims_from_words, elims_to_words, read_checkpoint,
    write_checkpoint, Checkpoint, CheckpointError,
};
use crate::elim::ElimOp;
use crate::error::ExecError;
use crate::exec::{
    preview_order, relock, worker_loop, Attempt, DagRun, RunPolicy, TFactors, WorkerCounters,
};
use crate::fault::{FaultPlan, FaultStats};
use crate::graph::TaskGraph;
use crate::integrity::IntegrityMode;
use crate::journal::{
    io_err, replay, result_from_bytes, result_to_bytes, Journal, JournalError, JournalEvent,
    RecoveredJob, ResultStore,
};
use crate::sched::SchedPolicy;
use crate::store::{RunPlan, TileStore};
use hqr_kernels::KernelKind;
use hqr_tile::io::{bytes_of_u64s, u64s_of_bytes, BinFormatError, SectionReader, SectionWriter};
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
    /// Deterministic fault injection for this job only. Poisoned workers
    /// and lost completions are engine-only and rejected at submission;
    /// plans are never serialized (wire or journal).
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
        let mut w = SectionWriter::new(QUEUE_MAGIC, QUEUE_VERSION);
        w.section(QSEC_META, &bytes_of_u64s(&meta));
        w.section(QSEC_TAG, self.tag.as_bytes());
        if let Some(k) = &self.dedup_key {
            w.section(QSEC_DEDUP, k.as_bytes());
        }
        match &self.input {
            JobInput::Fresh { elims, a } => {
                w.section(QSEC_ELIMS, &bytes_of_u64s(&elims_to_words(elims)));
                w.section(QSEC_TILES, &hqr_tile::io::tiled_to_bytes(a));
            }
            JobInput::Resume(ck) => {
                w.section(QSEC_CKPT, &checkpoint_to_bytes(ck));
            }
        }
        w.section(QSEC_COUNT, &bytes_of_u64s(&[1]));
        w.into_bytes()
    }

    /// Decode the inverse of [`JobSpec::to_bytes`].
    pub fn from_bytes(bytes: Vec<u8>) -> Result<JobSpec, QueueFormatError> {
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
            max_retries: meta[5] as u32,
            job_retries: meta[6] as u32,
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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for admission (memory budget / active slot).
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
#[derive(Debug, Clone)]
pub enum SubmitError {
    /// The spec itself is unusable (bad elimination list, bad `ib`,
    /// engine-only fault-plan features, checkpoint mismatch, ...).
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
#[derive(Clone, Debug)]
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
    /// Supervisor poll interval (admission, deadlines, finalization).
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
#[derive(Clone, Debug)]
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

/// Why a running job is being suspended at its next quiescent point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SuspendKind {
    /// A graceful drain: the job parks like [`SuspendKind::Park`]; on a
    /// durable pool its checkpoint file and journal records are what the
    /// next [`JobPool::recover`] resumes from.
    Drain,
    /// An explicit suspend request: the job parks in
    /// [`JobState::Suspended`] until [`JobPool::resume_job`].
    Park,
    /// A higher-QoS arrival needs the job's memory or active slot; the
    /// job re-queues from its checkpoint and re-admits when room frees.
    Preempt,
    /// A periodic durability checkpoint; the job re-queues immediately
    /// and loses no retry budget.
    Periodic,
}

impl SuspendKind {
    /// Journaled with the suspension and shown as a parked job's error.
    fn reason(self) -> &'static str {
        match self {
            SuspendKind::Drain => "suspended by drain; state checkpointed",
            SuspendKind::Park => "suspended by request; resume with resume-job",
            SuspendKind::Preempt => "preempted by a higher-QoS job",
            SuspendKind::Periodic => "periodic durability checkpoint",
        }
    }
}

/// Why an active job was halted (set once; first writer wins).
#[derive(Debug)]
enum Verdict {
    /// A task exhausted its budgets; carries the engine error.
    Fault(ExecError),
    /// The per-attempt deadline elapsed.
    Deadline(Duration),
    /// The tenant cancelled the job.
    Cancel,
    /// Checkpoint the job at the next quiescent point, for this reason.
    Suspend(SuspendKind),
}

/// One admitted job: the pool's unit of ownership. The run state's
/// [`TileStore`] holds raw pointers into the heap buffers owned by `a` and
/// `factors` below — tiles are independently boxed slices, so moving this
/// struct (or the `Arc` around it) never invalidates the store.
struct ActiveJob {
    /// Activation id — unique per *attempt*, so stale queue entries from a
    /// previous incarnation of a retried job can never reach a new one.
    rid: u64,
    /// Public job id (stable across retries).
    id: u64,
    /// Admission order, for FCFS tie-breaking within a QoS class.
    seq: u64,
    /// Attempts started, this activation included.
    attempts: u32,
    qos_inv: u64,
    graph: TaskGraph,
    /// Store, guards, fault plan, ranks and frontier of this activation;
    /// `run.halt` halts the job's tasks.
    run: DagRun,
    /// Tasks remaining when this activation started — periodic
    /// checkpoints only fire once the activation has made progress.
    initial_remaining: usize,
    /// Workers currently holding (or about to run) one of this job's
    /// tasks. Finalization requires `halted-or-finished` AND `inflight == 0`.
    inflight: AtomicUsize,
    verdict: Mutex<Option<Verdict>>,
    stats: Mutex<FaultStats>,
    started: Instant,
    deadline: Option<Duration>,
    footprint: u64,
    /// Inner block size in effect (recorded into suspension checkpoints).
    ib: usize,
    /// The job's elimination list (re-serialized on suspension/retry).
    elims: Vec<ElimOp>,
    /// Policy knobs, kept for retry and suspension re-queuing.
    origin_policy: JobPolicy,
    /// Pristine payload, retained while the job may still be retried.
    origin_seed: Option<Seed>,
    /// Backing storage for `run.store` (kept alive for the job's lifetime).
    a: TiledMatrix,
    factors: TFactors,
}

impl ActiveJob {
    /// Record a verdict (first wins) and halt the job's tasks.
    fn halt_with(&self, v: Verdict) {
        let mut g = relock(&self.verdict);
        if g.is_none() {
            *g = Some(v);
        }
        drop(g);
        self.run.halt.store(true, Ordering::SeqCst);
    }
}

/// The per-job policy knobs, separated from the payload so retries and
/// suspensions can carry them around cheaply.
#[derive(Clone, Debug)]
struct JobPolicy {
    ib: usize,
    qos: QosClass,
    policy: SchedPolicy,
    integrity: IntegrityMode,
    max_retries: u32,
    job_retries: u32,
    deadline: Option<Duration>,
    plan: Option<FaultPlan>,
}

/// The pristine payload a retry re-runs from.
#[derive(Clone, Debug)]
enum Seed {
    Fresh(TiledMatrix),
    Resume(Box<Checkpoint>),
}

/// A job accepted but not currently active: waiting for admission, or
/// waiting out a retry backoff.
struct PendingJob {
    id: u64,
    seq: u64,
    policy: JobPolicy,
    elims: Vec<ElimOp>,
    seed: Seed,
    graph: TaskGraph,
    footprint: u64,
    attempts: u32,
    not_before: Option<Instant>,
    /// Whether activation counts against the record's attempt counter.
    /// Suspension re-queues (park/preempt/periodic) continue the *same*
    /// attempt and must not consume retry budget.
    count_attempt: bool,
}

/// Bookkeeping for every job the pool ever accepted.
struct JobRecord {
    state: JobState,
    qos: QosClass,
    tag: String,
    attempts: u32,
    tasks_total: usize,
    tasks_done: usize,
    error: Option<String>,
    stats: FaultStats,
    submitted: Instant,
    wall: Option<Duration>,
    /// Set at completion, taken by the first [`JobPool::wait`].
    outcome: Option<JobOutcome>,
}

impl JobRecord {
    /// The record of a job entering the queue with `attempts` already
    /// consumed (zero unless the journal is re-enqueueing it).
    fn queued(qos: QosClass, tag: String, attempts: u32, tasks_total: usize) -> JobRecord {
        JobRecord {
            state: JobState::Queued,
            qos,
            tag,
            attempts,
            tasks_total,
            tasks_done: 0,
            error: None,
            stats: FaultStats::default(),
            submitted: Instant::now(),
            wall: None,
            outcome: None,
        }
    }

    /// The record of a job the journal says was settled in a previous
    /// life; only its listing survives, not its timing or fault stats.
    fn settled(
        j: &RecoveredJob,
        state: JobState,
        spec: Option<JobSpec>,
        error: Option<String>,
    ) -> JobRecord {
        let (qos, tag) = spec.map_or_else(Default::default, |sp| (sp.qos, sp.tag));
        let total = j.tasks_total as usize;
        JobRecord {
            state,
            tasks_done: if state == JobState::Completed {
                total
            } else {
                j.ckpt_tasks_done as usize
            },
            error,
            wall: Some(Duration::ZERO),
            ..JobRecord::queued(qos, tag, j.attempts, total)
        }
    }

    fn outcome(&self, id: u64, result: Option<JobResult>) -> JobOutcome {
        JobOutcome {
            id: JobId(id),
            state: self.state,
            attempts: self.attempts,
            error: self.error.clone(),
            stats: self.stats,
            result,
            wall: self.wall.unwrap_or_default(),
        }
    }
}

/// What one lifecycle transition does besides changing the job's state
/// (see [`Shared::transition`]).
#[derive(Default)]
struct Settle {
    /// Journal record of the transition, written before the record changes.
    event: Option<JournalEvent>,
    /// The record's error from here on; `None` clears it.
    error: Option<String>,
    /// Accounting of the activation that just ended: its fault stats and
    /// the tasks it leaves done.
    ran: Option<(FaultStats, usize)>,
    /// The factorization, when a completion's result is not in the store.
    result: Option<JobResult>,
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

struct Shared {
    cfg: PoolConfig,
    next_id: AtomicU64,
    next_rid: AtomicU64,
    next_seq: AtomicU64,
    pending: Mutex<Vec<PendingJob>>,
    records: Mutex<HashMap<u64, JobRecord>>,
    waiters: Condvar,
    active: RwLock<HashMap<u64, Arc<ActiveJob>>>,
    /// Shared ready heap: (qos_inv, seq, rank, tid, rid), min-ordered.
    ready: Mutex<BinaryHeap<ReadyKey>>,
    /// Cancel (`None`) and suspend requests awaiting the supervisor.
    requests: Mutex<Vec<(u64, Option<SuspendKind>)>>,
    /// Jobs parked by a suspend request or a drain, keyed by job id,
    /// awaiting [`JobPool::resume_job`].
    parked: Mutex<HashMap<u64, PendingJob>>,
    /// Idempotent-submission index: dedup key -> job id.
    dedup: Mutex<HashMap<String, u64>>,
    /// Write-ahead journal of lifecycle transitions (durable pools only).
    journal: Option<Mutex<Journal>>,
    /// Durable store of completed results (durable pools only).
    results: Option<ResultStore>,
    active_footprint: AtomicU64,
    draining: AtomicBool,
    stop: AtomicBool,
}

impl Shared {
    fn push_ready(&self, job: &ActiveJob, tid: u32) {
        relock(&self.ready).push(Reverse((
            job.qos_inv,
            job.seq,
            job.run.ranks[tid as usize],
            tid,
            job.rid,
        )));
    }

    /// The active-job map, read-locked (poison-tolerant like [`relock`]).
    fn active(&self) -> RwLockReadGuard<'_, HashMap<u64, Arc<ActiveJob>>> {
        self.active.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Append a lifecycle transition to the write-ahead journal. Journal
    /// IO failure degrades durability, never availability: the pool keeps
    /// running and the failure goes to stderr.
    fn log_event(&self, ev: &JournalEvent) {
        if let Some(j) = &self.journal {
            let mut j = relock(j);
            if let Err(e) = j.append(ev) {
                eprintln!("hqr-pool: journal append failed: {e}");
            }
            // Size-threshold rotation: compact away terminal noise once
            // the file outgrows the configured budget. Held under the
            // journal lock so appends never interleave with the rewrite.
            let rotate_at = self.cfg.durability.as_ref().map_or(0, |d| d.journal_rotate_bytes);
            if j.rotate_due(rotate_at) {
                match j.rotate() {
                    Ok(reclaimed) => {
                        eprintln!("hqr-pool: journal rotated, reclaimed {reclaimed} bytes");
                    }
                    Err(e) => eprintln!("hqr-pool: journal rotation failed: {e}"),
                }
            }
        }
    }

    /// The one place a job changes state. Journal first (write-ahead), then
    /// drop the suspension checkpoint of a job that will never run again,
    /// then the record, then wake waiters — so the journal and the records
    /// cannot tell different stories about a job.
    fn transition(&self, id: u64, to: JobState, s: Settle) {
        if let Some(ev) = &s.event {
            self.log_event(ev);
        }
        if to.is_terminal() && to != JobState::Suspended {
            if let Some(d) = &self.cfg.durability {
                let _ = std::fs::remove_file(d.state_dir.join(ckpt_file(id)));
            }
        }
        if let Some(r) = relock(&self.records).get_mut(&id) {
            r.state = to;
            // The attempt just journaled is the record's count.
            if let Some(JournalEvent::Started { attempt, .. }) = s.event {
                r.attempts = attempt;
            }
            r.error = s.error;
            r.wall = to.is_terminal().then(|| r.submitted.elapsed());
            if let Some((stats, tasks_done)) = s.ran {
                r.stats.merge(&stats);
                r.tasks_done = tasks_done;
            }
            if to == JobState::Completed {
                r.outcome = Some(r.outcome(id, s.result));
            }
        }
        self.waiters.notify_all();
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

/// Bytes resident for one admitted job: matrix tiles plus the factor
/// buffers its graph allocates (guards are negligible next to either).
fn working_set_bytes(graph: &TaskGraph) -> u64 {
    let bb = (graph.b() * graph.b() * std::mem::size_of::<f64>()) as u64;
    let tiles = (graph.mt() * graph.nt()) as u64;
    let mut factor_bufs = 0u64;
    for t in graph.tasks() {
        factor_bufs += match t.kind {
            KernelKind::Geqrt => 2,
            KernelKind::Tsqrt | KernelKind::Ttqrt => 1,
            _ => 0,
        };
    }
    (tiles + factor_bufs) * bb
}

fn invalid(message: impl Into<String>) -> SubmitError {
    SubmitError::Invalid { message: message.into() }
}

/// Validate a spec and build its graph + footprint. Shared by `submit`
/// and the retry path (which revalidated once already, but is cheap).
fn prepare(spec: &JobSpec) -> Result<(Vec<ElimOp>, TaskGraph, usize, u64), SubmitError> {
    if let Some(p) = &spec.plan {
        if p.poisons_any_worker() {
            return Err(invalid("fault plans with poisoned workers are engine-only"));
        }
        if p.loses_any_completion() {
            return Err(invalid("fault plans that lose completions are engine-only"));
        }
    }
    let (elims, mt, nt, b) = match &spec.input {
        JobInput::Fresh { elims, a } => (elims.clone(), a.mt(), a.nt(), a.b()),
        JobInput::Resume(ck) => (ck.elims.clone(), ck.mt, ck.nt, ck.b),
    };
    let graph = TaskGraph::try_build(mt, nt, b, &elims)
        .map_err(|e| invalid(format!("elimination list rejected: {e}")))?;
    let ib = effective_ib(spec, b).map_err(|message| SubmitError::Invalid { message })?;
    if let JobInput::Resume(ck) = &spec.input {
        ck.validate_against(&graph, ib)
            .map_err(|e| invalid(format!("checkpoint rejected: {e}")))?;
    }
    let footprint = working_set_bytes(&graph);
    let retain = spec.job_retries > 0;
    let need = if retain { footprint + matrix_bytes(&graph) } else { footprint };
    Ok((elims, graph, ib, need))
}

fn matrix_bytes(graph: &TaskGraph) -> u64 {
    (graph.mt() * graph.nt() * graph.b() * graph.b() * std::mem::size_of::<f64>()) as u64
}

/// Admission charge for a job needing `need` resident bytes. With a
/// resident budget the charge is capped at that budget: the job runs
/// out-of-core and keeps at most `resident_budget` bytes of tiles in
/// memory, spilling the rest.
fn chargeable(cfg: &PoolConfig, need: u64) -> u64 {
    cfg.resident_budget.map_or(need, |rb| need.min(rb.max(1)))
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
        let shared = Arc::new(Shared {
            cfg: PoolConfig { nthreads, ..cfg },
            next_id: AtomicU64::new(1),
            next_rid: AtomicU64::new(1),
            next_seq: AtomicU64::new(1),
            pending: Mutex::new(Vec::new()),
            records: Mutex::new(HashMap::new()),
            waiters: Condvar::new(),
            active: RwLock::new(HashMap::new()),
            ready: Mutex::new(BinaryHeap::new()),
            requests: Mutex::new(Vec::new()),
            parked: Mutex::new(HashMap::new()),
            dedup: Mutex::new(HashMap::new()),
            journal,
            results,
            active_footprint: AtomicU64::new(0),
            draining: AtomicBool::new(false),
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
            let shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name("hqr-pool-supervisor".into())
                    .spawn(move || supervisor_loop(&shared))
                    .expect("spawn pool supervisor"),
            );
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
        self.enqueue(spec, None)
    }

    /// Validate `spec`, price it, and put it on the queue: the one way a
    /// job enters the pool. A new arrival (`readmit: None`) gets a fresh id
    /// and faces the drain gate, the dedup index, backpressure and
    /// shedding; a job the journal is re-enqueueing keeps its original id
    /// and attempt count and skips all four — they decided its fate once
    /// already, in a previous life. Either way `Accepted` reaches stable
    /// storage before the caller learns the id.
    fn enqueue(
        &self,
        spec: JobSpec,
        readmit: Option<(u64, &RecoveredJob)>,
    ) -> Result<(JobId, bool), SubmitError> {
        let s = &*self.shared;
        // The dedup guard is held through acceptance so two racing
        // submissions of the same key cannot both register.
        let mut dedup_guard = None;
        if readmit.is_none() {
            if s.draining.load(Ordering::SeqCst) || s.stop.load(Ordering::SeqCst) {
                return Err(SubmitError::Draining);
            }
            if let Some(k) = &spec.dedup_key {
                let dd = relock(&s.dedup);
                if let Some(&id) = dd.get(k) {
                    return Ok((JobId(id), true));
                }
                dedup_guard = Some(dd);
            }
        }
        let (elims, graph, ib, need) = prepare(&spec)?;
        let need = chargeable(&s.cfg, need);
        if need > s.cfg.mem_budget {
            return Err(SubmitError::OverBudget { need, budget: s.cfg.mem_budget });
        }
        // The journal payload is the spec as first accepted: encoded before
        // a new spec is torn apart, carried over for a re-enqueued one
        // (whose `spec.input` may by now be its last checkpoint).
        let (attempts, spec_bytes) = match readmit {
            Some((_, j)) => (j.attempts, j.spec.clone()),
            None => (0, s.journal.as_ref().map(|_| spec.to_bytes())),
        };
        let qos = spec.qos;
        let policy = JobPolicy {
            ib,
            qos,
            policy: spec.policy,
            integrity: spec.integrity,
            max_retries: spec.max_retries,
            job_retries: spec.job_retries,
            deadline: spec.deadline,
            plan: spec.plan,
        };
        let seed = match spec.input {
            JobInput::Fresh { a, .. } => Seed::Fresh(a),
            JobInput::Resume(ck) => Seed::Resume(ck),
        };
        let tasks_total = graph.tasks().len();
        let mut pending = relock(&s.pending);
        if readmit.is_none() && pending.len() >= s.cfg.queue_cap {
            // Load shedding: evict the lowest-QoS queued job iff the
            // arrival strictly outranks it; shed the *newest* of that
            // class so older accepted work keeps its place.
            let victim = pending
                .iter()
                .enumerate()
                .filter(|(_, p)| p.policy.qos < qos)
                .min_by_key(|(_, p)| (p.policy.qos, Reverse(p.seq)))
                .map(|(i, _)| i);
            let Some(i) = victim else {
                return Err(SubmitError::QueueFull { cap: s.cfg.queue_cap });
            };
            let shed = pending.remove(i).id;
            let reason = "shed by a higher-QoS arrival".to_string();
            s.transition(
                shed,
                JobState::Shed,
                Settle {
                    event: Some(JournalEvent::Shed { id: shed, reason: reason.clone() }),
                    error: Some(reason),
                    ..Settle::default()
                },
            );
        }
        let id = match readmit {
            Some((id, _)) => id,
            None => s.next_id.fetch_add(1, Ordering::Relaxed),
        };
        // The record exists before the supervisor can see the job: it may
        // admit, run and finalize a tiny job before this thread runs
        // again, and a record inserted after that would read `Queued` for
        // ever.
        relock(&s.records).insert(id, JobRecord::queued(qos, spec.tag, attempts, tasks_total));
        pending.push(PendingJob {
            id,
            seq: s.next_seq.fetch_add(1, Ordering::Relaxed),
            policy,
            elims,
            seed,
            graph,
            footprint: need,
            attempts,
            not_before: None,
            count_attempt: true,
        });
        drop(pending);
        if let (Some(mut dd), Some(k)) = (dedup_guard, &spec.dedup_key) {
            dd.insert(k.clone(), id);
        }
        s.log_event(&JournalEvent::Accepted {
            id,
            attempts,
            tasks_total: tasks_total as u64,
            dedup: spec.dedup_key,
            spec: spec_bytes,
        });
        Ok((JobId(id), false))
    }

    /// Replay the write-ahead journal after a restart — a polite one (the
    /// old process drained first) or a crash, the code is the same: every
    /// job the old process accepted is driven back to a known state.
    /// Terminal jobs re-register (completed results stay retrievable),
    /// live jobs re-enqueue from their last durable checkpoint when one
    /// exists, else from their original spec. The journal is compacted to
    /// terminal summaries plus the re-journaled live jobs.
    ///
    /// Call once, before accepting new submissions.
    pub fn recover(&self) -> Result<RecoveryReport, JournalError> {
        let s = &*self.shared;
        let (state_dir, jm) = match (&s.cfg.durability, &s.journal) {
            (Some(d), Some(j)) => (d.state_dir.clone(), j),
            _ => {
                return Err(JournalError::Inconsistent {
                    message: "pool has no durable state directory".into(),
                })
            }
        };
        let events = Journal::read(&state_dir.join(JOURNAL_FILE))?;
        let jobs = replay(&events);
        let mut report = RecoveryReport { total: jobs.len(), ..Default::default() };
        // Compact away everything except terminal summaries; live jobs
        // are re-journaled in full below.
        let summary = |id: u64, j: &RecoveredJob| JournalEvent::Accepted {
            id,
            attempts: j.attempts,
            tasks_total: j.tasks_total,
            dedup: j.dedup.clone(),
            spec: None,
        };
        let mut keep: Vec<JournalEvent> = Vec::new();
        for (&id, j) in &jobs {
            let Some(state) = j.terminal else { continue };
            keep.push(summary(id, j));
            keep.push(terminal_event(id, state, j));
        }
        relock(jm).compact(&keep)?;
        if let Some(&max_id) = jobs.keys().max() {
            s.next_id.fetch_max(max_id + 1, Ordering::SeqCst);
        }
        for (&id, j) in &jobs {
            if let Some(k) = &j.dedup {
                relock(&s.dedup).insert(k.clone(), id);
            }
            let decoded = j.spec.as_ref().and_then(|b| JobSpec::from_bytes(b.clone()).ok());
            if let Some(state) = j.terminal {
                let record = JobRecord::settled(j, state, decoded, j.error.clone());
                relock(&s.records).insert(id, record);
                if state == JobState::Completed {
                    report.completed_retained += 1;
                } else {
                    report.terminal_retained += 1;
                }
                continue;
            }
            // Live at the restart: prefer the last durable checkpoint so
            // completed panels are never recomputed.
            let readmitted = match decoded {
                None => Err("journal lost the job's spec".to_string()),
                Some(mut spec) => {
                    let mut resumed = None;
                    if let Some(file) = &j.ckpt_file {
                        if let Ok(ck) = read_checkpoint(&state_dir.join(file)) {
                            spec.input = JobInput::Resume(Box::new(ck));
                            spec.ib = None; // take the checkpoint's recorded ib
                            resumed = Some(file.clone());
                        }
                    }
                    self.enqueue(spec, Some((id, j))).map(|_| resumed).map_err(|e| e.to_string())
                }
            };
            match readmitted {
                Ok(Some(file)) => {
                    let tasks_done = j.ckpt_tasks_done;
                    s.log_event(&JournalEvent::Checkpointed { id, tasks_done, file });
                    report.resumed_from_checkpoint += 1;
                }
                Ok(None) => report.restarted_fresh += 1,
                // Quarantined, so it still reaches a terminal state.
                Err(why) => {
                    let error = format!("unrecoverable after restart: {why}");
                    s.log_event(&summary(id, j));
                    s.log_event(&JournalEvent::Quarantined { id, error: error.clone() });
                    let record = JobRecord::settled(j, JobState::Quarantined, None, Some(error));
                    relock(&s.records).insert(id, record);
                    report.unrecoverable += 1;
                }
            }
        }
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
        let mut recs = relock(&s.records);
        loop {
            let r = recs.get_mut(&id.0)?;
            if let Some(mut out) = r.outcome.take() {
                drop(recs);
                if out.state == JobState::Completed && out.result.is_none() {
                    let stored = s.results.as_ref().and_then(|store| store.get(id.0));
                    out.result = stored.and_then(|b| result_from_bytes(b).ok()).map(|r| r.result);
                }
                return Some(out);
            }
            if r.state.is_terminal() {
                return Some(r.outcome(id.0, None));
            }
            recs = s.waiters.wait(recs).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Current snapshot of one job.
    pub fn status(&self, id: JobId) -> Option<JobView> {
        self.jobs().into_iter().find(|v| v.id == id)
    }

    /// Current snapshot of every job the pool has accepted, newest first.
    pub fn jobs(&self) -> Vec<JobView> {
        let s = &*self.shared;
        let live: HashMap<u64, usize> = s
            .active()
            .values()
            .map(|j| (j.id, j.graph.tasks().len() - j.run.remaining.load(Ordering::Acquire)))
            .collect();
        let recs = relock(&s.records);
        let mut out: Vec<JobView> = recs
            .iter()
            .map(|(&id, r)| JobView {
                id: JobId(id),
                tag: r.tag.clone(),
                state: r.state,
                qos: r.qos,
                attempts: r.attempts,
                // `live` was read before `records`: a job finalized in
                // between is terminal here and its record has the count.
                tasks_done: match live.get(&id) {
                    Some(&done) if !r.state.is_terminal() => done,
                    _ => r.tasks_done,
                },
                tasks_total: r.tasks_total,
                error: r.error.clone(),
                wall: r.wall,
            })
            .collect();
        out.sort_by_key(|v| Reverse(v.id));
        out
    }

    /// Request cancellation. Returns `false` for unknown or already
    /// terminal jobs; otherwise the job reaches [`JobState::Cancelled`].
    /// Parked (suspended) jobs cancel immediately.
    pub fn cancel(&self, id: JobId) -> bool {
        let s = &*self.shared;
        if relock(&s.parked).remove(&id.0).is_some() {
            s.transition(
                id.0,
                JobState::Cancelled,
                Settle {
                    event: Some(JournalEvent::Cancelled { id: id.0 }),
                    error: Some("cancelled while suspended".into()),
                    ..Settle::default()
                },
            );
            return true;
        }
        self.request(id, None)
    }

    /// Queue a cancel (`None`) or suspend request for the supervisor;
    /// `false` for unknown or terminal jobs.
    fn request(&self, id: JobId, kind: Option<SuspendKind>) -> bool {
        let s = &*self.shared;
        let live = relock(&s.records).get(&id.0).is_some_and(|r| !r.state.is_terminal());
        if live {
            relock(&s.requests).push((id.0, kind));
        }
        live
    }

    /// Request suspension of `id`: a queued job parks immediately, a
    /// running job is checkpointed at its next panel-boundary quiescent
    /// point and then parks. The job sits in [`JobState::Suspended`]
    /// until [`JobPool::resume_job`] (or [`JobPool::cancel`]). Returns
    /// `false` for unknown or terminal jobs.
    pub fn suspend(&self, id: JobId) -> bool {
        self.request(id, Some(SuspendKind::Park))
    }

    /// Resume a job parked by [`JobPool::suspend`]: it re-queues from its
    /// suspension checkpoint and continues bitwise-identically from the
    /// completed-panel frontier. Returns `false` when `id` is not parked.
    pub fn resume_job(&self, id: JobId) -> bool {
        let s = &*self.shared;
        let Some(p) = relock(&s.parked).remove(&id.0) else { return false };
        // State first: once pending, the supervisor owns the record.
        s.transition(id.0, JobState::Queued, Settle::default());
        relock(&s.pending).push(p);
        true
    }

    /// Encoded result container for a completed job — from the durable
    /// store when the pool has one (the record then holds no copy), else
    /// re-encoded from the in-memory outcome. `None` when the job is
    /// unknown, not completed, its stored result was pruned, or (volatile
    /// pools) the outcome was already claimed.
    pub fn result_bytes(&self, id: JobId) -> Option<Vec<u8>> {
        let s = &*self.shared;
        if let Some(store) = &s.results {
            if let Some(bytes) = store.get(id.0) {
                return Some(bytes);
            }
        }
        let recs = relock(&s.records);
        let result = recs.get(&id.0)?.outcome.as_ref()?.result.as_ref()?;
        Some(result_to_bytes(id.0, result))
    }

    /// Graceful drain: stop admitting, give running jobs `grace` to
    /// finish, then checkpoint the stragglers at a quiescent point and
    /// park them. Blocks until the pool is quiet. Queued and parked jobs
    /// stay where they are: on a durable pool the journal already holds
    /// them for the next [`JobPool::recover`], on a volatile pool they stay
    /// in memory (a parked job can still be resumed or cancelled).
    pub fn drain(&self, grace: Duration) -> DrainReport {
        let s = &*self.shared;
        s.draining.store(true, Ordering::SeqCst);
        let terminal_before: HashSet<u64> = {
            let recs = relock(&s.records);
            recs.iter().filter(|(_, r)| r.state.is_terminal()).map(|(&id, _)| id).collect()
        };
        let deadline = Instant::now() + grace;
        while !s.active().is_empty() && Instant::now() < deadline {
            std::thread::sleep(s.cfg.tick);
        }
        // Suspend whatever is still running.
        for job in s.active().values() {
            job.halt_with(Verdict::Suspend(SuspendKind::Drain));
        }
        // Quiesce. An empty active map is not enough: the supervisor
        // removes a job from the map *before* concluding it (parking its
        // checkpoint, settling its record), so breaking on emptiness alone
        // can snapshot mid-conclusion and miss the last job. A record
        // leaves `Running` only inside that conclusion, so also wait for
        // every running record to settle.
        while !s.active().is_empty()
            || relock(&s.records).values().any(|r| r.state == JobState::Running)
        {
            std::thread::sleep(s.cfg.tick);
        }
        let recs = relock(&s.records);
        let suspended = recs
            .iter()
            .filter(|(_, r)| r.state == JobState::Suspended)
            .map(|(&id, _)| JobId(id))
            .collect();
        let finished = recs
            .iter()
            .filter(|(id, r)| {
                !terminal_before.contains(id)
                    && matches!(
                        r.state,
                        JobState::Completed | JobState::Cancelled | JobState::Quarantined
                    )
            })
            .count();
        drop(recs);
        let live = relock(&s.pending).len() + relock(&s.parked).len();
        DrainReport { finished, suspended, persisted: if s.journal.is_some() { live } else { 0 } }
    }

    /// Stop the pool: finish active jobs, mark still-queued jobs as shed,
    /// and join every thread. The pool accepts nothing afterwards. A pool
    /// that was drained first keeps its queue un-shed: those jobs are the
    /// journal's to resubmit, and a `Shed` record would end them.
    pub fn shutdown(&self) {
        let s = &*self.shared;
        let drained = s.draining.swap(true, Ordering::SeqCst);
        while !s.active().is_empty() {
            std::thread::sleep(s.cfg.tick);
        }
        if !drained {
            let mut queued: Vec<u64> = relock(&s.pending).drain(..).map(|p| p.id).collect();
            queued.extend(relock(&s.parked).drain().map(|(id, _)| id));
            for id in queued {
                let reason = "pool shut down before admission".to_string();
                s.transition(
                    id,
                    JobState::Shed,
                    Settle {
                        event: Some(JournalEvent::Shed { id, reason: reason.clone() }),
                        error: Some(reason),
                        ..Settle::default()
                    },
                );
            }
        }
        self.stop_threads();
    }

    fn stop_threads(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
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
        s.draining.store(true, Ordering::SeqCst);
        for job in s.active().values() {
            job.halt_with(Verdict::Cancel);
        }
        self.stop_threads();
    }
}

/// The journal event that records a recovered job's terminal state.
fn terminal_event(id: u64, state: JobState, j: &RecoveredJob) -> JournalEvent {
    match state {
        JobState::Completed => JournalEvent::Completed { id, file: j.result_file.clone() },
        JobState::Quarantined => {
            JournalEvent::Quarantined { id, error: j.error.clone().unwrap_or_default() }
        }
        JobState::Cancelled => JournalEvent::Cancelled { id },
        _ => JournalEvent::Shed { id, reason: j.error.clone().unwrap_or_default() },
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
                if !job.run.halt.load(Ordering::SeqCst) && !job.run.is_done(tid) {
                    run_job_task(shared, &job, tid, me, local);
                }
                job.inflight.fetch_sub(1, Ordering::SeqCst);
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
    let mut wstats = FaultStats::default();
    let mut counters = WorkerCounters::default();
    // SAFETY contract of `attempt`: `tid` is ready (released by its last
    // predecessor) and not done, so within this job's DAG this worker
    // holds exclusive access to its read/write sets; distinct jobs never
    // share buffers at all. Pool workers are never poisoned (rejected at
    // submission).
    let end = job.run.attempt(&job.graph, tid, me, false, &mut wstats, &mut counters, &mut |_| {});
    if wstats != FaultStats::default() {
        relock(&job.stats).merge(&wstats);
    }
    match end {
        // The best-ranked released successor stays local (data reuse), the
        // rest go on the shared QoS-major heap.
        Ok(Attempt::Done { .. }) => job.run.complete(
            &job.graph,
            tid,
            |s| local.push((job.rid, s)),
            |s| shared.push_ready(job, s),
        ),
        // The job was halted between attempts (cancel/deadline/drain);
        // whoever halted it recorded the verdict. The task is not done.
        Ok(Attempt::Aborted) => {}
        Ok(Attempt::Requeue) => unreachable!("pool workers are never poisoned"),
        Err(e) => job.halt_with(Verdict::Fault(e)),
    }
}

// ---------------------------------------------------------------------------
// Supervisor side
// ---------------------------------------------------------------------------

fn supervisor_loop(shared: &Shared) {
    while !shared.stop.load(Ordering::SeqCst) {
        supervisor_tick(shared);
        std::thread::sleep(shared.cfg.tick);
    }
}

fn supervisor_tick(shared: &Shared) {
    process_requests(shared);
    enforce_deadlines(shared);
    periodic_checkpoints(shared);
    preempt_for_qos(shared);
    finalize_jobs(shared);
    admit_jobs(shared);
}

/// Serve the cancel (`None`) and suspend requests: a queued job comes off
/// the queue and is settled on the spot — nothing has run, so a parked
/// one's pending seed already is its exact resumable state; an active job
/// is halted with the matching verdict and settled at its conclusion.
fn process_requests(shared: &Shared) {
    for (id, kind) in std::mem::take(&mut *relock(&shared.requests)) {
        let queued = {
            let mut pending = relock(&shared.pending);
            pending.iter().position(|p| p.id == id).map(|i| pending.remove(i))
        };
        match (queued, kind) {
            (Some(p), Some(kind)) => park(shared, p, kind, None),
            (Some(_), None) => shared.transition(
                id,
                JobState::Cancelled,
                Settle {
                    event: Some(JournalEvent::Cancelled { id }),
                    error: Some("cancelled while queued".into()),
                    ..Settle::default()
                },
            ),
            (None, _) => {
                if let Some(job) = shared.active().values().find(|j| j.id == id) {
                    job.halt_with(kind.map_or(Verdict::Cancel, Verdict::Suspend));
                }
            }
        }
    }
}

/// Durable pools checkpoint long-running jobs at a configured cadence so
/// a crash rolls back to the last panel boundary, not to scratch. Only
/// activations that made progress are cycled (re-queuing resets the
/// clock), and deadline-carrying jobs are exempt — their wall budget is
/// per activation.
fn periodic_checkpoints(shared: &Shared) {
    let Some(d) = &shared.cfg.durability else { return };
    if d.ckpt_interval.is_zero() {
        return;
    }
    for job in shared.active().values() {
        let rem = job.run.remaining.load(Ordering::Acquire);
        if !job.run.halt.load(Ordering::SeqCst)
            && job.deadline.is_none()
            && rem > 0
            && rem < job.initial_remaining
            && job.started.elapsed() >= d.ckpt_interval
        {
            job.halt_with(Verdict::Suspend(SuspendKind::Periodic));
        }
    }
}

/// When the best admissible pending job is blocked only by lower-QoS
/// active work, suspend one victim at its next quiescent point: the
/// newest job of the lowest class, and only if suspension can actually
/// free what the candidate needs (an active slot, or enough budget
/// across all lower-QoS jobs). The victim re-queues from its checkpoint
/// and loses no retry budget.
fn preempt_for_qos(shared: &Shared) {
    if shared.draining.load(Ordering::SeqCst) {
        return;
    }
    let (cand_qos_inv, cand_fp) = {
        let pending = relock(&shared.pending);
        let now = Instant::now();
        let best = pending
            .iter()
            .filter(|p| p.not_before.is_none_or(|t| now >= t))
            .min_by_key(|p| (p.policy.qos.inverted(), p.seq));
        let Some(p) = best else { return };
        (p.policy.qos.inverted(), p.footprint)
    };
    let in_use = shared.active_footprint.load(Ordering::SeqCst);
    let active = shared.active();
    if active.is_empty() {
        return;
    }
    let slot_blocked = shared.cfg.max_active != 0 && active.len() >= shared.cfg.max_active;
    let budget_blocked = in_use.saturating_add(cand_fp) > shared.cfg.mem_budget;
    if !slot_blocked && !budget_blocked {
        return;
    }
    let lower: Vec<&Arc<ActiveJob>> = active
        .values()
        .filter(|j| j.qos_inv > cand_qos_inv && !j.run.halt.load(Ordering::SeqCst))
        .collect();
    if lower.is_empty() {
        return;
    }
    if budget_blocked && !slot_blocked {
        let reclaimable: u64 = lower.iter().map(|j| j.footprint).sum();
        if in_use.saturating_sub(reclaimable).saturating_add(cand_fp) > shared.cfg.mem_budget {
            return;
        }
    }
    let victim = lower.into_iter().max_by_key(|j| (j.qos_inv, j.seq)).expect("lower is non-empty");
    victim.halt_with(Verdict::Suspend(SuspendKind::Preempt));
}

fn enforce_deadlines(shared: &Shared) {
    for job in shared.active().values() {
        if let Some(d) = job.deadline {
            // A job that already finished its last task but has not been
            // finalized yet has met its deadline — don't fail it on a
            // supervisor scheduling artifact.
            if !job.run.halt.load(Ordering::SeqCst)
                && job.run.remaining.load(Ordering::Acquire) > 0
                && job.started.elapsed() > d
            {
                job.halt_with(Verdict::Deadline(d));
            }
        }
    }
}

/// Exponential backoff for job-level retries, delegating to the shared
/// [`crate::retry::RetryPolicy`] (decorrelated jitter in [0.5, 1.0] from
/// `(salt, attempts)`) — jobs that fail together (a shared fault, a mass
/// deadline miss) spread their retries out instead of re-colliding in
/// lockstep, and the job pool and the network RPC layer stay on one
/// implementation of the constants.
fn retry_backoff(cfg: &PoolConfig, attempts: u32, salt: u64) -> Duration {
    let policy = crate::retry::RetryPolicy {
        base: cfg.backoff_base,
        cap: cfg.backoff_cap,
        max_attempts: u32::MAX,
    };
    policy.backoff(attempts, salt)
}

fn finalize_jobs(shared: &Shared) {
    // Snapshot candidate rids only — holding an Arc clone here would keep
    // the strong count above 1 and wedge the ownership-recovery spin below.
    let candidates: Vec<u64> = shared
        .active()
        .iter()
        .filter(|(_, j)| {
            let finished = j.run.remaining.load(Ordering::Acquire) == 0;
            let halted = j.run.halt.load(Ordering::SeqCst);
            (finished || halted) && j.inflight.load(Ordering::SeqCst) == 0
        })
        .map(|(&rid, _)| rid)
        .collect();
    for rid in candidates {
        // A worker that raced us holds only a transient Arc clone (it sees
        // `halted` or an all-done bitmap and drops it within one step);
        // the unwrap spin below absorbs it.
        let Some(arc) = shared.active.write().unwrap_or_else(PoisonError::into_inner).remove(&rid)
        else {
            continue;
        };
        shared.active_footprint.fetch_sub(arc.footprint, Ordering::SeqCst);
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
        conclude_job(shared, job);
    }
}

/// Turn one quiesced, owned job into a terminal record, a retry, or a
/// suspension.
fn conclude_job(shared: &Shared, mut job: ActiveJob) {
    // An out-of-core job is hollow at quiescence: spilled tiles live only
    // in its spill file. Fault everything back in before any verdict
    // branch clones or returns `a`/`factors`. When the fault-in itself
    // fails, a clean or suspending verdict must not survive — the state
    // it would persist is zero-filled where the read failed.
    let unpage_err = {
        let ActiveJob { run, a, factors, .. } = &mut job;
        run.store.unpage(a, factors).err()
    };
    let verdict = relock(&job.verdict).take();
    let verdict = match (verdict, unpage_err) {
        (None, Some(message)) | (Some(Verdict::Suspend(_)), Some(message)) => {
            Some(Verdict::Fault(ExecError::SpillIo { message }))
        }
        (v, _) => v,
    };
    let tasks_total = job.graph.tasks().len();
    let tasks_done = tasks_total - job.run.remaining.load(Ordering::Acquire);
    let ran = (*relock(&job.stats), tasks_done);
    let id = job.id;
    match verdict {
        None => {
            // Clean completion.
            debug_assert_eq!(tasks_done, tasks_total);
            let ActiveJob { a, factors, .. } = job;
            let result = JobResult { a, factors };
            // Durable pools persist R/V/T *before* journaling the
            // completion, so a journaled Completed always implies a
            // retrievable result — and once the store holds it the record
            // keeps no second copy: nobody may ever `wait` for this job (a
            // socket client cannot), and a daemon that held every result
            // grew by one factorization per job.
            let stored = shared.results.as_ref().and_then(|store| {
                let put = store.put(id, &result_to_bytes(id, &result));
                if let Err(e) = &put {
                    eprintln!("hqr-pool: persisting result of job-{id} failed: {e}");
                } else {
                    for pruned in store.prune_over_cap() {
                        shared.log_event(&JournalEvent::ResultPruned { id: pruned });
                    }
                }
                put.ok()
            });
            shared.transition(
                id,
                JobState::Completed,
                Settle {
                    result: stored.is_none().then_some(result),
                    event: Some(JournalEvent::Completed { id, file: stored }),
                    error: None,
                    ran: Some(ran),
                },
            );
        }
        Some(Verdict::Cancel) => shared.transition(
            id,
            JobState::Cancelled,
            Settle {
                event: Some(JournalEvent::Cancelled { id }),
                error: Some("cancelled while running".into()),
                ran: Some(ran),
                ..Settle::default()
            },
        ),
        Some(Verdict::Suspend(kind)) => suspend_job(shared, job, ran, kind),
        Some(Verdict::Fault(e)) => retry_or_quarantine(shared, job, ran, e.to_string()),
        Some(Verdict::Deadline(d)) => {
            retry_or_quarantine(shared, job, ran, format!("deadline of {d:?} exceeded"));
        }
    }
}

/// Put a job that is not running aside until [`JobPool::resume_job`]: a
/// queued job as it stands, a halted one (`ran` is its accounting) as the
/// checkpoint [`suspend_job`] just took. The park and the record change
/// under one `parked` lock, so a racing resume sees both or neither.
fn park(shared: &Shared, p: PendingJob, kind: SuspendKind, ran: Option<(FaultStats, usize)>) {
    let id = p.id;
    let reason = kind.reason().to_string();
    let mut parked = relock(&shared.parked);
    parked.insert(id, p);
    shared.transition(
        id,
        JobState::Suspended,
        Settle {
            event: Some(JournalEvent::Suspended { id, reason: reason.clone() }),
            error: Some(reason),
            ran,
            ..Settle::default()
        },
    );
}

/// Checkpoint a job halted at a quiescent point and park or re-queue it.
fn suspend_job(shared: &Shared, job: ActiveJob, ran: (FaultStats, usize), kind: SuspendKind) {
    let ActiveJob {
        id,
        seq,
        attempts,
        ib,
        elims,
        origin_policy,
        graph,
        run,
        footprint,
        a,
        factors,
        ..
    } = job;
    // Quiescent, hence closed under predecessors — what `validate_against`
    // requires of a resumable checkpoint.
    let ckpt = Checkpoint::capture(&graph, ib, elims.clone(), run.completed(), a, factors);
    // Durable pools write the checkpoint file first: once Checkpointed
    // is journaled, a restart resumes from this panel frontier.
    if let Some(d) = &shared.cfg.durability {
        let file = ckpt_file(id);
        match write_checkpoint(&d.state_dir.join(&file), &ckpt) {
            Ok(()) => {
                let tasks_done = ran.1 as u64;
                shared.log_event(&JournalEvent::Checkpointed { id, tasks_done, file });
            }
            Err(e) => eprintln!("hqr-pool: checkpointing job-{id} failed: {e}"),
        }
    }
    let requeued = PendingJob {
        id,
        seq,
        policy: origin_policy,
        elims,
        seed: Seed::Resume(Box::new(ckpt)),
        graph,
        footprint,
        attempts,
        not_before: None,
        count_attempt: false,
    };
    match kind {
        SuspendKind::Drain | SuspendKind::Park => park(shared, requeued, kind, Some(ran)),
        SuspendKind::Preempt | SuspendKind::Periodic => {
            // Straight back into the queue: the same attempt continues
            // from the checkpointed frontier when room frees up.
            relock(&shared.pending).push(requeued);
            shared.transition(
                id,
                JobState::Queued,
                Settle {
                    event: Some(JournalEvent::Suspended { id, reason: kind.reason().into() }),
                    ran: Some(ran),
                    ..Settle::default()
                },
            );
        }
    }
}

fn retry_or_quarantine(shared: &Shared, job: ActiveJob, ran: (FaultStats, usize), message: String) {
    let ActiveJob {
        id, seq, attempts, origin_policy, origin_seed, elims, graph, footprint, ..
    } = job;
    // `attempts` counts runs started; the budget allows `job_retries`
    // re-runs on top of the first.
    match origin_seed.filter(|_| attempts <= origin_policy.job_retries) {
        Some(seed) => {
            relock(&shared.pending).push(PendingJob {
                id,
                seq,
                policy: origin_policy,
                elims,
                seed,
                graph,
                footprint,
                attempts,
                not_before: Some(Instant::now() + retry_backoff(&shared.cfg, attempts, id)),
                count_attempt: true,
            });
            shared.transition(
                id,
                JobState::Backoff,
                Settle {
                    event: Some(JournalEvent::Failed { id, attempts, error: message.clone() }),
                    error: Some(message),
                    // The re-run starts from the pristine payload.
                    ran: Some((ran.0, 0)),
                    ..Settle::default()
                },
            );
        }
        None => shared.transition(
            id,
            JobState::Quarantined,
            Settle {
                event: Some(JournalEvent::Quarantined { id, error: message.clone() }),
                error: Some(message),
                ran: Some(ran),
                ..Settle::default()
            },
        ),
    }
}

fn admit_jobs(shared: &Shared) {
    if shared.draining.load(Ordering::SeqCst) {
        return;
    }
    loop {
        let admitted = {
            let mut pending = relock(&shared.pending);
            if pending.is_empty() {
                break;
            }
            let now = Instant::now();
            let budget = shared.cfg.mem_budget;
            let in_use = shared.active_footprint.load(Ordering::SeqCst);
            let active_count = shared.active().len();
            if shared.cfg.max_active != 0 && active_count >= shared.cfg.max_active {
                break;
            }
            // Highest QoS first, FCFS within a class; best-fit skip-ahead
            // past jobs that don't currently fit the budget or are waiting
            // out a retry backoff.
            let mut order: Vec<usize> = (0..pending.len()).collect();
            order.sort_by_key(|&i| (pending[i].policy.qos.inverted(), pending[i].seq));
            let pick = order.into_iter().find(|&i| {
                let p = &pending[i];
                let gated = p.not_before.is_some_and(|t| now < t);
                let fits = in_use.saturating_add(p.footprint) <= budget || active_count == 0;
                !gated && fits
            });
            pick.map(|i| {
                let p = pending.remove(i);
                // The escape hatch above admits an over-budget job when
                // the pool is otherwise idle (so one huge job cannot
                // wedge the queue forever). That bypass must be visible,
                // not silent: journal it and warn.
                let over = in_use.saturating_add(p.footprint) > budget;
                (p, over)
            })
        };
        let Some((p, over_budget)) = admitted else { break };
        if over_budget {
            eprintln!(
                "hqr-pool: job {} admitted over budget (need {} bytes, budget {}): pool was idle",
                p.id, p.footprint, shared.cfg.mem_budget
            );
            shared.log_event(&JournalEvent::OverBudgetAdmitted {
                id: p.id,
                need: p.footprint,
                budget: shared.cfg.mem_budget,
            });
        }
        activate_job(shared, p);
    }
}

fn activate_job(shared: &Shared, p: PendingJob) {
    let PendingJob {
        id,
        seq,
        policy: jp,
        elims,
        seed,
        graph,
        footprint,
        attempts,
        count_attempt,
        ..
    } = p;
    let n = graph.tasks().len();
    let retain = attempts < jp.job_retries;
    // Build the working state from the seed, retaining a pristine copy
    // when the job may be retried again later.
    let (mut a, mut factors, completed, seed_back): (
        TiledMatrix,
        TFactors,
        Vec<bool>,
        Option<Seed>,
    ) = match seed {
        Seed::Fresh(m) => {
            let back = retain.then(|| Seed::Fresh(m.clone()));
            (m, TFactors::allocate_for(&graph), vec![false; n], back)
        }
        Seed::Resume(ck) => {
            let back = retain.then(|| Seed::Resume(ck.clone()));
            let Checkpoint { a, factors, completed, .. } = *ck;
            (a, factors, completed, back)
        }
    };
    // A job whose working set outgrows the resident budget runs
    // out-of-core: tiles page against a spill file under the state
    // directory (or the OS temp dir on non-durable pools). Spill-store
    // setup failure degrades to fully-resident — the job was already
    // admitted, so availability beats the memory cap here.
    let spill_dir = shared.cfg.durability.as_ref().map(|d| d.state_dir.join("spill"));
    let budget = shared.cfg.resident_budget;
    let policy = RunPolicy {
        policy: jp.policy,
        integrity: jp.integrity,
        max_retries: jp.max_retries,
        plan: jp.plan.as_ref(),
        publish_rest: true,
    };
    // This job's tasks as one worker would take them: the pool interleaves
    // jobs, but each job's own tasks still come in about this order.
    let order = || preview_order(&graph, &policy, Some(&completed), n);
    let plan = RunPlan { graph: &graph, completed: Some(&completed), order: &order };
    let store = TileStore::open(&mut a, &mut factors, jp.ib, &plan, budget, spill_dir.as_deref())
        .unwrap_or_else(|e| {
            eprintln!("hqr-pool: job {id}: spill store unavailable ({e}); running resident");
            TileStore::with_ib(&mut a, &mut factors, jp.ib)
        });
    let (run, frontier) = DagRun::new(&graph, store, &policy, Some(&completed), n);
    let rid = shared.next_rid.fetch_add(1, Ordering::Relaxed);
    let job = Arc::new(ActiveJob {
        rid,
        id,
        seq,
        attempts: attempts + u32::from(count_attempt),
        qos_inv: jp.qos.inverted(),
        initial_remaining: run.remaining.load(Ordering::Acquire),
        run,
        inflight: AtomicUsize::new(0),
        verdict: Mutex::new(None),
        stats: Mutex::new(FaultStats::default()),
        started: Instant::now(),
        deadline: jp.deadline,
        footprint,
        ib: jp.ib,
        elims,
        origin_policy: jp,
        origin_seed: seed_back,
        graph,
        a,
        factors,
    });
    shared.active_footprint.fetch_add(footprint, Ordering::SeqCst);
    {
        let mut active = shared.active.write().unwrap_or_else(PoisonError::into_inner);
        active.insert(rid, Arc::clone(&job));
    }
    let started = JournalEvent::Started { id, attempt: job.attempts };
    shared.transition(id, JobState::Running, Settle { event: Some(started), ..Settle::default() });
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

    #[test]
    fn retry_backoff_doubles_caps_and_jitters() {
        let cfg = PoolConfig {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(65),
            ..Default::default()
        };
        // Deterministic per (attempt, salt).
        assert_eq!(retry_backoff(&cfg, 1, 7), retry_backoff(&cfg, 1, 7));
        // Jitter keeps each delay inside [raw/2, raw] of the capped
        // exponential ladder.
        for (attempts, raw_ms) in [(1u32, 10u64), (2, 20), (3, 40), (4, 65), (30, 65)] {
            let raw = Duration::from_millis(raw_ms);
            for salt in 0..32u64 {
                let d = retry_backoff(&cfg, attempts, salt);
                assert!(d <= raw, "attempt {attempts} salt {salt}: {d:?} > {raw:?}");
                assert!(d >= raw / 2, "attempt {attempts} salt {salt}: {d:?} < {:?}", raw / 2);
            }
        }
        // Co-failing jobs decorrelate: salts do not all share one delay.
        let d0 = retry_backoff(&cfg, 1, 0);
        assert!((1..32).any(|s| retry_backoff(&cfg, 1, s) != d0));
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

    /// The idle-pool escape hatch (`active_count == 0` in `admit_jobs`)
    /// exists so one oversized job cannot wedge the queue forever — but
    /// firing it must be loud: journaled as `OverBudgetAdmitted` and the
    /// job still driven to completion.
    #[test]
    fn idle_over_budget_admission_is_journaled_not_silent() {
        let dir = std::env::temp_dir().join(format!("hqr_pool_escape_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let pool = JobPool::new(PoolConfig {
            nthreads: 2,
            mem_budget: 1,
            durability: Some(DurabilityConfig::at(&dir)),
            ..Default::default()
        });
        // Regular submission refuses anything over the 1-byte budget, so
        // plant the pending job directly — the shape a stale in-use
        // reading leaves behind when admission races finalization.
        let elims = flat_elims(2, 2);
        let a = TiledMatrix::random(2, 2, 4, 3);
        let graph = TaskGraph::build(2, 2, 4, &elims);
        let footprint = working_set_bytes(&graph);
        assert!(footprint > pool.shared.cfg.mem_budget);
        let id = 17u64;
        let record = JobRecord::queued(QosClass::Normal, String::new(), 0, graph.tasks().len());
        relock(&pool.shared.records).insert(id, record);
        relock(&pool.shared.pending).push(PendingJob {
            id,
            seq: 1,
            policy: JobPolicy {
                ib: 4,
                qos: QosClass::Normal,
                policy: SchedPolicy::Fifo,
                integrity: IntegrityMode::Off,
                max_retries: 0,
                job_retries: 0,
                deadline: None,
                plan: None,
            },
            elims,
            seed: Seed::Fresh(a),
            graph,
            footprint,
            attempts: 0,
            not_before: None,
            count_attempt: true,
        });
        let out = pool.wait(JobId(id)).expect("planted job reaches a terminal state");
        assert_eq!(out.state, JobState::Completed, "{:?}", out.error);
        pool.shutdown();
        let events = Journal::read(&dir.join(JOURNAL_FILE)).expect("read journal");
        let admitted = events.iter().any(|e| {
            matches!(
                e,
                JournalEvent::OverBudgetAdmitted { id: 17, need, budget: 1 }
                    if *need == footprint
            )
        });
        assert!(admitted, "escape hatch must journal OverBudgetAdmitted: {events:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Benchmark finding 2: a completed job's record kept the whole
    /// factorization until somebody `wait`ed, which a socket client never
    /// does. Once the durable store holds the result the record must not;
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
            let recs = relock(&pool.shared.records);
            recs[&id.0].outcome.as_ref().map(|o| o.result.is_some())
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
