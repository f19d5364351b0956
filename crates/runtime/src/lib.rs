//! Task-DAG runtime for tiled QR factorizations — the reproduction's
//! substitute for the DAGuE/PaRSEC scheduling environment (§IV-C).
//!
//! As in DAGuE, "a tiled QR algorithm is fully determined by its elimination
//! list": callers hand the runtime an ordered list of [`ElimOp`]s and the
//! runtime derives every kernel task and every dependency from the data flow
//! (which tile each task reads and writes). The same [`TaskGraph`] feeds
//! three consumers:
//!
//! * [`exec::execute_serial`] — in-order execution on one thread;
//! * [`exec::try_execute_with`] — a work-stealing multithreaded executor
//!   with data-reuse (LIFO) scheduling, mirroring DAGuE's "each core will
//!   try to execute close successors of the last task it ran";
//! * the `hqr-sim` crate — a discrete-event cluster simulator that replays
//!   the DAG on a modeled distributed machine.
//!
//! The engine's execution core ([`exec::DagRun`], [`exec::Frontier`],
//! [`exec::worker_loop`], [`exec::GlobalQueue`]) is public: `hqr-net`
//! workers run it over their shards ([`store::TileStore::over_shard`]), and
//! `hqr-sim` releases its simulated tasks through the same
//! [`exec::Frontier`].
//!
//! Applying op(Q) of a finished factorization is the same engine on another
//! graph: [`exec::try_apply_q`] runs [`TaskGraph::apply_q`], the update
//! tasks factoring `[A | C]` would run on C's columns.
//!
//! Execution is fault-tolerant on request: [`exec::try_execute_with`]
//! reports failures as typed [`ExecError`]s, and its [`ExecOptions`] add
//! bounded per-task retry with write-set rollback, a deterministic seeded
//! [`FaultPlan`] for fault injection, and a stall watchdog (see
//! `DESIGN.md`, "Fault tolerance" and "Execution core"). Silent data
//! corruption is covered by a `checksum64` guard on every tile-sized
//! buffer: an [`IntegrityMode`] on [`ExecOptions`] verifies guards around
//! each task and routes mismatches into the same rollback/recompute path
//! (see `DESIGN.md`, "Data integrity").

pub mod analysis;
pub mod checkpoint;
pub mod elim;
pub mod error;
pub mod exec;
pub mod fault;
pub mod graph;
pub mod integrity;
pub mod journal;
pub mod lineage;
pub mod pool;
pub mod pool_step;
pub mod retry;
pub mod sched;
pub mod spill;
pub mod store;
pub mod task;
pub mod trace;

pub use checkpoint::{
    graph_fingerprint, read_checkpoint, write_checkpoint, Checkpoint, CheckpointError,
    CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
};
pub use elim::ElimOp;
pub use error::{ExecError, GraphError, StallCause, StallReport};
pub use exec::{
    execute_serial, execute_serial_ib, live_v_copies, try_apply_q, try_execute_parallel,
    try_execute_traced, try_execute_with, ExecInstant, ExecTrace, InstantKind, TFactors,
    TaskRecord, TransferRecord, WorkerCounters,
};
pub use fault::{
    ExecOptions, FaultAction, FaultKind, FaultPlan, FaultStats, LinkDegrade, NodeCrash, SdcFault,
    SdcPattern, SDC_SCALE_FACTOR,
};
pub use graph::TaskGraph;
pub use integrity::IntegrityMode;
pub use journal::{
    result_from_bytes, Journal, JournalError, JournalEvent, ResultStore, StoredResult,
    JOURNAL_MAGIC, JOURNAL_VERSION,
};
pub use lineage::{last_writers, rebuild_closure, recompute_slots, Slot};
pub use pool::{
    DrainReport, DurabilityConfig, JobId, JobInput, JobOutcome, JobPool, JobResult, JobSpec,
    JobState, JobView, PoolConfig, QosClass, QueueFormatError, RecoveryReport, SubmitError,
    SuspendKind, CKPT_DIR, JOURNAL_FILE, QUEUE_MAGIC, QUEUE_VERSION, RESULTS_DIR,
};
pub use retry::RetryPolicy;
pub use sched::SchedPolicy;
pub use spill::{SpillSummary, SPILL_MAGIC, SPILL_VERSION};
pub use task::Task;
pub use trace::{
    chrome_trace_from_exec, realized_critical_path, validate_chrome_trace, validate_sdc_instants,
    ChromeTraceBuilder, PathStep, RealizedPath,
};
