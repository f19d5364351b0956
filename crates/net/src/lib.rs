//! Distributed execution backend for the HQR reproduction.
//!
//! The paper's algorithms target a *cluster* — the hierarchical
//! elimination trees exist to minimize inter-node communication — and
//! this crate supplies the cluster: multi-process tile workers holding 2D
//! block-cyclic shards, each running its share of the elimination-list DAG
//! on the engine's `hqr_runtime::exec::DagRun` and pushing finished tiles
//! (a push is one more released dependency) to the workers that consume
//! them, a coordinator that only supervises, and tiles as checksummed
//! `hqr_tile::io` containers in length-prefixed frames.
//!
//! Robustness is the design center, extending the single-process
//! fault-tolerance contract across process boundaries:
//!
//! * every exchange has a deadline and a capped decorrelated-jitter retry
//!   ladder ([`hqr_runtime::RetryPolicy`]);
//! * corrupt, truncated, or oversized frames surface as typed
//!   [`NetError`]s — never panics, never unbounded allocations;
//! * liveness is the progress poll: every few milliseconds the coordinator
//!   reads each worker's `Completed` cursor over its one connection, which
//!   the worker answers on that connection's own thread while a kernel
//!   runs, so a slow worker is not a dead one and a failed poll condemns;
//! * a confirmed-dead worker triggers lineage-based recovery
//!   ([`hqr_runtime::lineage`]): lost slot versions are rebuilt on the
//!   coordinator's engine from the pristine input and re-placed on
//!   survivors, and the result is bitwise-identical to a fault-free run;
//! * seeded drop/delay injection ([`hqr_runtime::FaultPlan`]) plus
//!   deterministic worker kill-points ([`WorkerOptions`]) make all of the
//!   above chaos-testable reproducibly.

pub mod calib;
pub mod coord;
pub mod error;
pub mod frame;
pub mod msg;
mod pool;
pub mod worker;

pub use calib::{measure_loopback, CalibSample, Calibration};
pub use coord::{factorize, shutdown_workers, DistConfig, DistReport, RecoveryEvent};
pub use error::NetError;
pub use frame::{read_frame, write_frame};
pub use hqr_tile::io::MAX_FRAME;
pub use msg::{recv_msg, send_msg, Msg, NET_MAGIC, NET_VERSION};
pub use worker::{serve, shutdown, spawn_local, LocalWorker, WorkerOptions};
