//! Typed failure modes for DAG construction and execution.
//!
//! The executors' historical failure behavior was a panic in whichever
//! worker thread hit the problem (and, for the work-stealing executor, a
//! deadlocked sibling pool). The `try_*` entry points route every failure —
//! kernel panics, exhausted retry budgets, scheduler stalls — through
//! [`ExecError`] instead, and [`crate::graph::TaskGraph::try_build`] reports
//! malformed elimination lists through [`GraphError`].

use std::fmt;
use std::time::Duration;

use hqr_kernels::KernelKind;

/// Why a fault-tolerant execution did not produce a factorization.
#[derive(Debug, Clone)]
pub enum ExecError {
    /// Invalid execution configuration (shape mismatch, bad inner block
    /// size); nothing was executed.
    Config {
        /// Human-readable description of the rejected configuration.
        message: String,
    },
    /// A task panicked and no recovery (retry budget or fault plan) was
    /// enabled. Siblings halt instead of deadlocking; the final
    /// `remaining == 0` invariant of the old executor is replaced by this
    /// variant, making the "exited with pending tasks" assert unreachable.
    WorkerPanicked {
        /// Index of the failing task in [`crate::TaskGraph::tasks`].
        task: u32,
        /// Kernel the task was running.
        kernel: KernelKind,
        /// Worker thread that caught the panic.
        worker: usize,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// A task kept panicking after exhausting its per-task retry budget.
    /// The store was rolled back to the task's pre-execution state after
    /// every attempt, so the matrix is consistent but incomplete.
    TaskFailed {
        /// Index of the failing task in [`crate::TaskGraph::tasks`].
        task: u32,
        /// Kernel the task was running.
        kernel: KernelKind,
        /// Number of attempts made (initial try plus retries).
        attempts: u32,
        /// The last panic payload, if it was a string.
        message: String,
    },
    /// A guard verification caught silent data corruption that
    /// detect-recompute could not (or was not allowed to) repair: either
    /// a commit-time mismatch persisted past the retry budget, or a
    /// pre-launch check found the task's *inputs* corrupted — damage that
    /// re-running the current task cannot heal.
    SdcDetected {
        /// Index of the detecting task in [`crate::TaskGraph::tasks`].
        task: u32,
        /// Kernel the task runs.
        kernel: KernelKind,
        /// Label of the mismatching slot, e.g. `"A(2,1)"`.
        slot: String,
        /// Recompute attempts made before giving up (0 for a pre-launch
        /// input mismatch).
        attempts: u32,
        /// The guard mismatch description.
        message: String,
    },
    /// The scheduler stopped making progress: either the stall watchdog saw
    /// no task complete within its window, or every worker exited with
    /// tasks still pending.
    Stalled(StallReport),
    /// The paged (spill-to-disk) tile store failed to move a tile between
    /// its resident and on-disk tiers: an I/O failure, or a checksum
    /// mismatch in an at-rest spill record (the sectioned container's
    /// checksum trailer doubles as the at-rest corruption guard).
    SpillIo {
        /// Human-readable description (slot, path, underlying error).
        message: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Config { message } => write!(f, "invalid execution config: {message}"),
            ExecError::WorkerPanicked { task, kernel, worker, message } => {
                write!(f, "worker {worker} panicked in task {task} ({kernel:?}): {message}")
            }
            ExecError::TaskFailed { task, kernel, attempts, message } => {
                write!(f, "task {task} ({kernel:?}) failed after {attempts} attempts: {message}")
            }
            ExecError::SdcDetected { task, kernel, slot, attempts, message } => write!(
                f,
                "silent data corruption detected at {slot} by task {task} ({kernel:?}), \
                 not recovered after {attempts} recompute attempt(s): {message}"
            ),
            ExecError::Stalled(report) => write!(f, "execution stalled: {report}"),
            ExecError::SpillIo { message } => write!(f, "spill store failure: {message}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// What stopped the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// The watchdog observed no completion for its configured window.
    WatchdogTimeout,
    /// Every worker thread exited (e.g. all were poisoned by a fault plan)
    /// while tasks were still pending.
    AllWorkersExited,
}

/// Structured diagnostic produced when execution stops making progress:
/// which tasks were runnable but never completed, and which were still
/// blocked (with their remaining in-degrees).
#[derive(Debug, Clone)]
pub struct StallReport {
    /// What detected the stall.
    pub cause: StallCause,
    /// The watchdog window (zero for [`StallCause::AllWorkersExited`]).
    pub timeout: Duration,
    /// Tasks whose completion was delivered to the scheduler.
    pub completed: usize,
    /// Tasks whose completion was never delivered.
    pub remaining: usize,
    /// Tasks with in-degree 0 that never completed — the stuck frontier.
    pub stuck_frontier: Vec<u32>,
    /// `(task, remaining in-degree)` for tasks still waiting on
    /// predecessors.
    pub blocked: Vec<(u32, u32)>,
    /// True when `stuck_frontier`/`blocked` were truncated to keep the
    /// report small.
    pub truncated: bool,
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cause = match self.cause {
            StallCause::WatchdogTimeout => format!("no progress for {:?}", self.timeout),
            StallCause::AllWorkersExited => "all workers exited".to_string(),
        };
        write!(
            f,
            "{cause}; {} completed, {} pending, frontier {:?}, blocked {:?}{}",
            self.completed,
            self.remaining,
            self.stuck_frontier,
            self.blocked,
            if self.truncated { " (truncated)" } else { "" }
        )
    }
}

/// Why an elimination list was rejected by
/// [`crate::graph::TaskGraph::try_build`].
///
/// The `Display` messages deliberately contain the same phrases the
/// panicking [`crate::graph::TaskGraph::build`] has always used (it now
/// panics with exactly these messages).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// `mt == 0` or `nt == 0`.
    EmptyMatrix,
    /// Tile size `b == 0`.
    ZeroTileSize,
    /// Tile counts do not fit the `u16` task coordinates.
    TileCountOverflow {
        /// Requested tile rows.
        mt: usize,
        /// Requested tile columns.
        nt: usize,
    },
    /// The elimination list is not sorted panel-major.
    UnsortedPanels {
        /// Index of the offending op in the elimination list.
        index: usize,
        /// Its panel.
        panel: u32,
        /// The panel of the op before it.
        previous: u32,
    },
    /// An op names a panel outside `0..min(mt, nt)`.
    PanelOutOfRange {
        /// Index of the offending op in the elimination list.
        index: usize,
        /// The out-of-range panel.
        panel: u32,
        /// Number of panels.
        kmax: usize,
    },
    /// An op names a victim or killer row outside `0..mt`.
    RowOutOfRange {
        /// Index of the offending op in the elimination list.
        index: usize,
        /// The op's victim row.
        victim: u32,
        /// The op's killer row.
        killer: u32,
        /// Number of tile rows.
        mt: usize,
    },
    /// A TS victim is elsewhere triangularized (used as a killer or TT
    /// victim) in the same panel — TS kills require a square victim.
    TsVictimTriangular {
        /// The panel.
        panel: u32,
        /// The victim row that must stay square.
        victim: u32,
    },
    /// A task names a trailing column outside `0..nt`.
    ColumnOutOfRange {
        /// Index of the offending task in the task list.
        index: usize,
        /// The out-of-range column.
        column: u32,
        /// Number of tile columns.
        nt: usize,
    },
    /// A task's coordinates do not fit its kernel (a factor kernel off its
    /// panel column, an update on it, a kill whose victim is its pivot), so
    /// its operand slots would not be pairwise distinct.
    MalformedTask {
        /// Index of the offending task in the task list.
        index: usize,
        /// The kernel it names.
        kernel: KernelKind,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::EmptyMatrix => write!(f, "matrix must be non-empty"),
            GraphError::ZeroTileSize => write!(f, "tile size must be nonzero"),
            GraphError::TileCountOverflow { mt, nt } => {
                write!(f, "tile counts must fit u16 (got {mt}x{nt})")
            }
            GraphError::UnsortedPanels { index, panel, previous } => write!(
                f,
                "elimination list must be sorted by panel (op {index} has panel {panel} after panel {previous})"
            ),
            GraphError::PanelOutOfRange { index, panel, kmax } => {
                write!(f, "panel {panel} out of range (op {index}; panels are 0..{kmax})")
            }
            GraphError::RowOutOfRange { index, victim, killer, mt } => write!(
                f,
                "row out of range (op {index}: victim {victim}, killer {killer}, rows are 0..{mt})"
            ),
            GraphError::TsVictimTriangular { panel, victim } => {
                write!(f, "TS victim row {victim} of panel {panel} must stay square")
            }
            GraphError::ColumnOutOfRange { index, column, nt } => {
                write!(f, "column {column} out of range (task {index}; columns are 0..{nt})")
            }
            GraphError::MalformedTask { index, kernel } => {
                write!(f, "task {index} has coordinates no {kernel:?} task can have")
            }
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_error_messages_keep_legacy_phrases() {
        // `build`'s #[should_panic] tests (and downstream callers matching
        // on messages) rely on these substrings.
        let e = GraphError::TsVictimTriangular { panel: 0, victim: 1 };
        assert!(e.to_string().contains("must stay square"));
        let e = GraphError::UnsortedPanels { index: 1, panel: 0, previous: 1 };
        assert!(e.to_string().contains("sorted by panel"));
        let e = GraphError::EmptyMatrix;
        assert!(e.to_string().contains("matrix must be non-empty"));
        let e = GraphError::RowOutOfRange { index: 0, victim: 9, killer: 0, mt: 3 };
        assert!(e.to_string().contains("row out of range"));
        let e = GraphError::PanelOutOfRange { index: 0, panel: 7, kmax: 2 };
        assert!(e.to_string().contains("panel 7 out of range"));
    }

    #[test]
    fn exec_error_display_names_the_task() {
        let e = ExecError::TaskFailed {
            task: 42,
            kernel: KernelKind::Tsqrt,
            attempts: 3,
            message: "injected".into(),
        };
        let s = e.to_string();
        assert!(s.contains("42") && s.contains("3 attempts"), "{s}");
    }

    #[test]
    fn sdc_error_display_names_slot_and_task() {
        let e = ExecError::SdcDetected {
            task: 7,
            kernel: KernelKind::Tsmqr,
            slot: "A(2,1)".into(),
            attempts: 1,
            message: "tile guard mismatch".into(),
        };
        let s = e.to_string();
        assert!(s.contains("A(2,1)") && s.contains("task 7") && s.contains("corruption"), "{s}");
    }

    #[test]
    fn stall_report_display_summarizes() {
        let r = StallReport {
            cause: StallCause::WatchdogTimeout,
            timeout: Duration::from_millis(50),
            completed: 7,
            remaining: 3,
            stuck_frontier: vec![8],
            blocked: vec![(9, 2)],
            truncated: false,
        };
        let s = ExecError::Stalled(r).to_string();
        assert!(s.contains("7 completed") && s.contains("3 pending"), "{s}");
    }
}
