//! Scheduling policies shared by the real work-stealing executor and the
//! `hqr-sim` discrete-event simulator.
//!
//! The paper attributes much of HQR's win to scheduling: DAGuE executes
//! the elimination-list DAG with critical-path-aware priorities plus a
//! data-reuse heuristic (§IV-C). Both backends rank ready tasks with the
//! same static priority keys computed here, so a policy comparison on one
//! backend transfers to the other — and a parity test can assert they
//! agree task-by-task.

use crate::analysis::paths_to_exit;
use crate::graph::TaskGraph;
use crate::task::Task;

/// Which ready task an idle core picks — the scheduler's priority
/// function, which the paper leaves as "a very promising but technically
/// challenging direction" for study. Shared by
/// [`crate::exec::try_execute_with`] (via [`crate::ExecOptions::policy`])
/// and the simulator's ready queues; `hqr experiments ablations` and
/// `hqr experiments policies` compare them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Panel-first, factor kernels before updates, left-to-right trailing
    /// columns — the DAGuE-style default (§IV-C).
    PanelFirst,
    /// Plain arrival order (no priorities). The default for the real
    /// executor, matching its historical behavior.
    #[default]
    Fifo,
    /// Longest weighted path to the DAG exit first (critical-path
    /// scheduling, the static upward rank of list scheduling).
    CriticalPath,
}

impl SchedPolicy {
    /// Every policy, in comparison order (FIFO is the baseline).
    pub const ALL: [SchedPolicy; 3] =
        [SchedPolicy::Fifo, SchedPolicy::PanelFirst, SchedPolicy::CriticalPath];

    /// Parse a CLI spelling: `fifo`, `panel`/`panel-first`, or
    /// `cp`/`critical-path`.
    pub fn parse(s: &str) -> Option<SchedPolicy> {
        match s {
            "fifo" => Some(SchedPolicy::Fifo),
            "panel" | "panel-first" => Some(SchedPolicy::PanelFirst),
            "cp" | "critical-path" => Some(SchedPolicy::CriticalPath),
            _ => None,
        }
    }

    /// Canonical short name (the CLI spelling).
    pub fn name(self) -> &'static str {
        match self {
            SchedPolicy::PanelFirst => "panel",
            SchedPolicy::Fifo => "fifo",
            SchedPolicy::CriticalPath => "cp",
        }
    }
}

impl std::fmt::Display for SchedPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Panel-first ready-queue key: lower sorts first. Orders by panel, then
/// factor kernels before updates, then left-to-right trailing columns,
/// then row.
pub fn panel_first_key(t: &Task) -> u64 {
    let upd = if t.kind.is_factor() { 0u64 } else { 1u64 };
    ((t.k as u64) << 48) | (upd << 40) | ((t.j as u64) << 20) | t.i as u64
}

/// Static priority key per task under `policy`: **lower sorts first**
/// (both backends use min-ordered ready queues). For `CriticalPath` the
/// key is `u64::MAX - upward_rank`, so the task with the longest weighted
/// path to the DAG exit runs first.
pub fn priorities(graph: &TaskGraph, policy: SchedPolicy) -> Vec<u64> {
    let tasks = graph.tasks();
    match policy {
        SchedPolicy::Fifo => (0..tasks.len() as u64).collect(),
        SchedPolicy::PanelFirst => tasks.iter().map(panel_first_key).collect(),
        SchedPolicy::CriticalPath => {
            paths_to_exit(graph).into_iter().map(|d| u64::MAX - d).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elim::ElimOp;

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
    fn parse_round_trips_every_policy() {
        for p in SchedPolicy::ALL {
            assert_eq!(SchedPolicy::parse(p.name()), Some(p));
            assert_eq!(format!("{p}"), p.name());
        }
        assert_eq!(SchedPolicy::parse("panel-first"), Some(SchedPolicy::PanelFirst));
        assert_eq!(SchedPolicy::parse("critical-path"), Some(SchedPolicy::CriticalPath));
        assert_eq!(SchedPolicy::parse("lifo"), None);
    }

    #[test]
    fn default_policy_is_fifo() {
        assert_eq!(SchedPolicy::default(), SchedPolicy::Fifo);
    }

    #[test]
    fn fifo_keys_are_program_order() {
        let g = TaskGraph::build(4, 2, 2, &flat_elims(4, 2));
        let p = priorities(&g, SchedPolicy::Fifo);
        assert!(p.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn panel_first_ranks_factors_before_updates_within_a_panel() {
        let g = TaskGraph::build(4, 2, 2, &flat_elims(4, 2));
        let p = priorities(&g, SchedPolicy::PanelFirst);
        let tasks = g.tasks();
        for (a, ta) in tasks.iter().enumerate() {
            for (b, tb) in tasks.iter().enumerate() {
                if ta.k == tb.k && ta.kind.is_factor() && !tb.kind.is_factor() {
                    assert!(p[a] < p[b], "factor {a} must outrank update {b} in panel {}", ta.k);
                }
            }
        }
    }

    #[test]
    fn critical_path_keys_are_monotone_along_edges() {
        // A task's key must sort strictly before every successor's: its
        // upward rank exceeds theirs by at least its own weight.
        let g = TaskGraph::build(6, 3, 2, &flat_elims(6, 3));
        let p = priorities(&g, SchedPolicy::CriticalPath);
        for t in 0..g.tasks().len() {
            for &s in g.successors(t) {
                assert!(p[t] < p[s as usize], "task {t} must outrank successor {s}");
            }
        }
    }

    #[test]
    fn critical_path_top_key_is_on_the_entry_of_the_longest_chain() {
        let g = TaskGraph::build(6, 1, 2, &flat_elims(6, 1));
        let p = priorities(&g, SchedPolicy::CriticalPath);
        // Single panel, flat tree: task 0 (the GEQRT) heads the only chain.
        assert!(p.iter().all(|&k| k >= p[0]));
    }
}
