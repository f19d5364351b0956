//! Simulated platform faults: node crashes and link degradation.
//!
//! The fault model mirrors what checkpoint-free fault tolerance on top of a
//! data-flow runtime gives you (lineage recovery, as in DAGuE-descendant
//! runtimes): a crashed node loses every *intermediate* tile it produced,
//! while the original input matrix is assumed durably re-loadable. Recovery
//! walks the DAG backwards from the still-incomplete tasks and re-executes
//! exactly the lost producers whose outputs are still needed, on the
//! surviving nodes.

use hqr_runtime::fault::splitmix64;
use std::collections::BTreeSet;
use std::fmt;

/// One node crash: at simulated time `at`, node `node` disappears — its
/// in-flight and queued tasks abort, and every intermediate tile it holds
/// is lost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeCrash {
    /// Node index (into the platform's `nodes`).
    pub node: usize,
    /// Simulated time of the crash, seconds.
    pub at: f64,
}

/// One link-degradation event: at time `at` the interconnect's bandwidth is
/// multiplied by `bandwidth_factor` (< 1 degrades) and its latency by
/// `latency_factor` (> 1 degrades). Models cable faults, congestion or a
/// failed rail — LogGP parameters worsen but traffic still flows.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkDegrade {
    /// Simulated time the degradation takes effect, seconds.
    pub at: f64,
    /// Multiplier applied to link bandwidth (0 < f ≤ 1 degrades).
    pub bandwidth_factor: f64,
    /// Multiplier applied to link latency (≥ 1 degrades).
    pub latency_factor: f64,
}

/// A deterministic schedule of platform faults for one simulated run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimFaultPlan {
    crashes: Vec<NodeCrash>,
    degrades: Vec<LinkDegrade>,
}

impl SimFaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Crash `node` at time `at`.
    pub fn crash_node(mut self, node: usize, at: f64) -> Self {
        self.crashes.push(NodeCrash { node, at });
        self
    }

    /// Crash a deterministic seed-chosen node (among `nodes`) at time `at`.
    pub fn crash_random_node(self, nodes: usize, seed: u64, at: f64) -> Self {
        let mut s = seed ^ 0x0DE0_0DE0_0DE0_0DE0;
        let node = (splitmix64(&mut s) % nodes.max(1) as u64) as usize;
        self.crash_node(node, at)
    }

    /// Degrade the interconnect at time `at`.
    pub fn degrade_link(mut self, at: f64, bandwidth_factor: f64, latency_factor: f64) -> Self {
        self.degrades.push(LinkDegrade { at, bandwidth_factor, latency_factor });
        self
    }

    /// Scheduled crashes, in insertion order.
    pub fn crashes(&self) -> &[NodeCrash] {
        &self.crashes
    }

    /// Scheduled link degradations, in insertion order.
    pub fn degrades(&self) -> &[LinkDegrade] {
        &self.degrades
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.degrades.is_empty()
    }

    /// Validate the plan against a platform of `nodes` nodes: every event
    /// must be well-formed and at least one node must survive all crashes.
    pub fn validate(&self, nodes: usize) -> Result<(), SimError> {
        let mut crashed = BTreeSet::new();
        for c in &self.crashes {
            if c.node >= nodes {
                return Err(SimError::Config {
                    message: format!("crash targets node {} but platform has {nodes}", c.node),
                });
            }
            if !c.at.is_finite() || c.at < 0.0 {
                return Err(SimError::Config {
                    message: format!("crash time {} must be finite and non-negative", c.at),
                });
            }
            crashed.insert(c.node);
        }
        if crashed.len() >= nodes && nodes > 0 {
            return Err(SimError::AllNodesCrashed { nodes });
        }
        for d in &self.degrades {
            if !d.at.is_finite() || d.at < 0.0 {
                return Err(SimError::Config {
                    message: format!("degradation time {} must be finite and non-negative", d.at),
                });
            }
            let ok = |f: f64| f.is_finite() && f > 0.0;
            if !ok(d.bandwidth_factor) || !ok(d.latency_factor) {
                return Err(SimError::Config {
                    message: "link degradation factors must be positive".into(),
                });
            }
        }
        Ok(())
    }
}

/// Recovery cost of a faulty run, attached to the
/// [`SimReport`](crate::SimReport) by
/// [`simulate_with_faults`](crate::simulate_with_faults).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultOverhead {
    /// Makespan of the identical fault-free run.
    pub baseline_makespan: f64,
    /// `makespan / baseline_makespan - 1` (0 when faults cost nothing).
    pub makespan_inflation: f64,
    /// Previously *completed* tasks whose outputs were lost and had to be
    /// re-executed on survivors (the lineage closure).
    pub reexecuted_tasks: usize,
    /// Tasks aborted mid-execution or while queued on a crashing node.
    pub aborted_tasks: usize,
    /// Extra messages sent to restage surviving inputs onto new owners.
    pub resent_messages: usize,
    /// Bytes carried by those restaging messages.
    pub resent_bytes: f64,
    /// Nodes lost to crashes.
    pub nodes_lost: usize,
}

/// Typed failure of a simulated run.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// Malformed input (bad layout, bad fault plan parameters).
    Config {
        /// Human-readable description.
        message: String,
    },
    /// The fault plan leaves no survivor to recover onto.
    AllNodesCrashed {
        /// Platform size.
        nodes: usize,
    },
    /// The event loop drained with tasks still pending — a scheduling bug,
    /// kept as a typed error instead of an assert.
    Deadlock {
        /// Tasks that did run.
        completed: usize,
        /// Tasks in the graph.
        total: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config { message } => write!(f, "invalid simulation input: {message}"),
            SimError::AllNodesCrashed { nodes } => {
                write!(f, "fault plan crashes all {nodes} nodes; recovery needs a survivor")
            }
            SimError::Deadlock { completed, total } => {
                write!(f, "simulation deadlocked: {completed}/{total} tasks ran")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_bad_plans() {
        assert!(SimFaultPlan::new().validate(4).is_ok());
        assert!(matches!(
            SimFaultPlan::new().crash_node(4, 1.0).validate(4),
            Err(SimError::Config { .. })
        ));
        assert!(matches!(
            SimFaultPlan::new().crash_node(0, -1.0).validate(4),
            Err(SimError::Config { .. })
        ));
        assert!(matches!(
            SimFaultPlan::new().crash_node(0, 0.1).crash_node(1, 0.2).validate(2),
            Err(SimError::AllNodesCrashed { nodes: 2 })
        ));
        assert!(matches!(
            SimFaultPlan::new().degrade_link(0.0, 0.0, 1.0).validate(2),
            Err(SimError::Config { .. })
        ));
        assert!(SimFaultPlan::new()
            .crash_node(1, 0.5)
            .degrade_link(0.1, 0.5, 2.0)
            .validate(3)
            .is_ok());
    }

    #[test]
    fn seeded_crash_is_deterministic_and_in_range() {
        let a = SimFaultPlan::new().crash_random_node(7, 42, 1.0);
        let b = SimFaultPlan::new().crash_random_node(7, 42, 1.0);
        assert_eq!(a, b);
        assert!(a.crashes()[0].node < 7);
    }

    #[test]
    fn error_messages_are_informative() {
        let e = SimError::Deadlock { completed: 3, total: 9 };
        assert_eq!(e.to_string(), "simulation deadlocked: 3/9 tasks ran");
        let e = SimError::AllNodesCrashed { nodes: 2 };
        assert!(e.to_string().contains("all 2 nodes"));
    }
}
