//! Simulated platform faults: node crashes and link degradation, scheduled
//! by a [`FaultPlan`] and checked against the platform by `validate`.
//!
//! The fault model mirrors what checkpoint-free fault tolerance on top of a
//! data-flow runtime gives you (lineage recovery, as in DAGuE-descendant
//! runtimes): a crashed node loses every *intermediate* tile it produced,
//! while the original input matrix is assumed durably re-loadable. Recovery
//! walks the DAG backwards from the still-incomplete tasks and re-executes
//! exactly the lost producers whose outputs are still needed, on the
//! surviving nodes.

use hqr_runtime::{FaultKind, FaultPlan};
use std::collections::BTreeSet;
use std::fmt;

/// The simulator's check of a plan against a platform of `nodes` nodes: it
/// injects node crashes and link degradation only, every event must be
/// well-formed, and at least one node must survive all crashes.
pub(crate) fn validate(plan: &FaultPlan, nodes: usize) -> Result<(), SimError> {
    plan.check_kinds("the simulator", &[FaultKind::CrashNode, FaultKind::DegradeLink])
        .map_err(|message| SimError::Config { message })?;
    let mut crashed = BTreeSet::new();
    for c in plan.crashes() {
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
    for d in plan.degrades() {
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

/// Recovery cost of a faulty run, attached to the
/// [`SimReport`](crate::SimReport) by
/// [`simulate_with`](crate::simulate_with) under a non-empty plan.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultOverhead {
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
        let plan = FaultPlan::default;
        assert!(validate(&plan(), 4).is_ok());
        assert!(matches!(validate(&plan().crash_node(4, 1.0), 4), Err(SimError::Config { .. })));
        assert!(matches!(validate(&plan().crash_node(0, -1.0), 4), Err(SimError::Config { .. })));
        assert!(matches!(
            validate(&plan().crash_node(0, 0.1).crash_node(1, 0.2), 2),
            Err(SimError::AllNodesCrashed { nodes: 2 })
        ));
        assert!(matches!(
            validate(&plan().degrade_link(0.0, 0.0, 1.0), 2),
            Err(SimError::Config { .. })
        ));
        assert!(validate(&plan().crash_node(1, 0.5).degrade_link(0.1, 0.5, 2.0), 3).is_ok());
    }

    #[test]
    fn error_messages_are_informative() {
        let e = SimError::Deadlock { completed: 3, total: 9 };
        assert_eq!(e.to_string(), "simulation deadlocked: 3/9 tasks ran");
        let e = SimError::AllNodesCrashed { nodes: 2 };
        assert!(e.to_string().contains("all 2 nodes"));
    }
}
