//! Fault-injection tests for the discrete-event simulator: node crashes
//! must recover via lineage re-execution (never deadlock), link faults must
//! only slow things down, and every faulty run must stay deterministic.

mod support;

use hqr_runtime::{FaultPlan, SdcFault, SdcPattern, TaskGraph};
use hqr_sim::{simulate, Platform, SimError};
use hqr_tile::Layout;
use std::time::Duration;
use support::{binary_elims, faulty, flat_elims};

fn test_platform(nodes: usize) -> Platform {
    Platform { nodes, cores_per_node: 2, ..Platform::edel() }
}

/// Acceptance criterion: a node crash at t > 0 completes all tasks, with a
/// makespan at least the fault-free one and a non-empty re-execution set.
#[test]
fn node_crash_mid_run_recovers_with_overhead() {
    let (mt, nt, b) = (12, 6, 40);
    let g = TaskGraph::build(mt, nt, b, &binary_elims(mt, nt));
    let p = test_platform(3);
    let lay = Layout::cyclic_rows(3);
    let baseline = simulate(&g, &lay, &p);
    // Crash a node ~30% into the fault-free makespan: plenty completed,
    // plenty left to poison downstream.
    let plan = FaultPlan::default().crash_node(1, 0.3 * baseline.makespan);
    let r = faulty(&g, &lay, &p, &plan).expect("recovery must complete");
    let o = r.overhead.as_ref().expect("faulty run reports overhead");
    assert_eq!(o.nodes_lost, 1);
    assert!(r.makespan >= baseline.makespan, "{} < {}", r.makespan, baseline.makespan);
    assert!(o.reexecuted_tasks > 0, "lineage closure must re-run lost producers: {o:?}");
    assert!(o.resent_messages <= r.messages);
    assert!(o.resent_bytes <= r.bytes);
    assert_eq!(r.messages_by_kind.iter().sum::<usize>(), r.messages);
}

#[test]
fn crash_after_completion_costs_nothing() {
    let (mt, nt, b) = (8, 4, 40);
    let g = TaskGraph::build(mt, nt, b, &flat_elims(mt, nt));
    let p = test_platform(2);
    let lay = Layout::cyclic_rows(2);
    let baseline = simulate(&g, &lay, &p);
    let plan = FaultPlan::default().crash_node(0, 10.0 * baseline.makespan);
    let r = faulty(&g, &lay, &p, &plan).unwrap();
    let o = r.overhead.unwrap();
    assert_eq!(r.makespan, baseline.makespan);
    assert_eq!(o.reexecuted_tasks, 0);
    assert_eq!(o.aborted_tasks, 0);
    assert_eq!(o.resent_messages, 0);
}

#[test]
fn crash_at_time_zero_runs_everything_on_survivors() {
    let (mt, nt, b) = (8, 4, 40);
    let g = TaskGraph::build(mt, nt, b, &flat_elims(mt, nt));
    let p = test_platform(3);
    let lay = Layout::cyclic_rows(3);
    let plan = FaultPlan::default().crash_node(2, 0.0);
    let r = faulty(&g, &lay, &p, &plan).unwrap();
    let o = r.overhead.unwrap();
    // Nothing had completed, so nothing re-executes — work just re-homes.
    assert_eq!(o.reexecuted_tasks, 0);
    assert!(r.node_busy[2] == 0.0, "dead node must do no work");
}

#[test]
fn link_degradation_inflates_makespan_without_losing_work() {
    let (mt, nt, b) = (10, 5, 40);
    let g = TaskGraph::build(mt, nt, b, &binary_elims(mt, nt));
    let p = test_platform(4);
    let lay = Layout::cyclic_rows(4);
    let baseline = simulate(&g, &lay, &p);
    // Collapse bandwidth to 2% and 10x the latency from the start.
    let plan = FaultPlan::default().degrade_link(0.0, 0.02, 10.0);
    let r = faulty(&g, &lay, &p, &plan).unwrap();
    let o = r.overhead.unwrap();
    assert!(r.makespan > baseline.makespan, "{} vs {}", r.makespan, baseline.makespan);
    assert_eq!(o.reexecuted_tasks, 0);
    assert_eq!(r.messages, baseline.messages, "degradation drops no traffic");
}

#[test]
fn empty_plan_matches_fault_free_run() {
    let (mt, nt, b) = (6, 3, 40);
    let g = TaskGraph::build(mt, nt, b, &flat_elims(mt, nt));
    let p = test_platform(2);
    let lay = Layout::cyclic_rows(2);
    let r0 = simulate(&g, &lay, &p);
    let r1 = faulty(&g, &lay, &p, &FaultPlan::default()).unwrap();
    assert_eq!(r0.makespan, r1.makespan);
    assert_eq!(r0.messages, r1.messages);
    assert!(r1.overhead.is_none(), "a fault-free run reports no recovery");
}

#[test]
fn faulty_runs_are_deterministic() {
    let (mt, nt, b) = (10, 5, 40);
    let g = TaskGraph::build(mt, nt, b, &binary_elims(mt, nt));
    let p = test_platform(3);
    let lay = Layout::cyclic_rows(3);
    let base = simulate(&g, &lay, &p).makespan;
    let plan = FaultPlan::default().crash_node(0, 0.4 * base).degrade_link(0.1 * base, 0.5, 2.0);
    let r1 = faulty(&g, &lay, &p, &plan).unwrap();
    let r2 = faulty(&g, &lay, &p, &plan).unwrap();
    assert_eq!(r1.makespan, r2.makespan);
    assert_eq!(r1.messages, r2.messages);
    assert_eq!(r1.bytes, r2.bytes);
    assert_eq!(r1.overhead, r2.overhead);
}

#[test]
fn double_crash_still_recovers_onto_last_survivor() {
    let (mt, nt, b) = (8, 4, 40);
    let g = TaskGraph::build(mt, nt, b, &flat_elims(mt, nt));
    let p = test_platform(3);
    let lay = Layout::cyclic_rows(3);
    let base = simulate(&g, &lay, &p).makespan;
    let plan = FaultPlan::default().crash_node(0, 0.2 * base).crash_node(1, 0.5 * base);
    let r = faulty(&g, &lay, &p, &plan).unwrap();
    let o = r.overhead.unwrap();
    assert_eq!(o.nodes_lost, 2);
    assert!(r.makespan >= base);
}

#[test]
fn crashing_every_node_is_rejected() {
    let g = TaskGraph::build(4, 2, 40, &flat_elims(4, 2));
    let p = test_platform(2);
    let plan = FaultPlan::default().crash_node(0, 0.1).crash_node(1, 0.2);
    match faulty(&g, &Layout::cyclic_rows(2), &p, &plan) {
        Err(SimError::AllNodesCrashed { nodes: 2 }) => {}
        other => panic!("expected AllNodesCrashed, got {other:?}"),
    }
}

/// The simulator injects node crashes and link degradation; the engine's
/// task kinds and the coordinator's RPC kinds are typed config errors.
#[test]
fn simulator_refuses_faults_it_cannot_inject() {
    let g = TaskGraph::build(4, 2, 40, &flat_elims(4, 2));
    let p = test_platform(2);
    let sdc = SdcFault { slot: 0, element: 0, pattern: SdcPattern::Scale };
    let rows = [
        ("fail", FaultPlan::new(1).fail_task(0, 1)),
        ("poison", FaultPlan::new(1).poison_worker(0)),
        ("lost completion", FaultPlan::new(1).lose_completion(0)),
        ("corrupt", FaultPlan::new(1).corrupt_task(0, sdc)),
        ("drop", FaultPlan::new(1).drop_rpcs(0.5)),
        ("delay", FaultPlan::new(1).delay_rpcs(0.5, Duration::from_millis(1))),
    ];
    for (what, plan) in rows {
        let plan = plan.crash_node(1, 1e-4);
        match faulty(&g, &Layout::cyclic_rows(2), &p, &plan) {
            Err(SimError::Config { message }) => {
                assert!(message.starts_with("the simulator cannot inject"), "{what}: {message}")
            }
            other => panic!("{what}: expected a config error, got {other:?}"),
        }
    }
}

#[test]
fn invalid_layout_is_a_typed_error_in_the_fallible_api() {
    let g = TaskGraph::build(4, 2, 40, &flat_elims(4, 2));
    let p = test_platform(2);
    match faulty(&g, &Layout::cyclic_rows(4), &p, &FaultPlan::default()) {
        Err(SimError::Config { message }) => assert!(message.contains("layout addresses")),
        other => panic!("expected Config error, got {other:?}"),
    }
}
