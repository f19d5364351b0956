//! Timeline recording and realized-critical-path bounds. A traced run
//! records the executor's own `ExecTrace`, rendered by the one Chrome
//! renderer.

mod support;

use hqr_runtime::{chrome_trace_from_exec, validate_chrome_trace};
use hqr_runtime::{ExecTrace, FaultPlan, InstantKind, TaskGraph};
use hqr_sim::{simulate, Platform, SchedPolicy, SimError};
use hqr_tile::Layout;
use support::{flat_elims, traced};

/// Records on one lane never overlap.
fn assert_lanes_disjoint(tl: &ExecTrace) {
    let mut records = tl.records.clone();
    records.sort_by(|a, b| a.worker.cmp(&b.worker).then(a.start.total_cmp(&b.start)));
    for w in records.windows(2) {
        if w[0].worker == w[1].worker {
            assert!(w[1].start >= w[0].end - 1e-12, "lane overlap: {:?} then {:?}", w[0], w[1]);
        }
    }
}

#[test]
fn cpu_only_platform_keeps_old_busy_semantics() {
    let g = TaskGraph::build(6, 4, 40, &flat_elims(6, 4));
    let p = Platform { nodes: 2, cores_per_node: 2, ..Platform::edel() };
    let r = simulate(&g, &Layout::cyclic_rows(2), &p);
    let total: f64 = g.tasks().iter().map(|t| p.kernel_seconds(t.kind, 40)).sum();
    assert!((r.node_busy.iter().sum::<f64>() - total).abs() < 1e-9);
}

#[test]
fn traced_run_matches_untraced_and_extracts_bounded_cp() {
    let g = TaskGraph::build(10, 4, 40, &flat_elims(10, 4));
    let p = Platform { nodes: 2, cores_per_node: 3, ..Platform::edel() };
    let lay = Layout::cyclic_rows(2);
    let plain = simulate(&g, &lay, &p);
    let traced = traced(&g, &lay, &p, &FaultPlan::default()).expect("traced run");
    // Recording is an observer: identical schedule.
    assert_eq!(plain.makespan, traced.makespan);
    assert_eq!(plain.messages, traced.messages);

    let cp = traced.critical_path.as_ref().expect("traced run extracts a CP");
    let longest_task =
        g.tasks().iter().map(|t| p.kernel_seconds(t.kind, 40)).fold(0.0f64, f64::max);
    assert!(
        cp.length >= longest_task - 1e-12,
        "CP {} must dominate the longest task {longest_task}",
        cp.length
    );
    assert!(
        cp.length <= traced.makespan + 1e-12,
        "CP {} cannot exceed the makespan {}",
        cp.length,
        traced.makespan
    );
    assert!(!cp.steps.is_empty());
    assert!((cp.task_seconds + cp.comm_seconds - cp.length).abs() < 1e-9);
    // The chain is a real dependency chain: strictly increasing program
    // order (program order is topological).
    for w in cp.steps.windows(2) {
        assert!(w[0].task < w[1].task);
    }

    let tl = traced.timeline.as_ref().expect("traced run records a timeline");
    // The simulator's fill of the shared record.
    assert_eq!((tl.nodes, tl.nthreads), (2, 6));
    assert_eq!(tl.wall, traced.makespan);
    assert_eq!(tl.policy, SchedPolicy::PanelFirst);
    assert!(tl.counters.is_empty() && tl.spill.is_none());
    assert!(tl.records.windows(2).all(|w| w[0].start <= w[1].start), "sorted by start");
    assert!(tl.records.iter().all(|r| r.kernel_start == r.start));
    assert_eq!(tl.records.len(), g.tasks().len(), "fault-free: one record per task");
    assert_eq!(tl.transfers.len(), traced.messages, "one transfer per message");
    assert_lanes_disjoint(tl);
    // Lanes are node-major: a task's lane is on the node that owns it.
    for r in &tl.records {
        let (i, j) = g.tasks()[r.task as usize].affinity_tile();
        assert_eq!(r.worker as usize / p.cores_per_node, lay.owner(i, j));
    }
    // Utilization agrees with the report's accounting.
    let (ours, report) = (tl.utilization(), traced.utilization(&p));
    assert!((ours - report).abs() <= 1e-12 * report, "{ours} vs {report}");

    let json = chrome_trace_from_exec(tl, g.tasks());
    let events = validate_chrome_trace(&json).expect("schema-valid Chrome trace");
    assert!(events >= tl.records.len() + 2 * tl.transfers.len());
    assert!(json.contains("\"core 2\"") && json.contains("\"nic rx\""));
}

#[test]
fn traced_crash_run_records_instants_and_keeps_cp_bounds() {
    let mt = 12;
    let g = TaskGraph::build(mt, 1, 40, &flat_elims(mt, 1));
    let p = Platform { nodes: 3, cores_per_node: 2, ..Platform::edel() };
    let plan = FaultPlan::default().crash_node(1, 1e-4).degrade_link(2e-4, 0.5, 2.0);
    let r = traced(&g, &Layout::cyclic_rows(3), &p, &plan).expect("faulty traced run");
    let tl = r.timeline.as_ref().unwrap();
    let cores = p.cores_per_node;
    assert!(
        tl.instants.iter().any(|i| i.kind == InstantKind::NodeCrash
            && i.worker as usize / cores == 1
            && i.task.is_none()),
        "crash instant recorded on node 1's lanes"
    );
    assert!(tl.instants.iter().any(|i| i.kind == InstantKind::LinkDegrade));
    assert!(tl.records.len() >= g.tasks().len(), "re-executions add records, never remove them");
    let mut seen = vec![false; g.tasks().len()];
    for rec in &tl.records {
        seen[rec.task as usize] = true;
    }
    assert!(seen.iter().all(|&s| s), "at least one record per task after a crash");
    // Every resent (restaging) message shows up as a recovery transfer,
    // and only those.
    let resent = r.overhead.as_ref().unwrap().resent_messages;
    assert_eq!(tl.transfers.iter().filter(|t| t.recovery).count(), resent);
    assert_eq!(tl.transfers.len(), r.messages, "one transfer per message, resends included");
    let cp = r.critical_path.as_ref().unwrap();
    assert!(cp.length <= r.makespan + 1e-12);
    assert!(cp.length > 0.0);
    // Every record sits on a valid core lane, and lanes never overlap.
    assert!(tl.records.iter().all(|rec| (rec.worker as usize) < p.nodes * cores));
    assert_lanes_disjoint(tl);
    let json = chrome_trace_from_exec(tl, g.tasks());
    validate_chrome_trace(&json).expect("faulty-run trace still schema-valid");
    assert!(json.contains("\"node crash\"") && json.contains("\"link degrade\""));
    assert_eq!(json.contains("\"comm-recovery\""), resent > 0);
}

#[test]
fn more_lanes_than_a_u16_names_is_a_config_error_when_traced() {
    let g = TaskGraph::build(2, 1, 40, &flat_elims(2, 1));
    let p = Platform { nodes: 257, cores_per_node: 256, ..Platform::edel() };
    let lay = Layout::cyclic_rows(2);
    let r = traced(&g, &lay, &p, &FaultPlan::default());
    assert!(matches!(r, Err(SimError::Config { .. })), "{r:?}");
    // Untraced, the platform is fine: only lane numbering needs the bound.
    assert!(simulate(&g, &lay, &p).makespan > 0.0);
    // 65536 lanes is the largest platform a trace can name.
    let p = Platform { nodes: 256, ..p };
    let r = traced(&g, &lay, &p, &FaultPlan::default());
    assert_eq!(r.unwrap().timeline.unwrap().nthreads, 65536);
}
