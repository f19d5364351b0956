//! Timeline recording and realized-critical-path bounds.

use hqr_runtime::validate_chrome_trace;
use hqr_runtime::{ElimOp, FaultPlan, TaskGraph};
use hqr_sim::{simulate, simulate_traced, Platform, SchedPolicy, SimInstantKind};
use hqr_tile::Layout;

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
    let traced = simulate_traced(&g, &lay, &p, SchedPolicy::PanelFirst, &FaultPlan::default())
        .expect("traced run");
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
    assert_eq!(tl.spans.len(), g.tasks().len(), "fault-free: one span per task");
    assert_eq!(tl.transfers.len(), traced.messages, "one transfer span per message");
    // Per-(node,lane) spans never overlap.
    let mut spans = tl.spans.clone();
    spans.sort_by(|a, b| (a.node, a.lane).cmp(&(b.node, b.lane)).then(a.start.total_cmp(&b.start)));
    for w in spans.windows(2) {
        if (w[0].node, w[0].lane) == (w[1].node, w[1].lane) {
            assert!(w[1].start >= w[0].end - 1e-12, "lane overlap: {:?} then {:?}", w[0], w[1]);
        }
    }
    // Busy seconds agree with the report's accounting.
    assert!((tl.busy_seconds() - traced.node_busy.iter().sum::<f64>()).abs() < 1e-9);

    let json = tl.to_chrome_trace(&g);
    let events = validate_chrome_trace(&json).expect("schema-valid Chrome trace");
    assert!(events >= tl.spans.len() + tl.transfers.len());
}

#[test]
fn traced_crash_run_records_instants_and_keeps_cp_bounds() {
    let mt = 12;
    let g = TaskGraph::build(mt, 1, 40, &flat_elims(mt, 1));
    let p = Platform { nodes: 3, cores_per_node: 2, ..Platform::edel() };
    let plan = FaultPlan::default().crash_node(1, 1e-4).degrade_link(2e-4, 0.5, 2.0);
    let r = simulate_traced(&g, &Layout::cyclic_rows(3), &p, SchedPolicy::PanelFirst, &plan)
        .expect("faulty traced run");
    let tl = r.timeline.as_ref().unwrap();
    assert!(
        tl.instants.iter().any(|i| i.kind == SimInstantKind::NodeCrash && i.node == 1),
        "crash instant recorded"
    );
    assert!(tl.instants.iter().any(|i| i.kind == SimInstantKind::LinkDegrade));
    assert!(tl.spans.len() >= g.tasks().len(), "re-executions add spans, never remove them");
    // Every resent (restaging) message shows up as a recovery transfer
    // span, and only those.
    let resent = r.overhead.as_ref().unwrap().resent_messages;
    assert_eq!(tl.transfers.iter().filter(|t| t.recovery).count(), resent);
    assert_eq!(tl.transfers.len(), r.messages, "one transfer span per message, resends included");
    let cp = r.critical_path.as_ref().unwrap();
    assert!(cp.length <= r.makespan + 1e-12);
    assert!(cp.length > 0.0);
    // Every span sits on a valid core lane.
    assert!(tl.spans.iter().all(|s| (s.lane as usize) < p.cores_per_node));
    let json = tl.to_chrome_trace(&g);
    validate_chrome_trace(&json).expect("faulty-run trace still schema-valid");
}
