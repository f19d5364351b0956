//! Regression tests for the lineage fault model's conservation laws.
//!
//! After a node crash the DES re-executes *exactly* the lost producers
//! whose outputs are still needed — the lineage closure.  These tests
//! recompute that closure independently from the recorded trace (a
//! record's node is its lane over the cores per node) and
//! check it against the engine's `FaultOverhead` accounting, then verify
//! the work- and makespan-conservation identities.

mod support;

use std::collections::BTreeSet;

use hqr_runtime::{FaultPlan, TaskGraph, TaskRecord};
use hqr_sim::{simulate, Platform};
use hqr_tile::Layout;
use support::{binary_elims, traced};

/// The lineage closure, recomputed from first principles over the
/// recorded trace.  Delivery in the DES is eager, so unfinished tasks
/// on surviving nodes already hold local copies of their inputs; only
/// tasks *re-homed off the crashed node* start with nothing.  Those form
/// the frontier, and every *finished* predecessor whose output lived on
/// the crashed node is pulled in — transitively, since a pulled
/// predecessor must itself re-run and so re-reads its own inputs.
fn expected_reexecution_set(
    graph: &TaskGraph,
    layout: &Layout,
    records: &[TaskRecord],
    cores: usize,
    crashed: usize,
    crash_at: f64,
) -> BTreeSet<u32> {
    let n = graph.tasks().len();
    // First record per task (its original, pre-crash execution).
    let mut first: Vec<Option<&TaskRecord>> = vec![None; n];
    for s in records {
        let slot = &mut first[s.task as usize];
        if slot.is_none_or(|f| s.start < f.start) {
            *slot = Some(s);
        }
    }
    let done_at_crash =
        |t: usize| first[t].is_some_and(|s| s.end <= crash_at + 1e-12 && s.start < crash_at);
    // Predecessor lists from the successor CSR.
    let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
    for t in 0..n {
        for &s in graph.successors(t) {
            preds[s as usize].push(t as u32);
        }
    }
    let home = |t: usize| {
        let (i, j) = graph.tasks()[t].affinity_tile();
        layout.owner(i, j)
    };
    let mut reexec: BTreeSet<u32> = BTreeSet::new();
    let mut stack: Vec<u32> = (0..n as u32)
        .filter(|&t| !done_at_crash(t as usize) && home(t as usize) == crashed)
        .collect();
    while let Some(t) = stack.pop() {
        for &p in &preds[t as usize] {
            if done_at_crash(p as usize)
                && first[p as usize].unwrap().worker as usize / cores == crashed
                && reexec.insert(p)
            {
                stack.push(p); // p re-runs, so its own inputs are needed again
            }
        }
    }
    reexec
}

#[test]
fn lineage_recovery_reexecutes_exactly_the_needed_lost_producers() {
    let (mt, nt, b) = (10, 5, 128);
    let graph = TaskGraph::build(mt, nt, b, &binary_elims(mt, nt));
    let platform = Platform { nodes: 4, cores_per_node: 1, ..Platform::edel() };
    let layout = Layout::cyclic_rows(platform.nodes);
    let baseline = simulate(&graph, &layout, &platform).makespan;

    let crashed = 1;
    let crash_at = 0.47 * baseline;
    let plan = FaultPlan::default().crash_node(crashed, crash_at);
    let report = traced(&graph, &layout, &platform, &plan).unwrap();
    let overhead = report.overhead.clone().expect("faulty run carries overhead");
    let timeline = report.timeline.as_ref().expect("traced run carries timeline");

    // Observed re-executions: tasks with more than one record (records
    // are only kept for completions that were not invalidated).
    let mut span_count = vec![0usize; graph.tasks().len()];
    for s in &timeline.records {
        span_count[s.task as usize] += 1;
    }
    let observed: BTreeSet<u32> =
        span_count.iter().enumerate().filter(|&(_, &c)| c > 1).map(|(t, _)| t as u32).collect();

    let cores = platform.cores_per_node;
    let expected =
        expected_reexecution_set(&graph, &layout, &timeline.records, cores, crashed, crash_at);
    assert!(!expected.is_empty(), "a mid-run crash must lose some finished work");
    assert_eq!(
        observed, expected,
        "re-executed set must equal exactly the lost producers still needed"
    );
    assert_eq!(
        overhead.reexecuted_tasks,
        expected.len(),
        "FaultOverhead.reexecuted_tasks must count the lineage closure"
    );
    assert_eq!(overhead.nodes_lost, 1);
    // Restaging traffic is drawn on both NIC lanes in its own category.
    let json = hqr_runtime::chrome_trace_from_exec(timeline, graph.tasks());
    assert!(overhead.resent_messages > 0);
    assert_eq!(json.matches("\"comm-recovery\"").count(), 2 * overhead.resent_messages);

    // Every re-executed task's original run was on the crashed node and
    // finished before the crash.
    for &t in &expected {
        let mut runs: Vec<&TaskRecord> = timeline.records.iter().filter(|s| s.task == t).collect();
        runs.sort_by(|a, b| a.start.total_cmp(&b.start));
        assert_eq!(runs[0].worker as usize / cores, crashed);
        assert!(runs[0].end <= crash_at + 1e-12);
        // The re-run lands on a survivor, after the crash.
        assert_ne!(runs[1].worker as usize / cores, crashed);
        assert!(runs[1].start >= crash_at - 1e-12);
    }
}

#[test]
fn fault_overhead_components_account_for_the_makespan_delta() {
    let (mt, nt, b) = (8, 4, 128);
    let graph = TaskGraph::build(mt, nt, b, &binary_elims(mt, nt));
    let platform = Platform { nodes: 4, cores_per_node: 1, ..Platform::edel() };
    let layout = Layout::cyclic_rows(platform.nodes);
    let baseline = simulate(&graph, &layout, &platform).makespan;
    let plan = FaultPlan::default().crash_node(2, 0.53 * baseline);
    let report = traced(&graph, &layout, &platform, &plan).unwrap();
    let overhead = report.overhead.clone().unwrap();
    let timeline = report.timeline.as_ref().unwrap();

    assert!(report.makespan - baseline >= -1e-9, "faults cannot speed the run up");

    // Work conservation: total recorded busy time equals one run of every
    // task plus one extra run per re-executed task — nothing else is
    // (re)computed.  Records are only kept for completions that stuck,
    // so aborted attempts do not enter the sum.
    let dur = |t: u32| {
        let task = &graph.tasks()[t as usize];
        platform.kernel_seconds(task.kind, b)
    };
    let recorded: f64 = timeline.records.iter().map(|s| s.end - s.start).sum();
    let one_run_each: f64 = (0..graph.tasks().len() as u32).map(dur).sum();
    let mut span_count = vec![0usize; graph.tasks().len()];
    for s in &timeline.records {
        span_count[s.task as usize] += 1;
    }
    let reexec_extra: f64 = span_count
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 1)
        .map(|(t, &c)| (c - 1) as f64 * dur(t as u32))
        .sum();
    assert!(
        (recorded - one_run_each - reexec_extra).abs() <= 1e-9 * recorded.max(1.0),
        "recorded work {recorded} must equal {one_run_each} + reexecution surplus {reexec_extra}"
    );
    let reexec_count: usize = span_count.iter().filter(|&&c| c > 1).count();
    assert_eq!(reexec_count, overhead.reexecuted_tasks);
}

#[test]
fn crash_free_fault_plan_has_zero_overhead_components() {
    let (mt, nt, b) = (6, 3, 128);
    let graph = TaskGraph::build(mt, nt, b, &binary_elims(mt, nt));
    let platform = Platform { nodes: 3, cores_per_node: 2, ..Platform::edel() };
    let layout = Layout::cyclic_rows(platform.nodes);
    // A degrade-only plan loses no data: nothing may be re-executed.
    let plan = FaultPlan::default().degrade_link(0.1, 0.5, 2.0);
    let report = traced(&graph, &layout, &platform, &plan).unwrap();
    let overhead = report.overhead.clone().unwrap();
    assert_eq!(overhead.reexecuted_tasks, 0);
    assert_eq!(overhead.aborted_tasks, 0);
    assert_eq!(overhead.nodes_lost, 0);
    let timeline = report.timeline.as_ref().unwrap();
    let mut seen = vec![0usize; graph.tasks().len()];
    for s in &timeline.records {
        seen[s.task as usize] += 1;
    }
    assert!(seen.iter().all(|&c| c == 1), "every task runs exactly once");
}
