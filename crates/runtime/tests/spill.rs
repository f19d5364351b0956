//! Out-of-core execution tests: the two-tier store must stay safe under
//! pin pressure and refaults. (That a paged run, and a paged job's
//! suspend → resume, is bitwise-identical to a resident one is checked on
//! every case of the root package's `tests/oracle.rs`.)

mod support;

use std::path::PathBuf;

use hqr_runtime::{try_execute_traced, try_execute_with, ExecOptions, InstantKind, TaskGraph};
use hqr_tile::TiledMatrix;
use support::{binary_elims, flat_elims};

fn matrix_bytes(mt: usize, nt: usize, b: usize) -> u64 {
    (mt * nt * b * b * std::mem::size_of::<f64>()) as u64
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hqr_spill_{name}_{}", std::process::id()))
}

/// A resident tier smaller than one task's pinned read/write set must
/// still complete: pinned slots are never evicted, the budget stretches
/// for the duration of the pin, and the factors stay exact. This is the
/// eviction-under-pin safety gate — with a one-tile budget every TSMQR
/// holds several pins at once.
#[test]
fn one_tile_budget_is_safe_under_multi_tile_pins() {
    let (mt, nt, b) = (5, 4, 8);
    let elims = flat_elims(mt, nt);
    let graph = TaskGraph::build(mt, nt, b, &elims);
    let a0 = TiledMatrix::random(mt, nt, b, 99);

    let mut a_ref = a0.clone();
    let (f_ref, _) = try_execute_with(&graph, &mut a_ref, &ExecOptions::with_threads(2)).unwrap();

    let tile = (b * b * std::mem::size_of::<f64>()) as u64;
    let mut a = a0.clone();
    let opts = ExecOptions { nthreads: 2, resident_budget: Some(tile), ..Default::default() };
    let (f, _, trace) = try_execute_traced(&graph, &mut a, &opts).expect("one-tile budget run");
    assert!(f.bitwise_eq(&f_ref), "one-tile-budget factors differ");
    let spill = trace.spill.expect("paged run reports spill summary");
    assert!(spill.writebacks > 0, "dirty evictions must write back: {spill:?}");
}

/// On a paged run a task's busy span is its pin wait (`start..kernel_start`)
/// then its kernel (`kernel_start..end`): the kernel seconds per kind and
/// the pin waits add up to the workers' busy time, and neither holds the
/// other.
#[test]
fn paged_kernel_seconds_leave_out_pin_waits() {
    let (mt, nt, b) = (6, 4, 8);
    let graph = TaskGraph::build(mt, nt, b, &binary_elims(mt, nt));
    let mut a = TiledMatrix::random(mt, nt, b, 17);
    let budget = 2 * (b * b * std::mem::size_of::<f64>()) as u64;
    let opts = ExecOptions { nthreads: 2, resident_budget: Some(budget), ..Default::default() };
    let (_, _, trace) = try_execute_traced(&graph, &mut a, &opts).expect("paged run");
    assert!(trace.spill.is_some(), "the run paged");
    let kernel: f64 = trace.kernel_seconds(graph.tasks()).iter().sum();
    let pin: f64 = trace.records.iter().map(|r| r.kernel_start - r.start).sum();
    let busy: f64 = trace.per_worker_busy().iter().sum();
    assert!(pin > 0.0, "a paged run waits on its pins");
    assert!((kernel + pin - busy).abs() <= 1e-9 * busy.max(1.0), "{kernel} + {pin} != {busy}");
}

/// Refault-after-spill: with a tiny budget, tiles written back to disk
/// are re-read later in the same run. Every re-read passes the per-record
/// checksum (a corrupt record fails the run), demand faults show up both
/// in the summary and as trace instants, and the per-worker fault
/// counters agree with the store's totals.
#[test]
fn refaulted_tiles_verify_checksums_and_count_faults() {
    let (mt, nt, b) = (6, 4, 8);
    let elims = binary_elims(mt, nt);
    let graph = TaskGraph::build(mt, nt, b, &elims);
    let mut a = TiledMatrix::random(mt, nt, b, 7);

    let opts = ExecOptions {
        nthreads: 2,
        resident_budget: Some(2 * (b * b * std::mem::size_of::<f64>()) as u64),
        spill_dir: Some(tmp("refault")),
        ..Default::default()
    };
    let (_, _, trace) = try_execute_traced(&graph, &mut a, &opts).expect("paged run");
    let spill = trace.spill.expect("spill summary");
    assert!(
        spill.demand_faults + spill.prefetch_hits > 0,
        "a two-tile budget must refault spilled tiles: {spill:?}"
    );
    let worker_faults: u64 = trace.counters.iter().map(|c| c.tile_faults).sum();
    let worker_hits: u64 = trace.counters.iter().map(|c| c.prefetch_hits).sum();
    assert_eq!(worker_faults, spill.demand_faults, "per-worker faults match summary");
    assert_eq!(worker_hits, spill.prefetch_hits, "per-worker prefetch hits match summary");
    // One TileFaulted instant marks each task attempt that faulted at
    // least once, so the instant count is positive but bounded by the
    // per-tile fault total.
    let faulted =
        trace.instants.iter().filter(|i| i.kind == InstantKind::TileFaulted).count() as u64;
    assert!(faulted > 0, "faulting run must emit TileFaulted instants");
    assert!(faulted <= spill.demand_faults, "instants are per-attempt, faults per-tile");
    let _ = std::fs::remove_dir_all(tmp("refault"));
}

/// The pin pass is split out of a task's span: `kernel_start` marks where
/// waiting on the storage tier ended and the kernel began. Resident runs
/// have no pin pass (`kernel_start == start`, and the Chrome trace draws no
/// pin slice); paged runs spend measurable time there, drawn as a `spill`
/// slice before the kernel's.
#[test]
fn trace_separates_the_pin_pass_from_the_kernel() {
    let (mt, nt, b) = (6, 4, 8);
    let graph = TaskGraph::build(mt, nt, b, &binary_elims(mt, nt));
    let a0 = TiledMatrix::random(mt, nt, b, 3);
    let budget = matrix_bytes(mt, nt, b) / 4;
    for resident_budget in [None, Some(budget)] {
        let opts = ExecOptions { nthreads: 2, resident_budget, ..Default::default() };
        let (_, _, trace) = try_execute_traced(&graph, &mut a0.clone(), &opts).expect("run");
        assert_eq!(trace.records.len(), graph.tasks().len());
        for r in &trace.records {
            assert!(r.start <= r.kernel_start && r.kernel_start <= r.end, "{r:?}");
        }
        let pin: f64 = trace.records.iter().map(|r| r.kernel_start - r.start).sum();
        let json = hqr_runtime::chrome_trace_from_exec(&trace, graph.tasks());
        hqr_runtime::validate_chrome_trace(&json).expect("valid Chrome trace");
        let pin_slices = json.matches("\"name\":\"pin ").count();
        match resident_budget {
            None => assert!(pin == 0.0 && pin_slices == 0, "resident run has no pin pass"),
            Some(_) => {
                let pinned = trace.records.iter().filter(|r| r.kernel_start > r.start).count();
                assert!(pin > 0.0 && pinned > 0, "a paged run spends time pinning");
                assert_eq!(pin_slices, pinned, "one pin slice per task that waited");
            }
        }
    }
}

/// A budget at or above the allocated footprint never pages: the engine
/// must fall back to the plain resident store and report no spill
/// summary.
#[test]
fn generous_budget_stays_resident() {
    let (mt, nt, b) = (4, 3, 8);
    let elims = flat_elims(mt, nt);
    let graph = TaskGraph::build(mt, nt, b, &elims);
    let mut a = TiledMatrix::random(mt, nt, b, 1);
    let opts = ExecOptions { nthreads: 2, resident_budget: Some(u64::MAX), ..Default::default() };
    let (_, _, trace) = try_execute_traced(&graph, &mut a, &opts).expect("run");
    assert!(trace.spill.is_none(), "generous budget must not page");
}
