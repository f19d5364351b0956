//! Regression test: the engine's panic-hook suppression is scoped to its
//! own worker threads. A process-wide counter (the old implementation)
//! would swallow panics from *unrelated* threads — e.g. concurrent tests —
//! for as long as any fault-tolerant run was in flight.
//!
//! Kept as its own integration-test binary so the process-wide panic hook
//! installed here cannot interact with any other test.

mod support;

use std::panic::catch_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use hqr_runtime::{ExecError, ExecOptions, FaultPlan, TaskGraph};
use support::flat_elims;

static HOOK_CALLS: AtomicUsize = AtomicUsize::new(0);

#[test]
fn non_engine_panic_still_reaches_hook_during_recovery_run() {
    // Install a counting hook BEFORE the engine ever engages its quiet
    // wrapper; the wrapper (installed once, by the first worker) captures
    // whatever hook is current as `prev`, so every non-suppressed panic
    // lands here. The hook deliberately prints nothing.
    std::panic::set_hook(Box::new(|_info| {
        HOOK_CALLS.fetch_add(1, Ordering::SeqCst);
    }));

    let (mt, nt, b) = (5, 2, 2);
    let graph = TaskGraph::build(mt, nt, b, &flat_elims(mt, nt));
    let last = graph.tasks().len() as u32 - 1;
    // The plan injects panics on worker threads (they must stay silent)
    // and drops one completion so the run reliably stays in flight until
    // the watchdog fires — a guaranteed window for the probe below.
    let opts = ExecOptions {
        nthreads: 2,
        max_retries: 2,
        plan: Some(FaultPlan::new(3).fail_task(0, 1).lose_completion(last)),
        watchdog: Some(Duration::from_millis(500)),
        ..Default::default()
    };

    let runner = std::thread::spawn(move || {
        let mut a = hqr_tile::TiledMatrix::random(mt, nt, b, 41);
        hqr_runtime::try_execute_with(&graph, &mut a, &opts).map(|(_, stats)| stats)
    });

    // Probe: panic on a thread that is NOT an engine worker while the run
    // is guaranteed in flight. With thread-scoped suppression the hook
    // fires; with the old global counter it was swallowed.
    std::thread::sleep(Duration::from_millis(100));
    let probe = std::thread::spawn(|| {
        let _ = catch_unwind(|| panic!("unrelated panic on a non-engine thread"));
    });
    probe.join().unwrap();
    assert_eq!(
        HOOK_CALLS.load(Ordering::SeqCst),
        1,
        "exactly the non-engine panic reaches the hook; injected worker panics stay quiet"
    );

    // The run itself ends in the watchdog's stall report (the dropped
    // completion means it can never finish), with the injected fault
    // having been caught and retried silently.
    match runner.join().unwrap() {
        Err(ExecError::Stalled(report)) => {
            assert!(report.remaining > 0);
        }
        other => panic!("expected a stall, got {other:?}"),
    }
    assert_eq!(HOOK_CALLS.load(Ordering::SeqCst), 1, "no late hook calls from engine threads");
}
