//! Multi-job pool integration tests: per-job robustness policy (fault
//! injection, retry, deadlines, QoS shedding, drain/resume) must affect
//! only the job it belongs to. (That jobs racing on one pool under every
//! policy are bitwise-identical to their solo runs is checked by the root
//! package's `tests/oracle.rs`.)

mod support;

use std::path::PathBuf;
use std::time::Duration;

use hqr_runtime::{
    execute_serial_ib, Checkpoint, DurabilityConfig, ElimOp, FaultPlan, IntegrityMode, JobInput,
    JobPool, JobSpec, JobState, Journal, JournalEvent, PoolConfig, QosClass, SchedPolicy, SdcFault,
    SdcPattern, SubmitError, TFactors, TaskGraph, JOURNAL_FILE,
};
use hqr_tile::TiledMatrix;
use support::{binary_elims, flat_elims};

/// The solo reference: factor `a0` serially with the same elimination list
/// and inner block size the pool job uses.
fn solo(elims: &[ElimOp], a0: &TiledMatrix, ib: usize) -> (TiledMatrix, TFactors) {
    let graph = TaskGraph::try_build(a0.mt(), a0.nt(), a0.b(), elims).expect("valid elims");
    let mut a = a0.clone();
    let f = execute_serial_ib(&graph, &mut a, ib);
    (a, f)
}

fn assert_bitwise(
    label: &str,
    got_a: &TiledMatrix,
    got_f: &TFactors,
    elims: &[ElimOp],
    a0: &TiledMatrix,
    ib: usize,
) {
    let (ref_a, ref_f) = solo(elims, a0, ib);
    assert_eq!(
        got_a.to_dense().data(),
        ref_a.to_dense().data(),
        "{label}: factored matrix differs from solo run"
    );
    assert!(got_f.bitwise_eq(&ref_f), "{label}: factor buffers differ from solo run");
}

/// A fresh state directory (names are pid-derived and pids recycle).
fn state_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hqr_pool_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Block until `id` is admitted and running (bounded by a generous
/// timeout so a broken pool fails the test instead of hanging it).
fn wait_until_running(pool: &JobPool, id: hqr_runtime::JobId) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let v = pool.status(id).expect("known job");
        if v.state == JobState::Running {
            return;
        }
        assert!(!v.state.is_terminal(), "job reached {} before running", v.state);
        assert!(std::time::Instant::now() < deadline, "job never started running");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Injected failures a [`spinner`] cannot get through before its test
/// cancels it: at a microsecond or more per retry, hours of work. A finite
/// count would be a time budget, and a loaded host can spend it before the
/// test has made its assertions about the job being resident.
const UNTIL_CANCELLED: u32 = u32::MAX - 1;

/// A job spec whose first task keeps panicking for `attempts` injected
/// faults before succeeding: a deterministic way to keep a job resident on
/// the pool long enough for cancel/shed/admission assertions, without any
/// sleeps in the test.
fn spinner(seed: u64, attempts: u32) -> (Vec<ElimOp>, TiledMatrix, JobSpec) {
    let elims = flat_elims(2, 2);
    let a = TiledMatrix::random(2, 2, 4, seed);
    let mut spec = JobSpec::fresh(elims.clone(), a.clone());
    spec.plan = Some(FaultPlan::new(seed).fail_task(0, attempts));
    spec.max_retries = attempts + 1;
    (elims, a, spec)
}

#[test]
fn fault_injection_is_job_isolated() {
    let pool = JobPool::new(PoolConfig { nthreads: 4, ..Default::default() });
    // Job A: three injected task failures, healed by per-task retry.
    let elims_a = flat_elims(5, 4);
    let a0 = TiledMatrix::random(5, 4, 8, 31);
    let mut spec_a = JobSpec::fresh(elims_a.clone(), a0.clone());
    spec_a.plan = Some(FaultPlan::new(7).fail_task(0, 1).fail_task(3, 2));
    spec_a.max_retries = 3;
    // Job B: an SDC strike, detected and recomputed under Spot integrity.
    let elims_b = binary_elims(6, 4);
    let b0 = TiledMatrix::random(6, 4, 8, 32);
    let mut spec_b = JobSpec::fresh(elims_b.clone(), b0.clone());
    spec_b.plan = Some(
        FaultPlan::new(8)
            .corrupt_task(1, SdcFault { slot: 0, element: 3, pattern: SdcPattern::Scale }),
    );
    spec_b.integrity = IntegrityMode::Spot;
    spec_b.max_retries = 2;
    // Job C: completely clean, racing both faulty neighbors.
    let elims_c = flat_elims(4, 4);
    let c0 = TiledMatrix::random(4, 4, 8, 33);
    let spec_c = JobSpec::fresh(elims_c.clone(), c0.clone());

    let ia = pool.submit(spec_a).expect("submit a");
    let ib = pool.submit(spec_b).expect("submit b");
    let ic = pool.submit(spec_c).expect("submit c");

    let oa = pool.wait(ia).expect("a");
    assert_eq!(oa.state, JobState::Completed, "{:?}", oa.error);
    assert!(oa.stats.panics_caught >= 3, "injected failures must be observed: {:?}", oa.stats);
    let ra = oa.result.unwrap();
    assert_bitwise("faulty job A", &ra.a, &ra.factors, &elims_a, &a0, a0.b());

    let ob = pool.wait(ib).expect("b");
    assert_eq!(ob.state, JobState::Completed, "{:?}", ob.error);
    assert!(ob.stats.sdc_detected >= 1, "SDC must be detected: {:?}", ob.stats);
    let rb = ob.result.unwrap();
    assert_bitwise("SDC job B", &rb.a, &rb.factors, &elims_b, &b0, b0.b());

    let oc = pool.wait(ic).expect("c");
    assert_eq!(oc.state, JobState::Completed, "{:?}", oc.error);
    assert_eq!(oc.stats, Default::default(), "clean job must see zero fault events");
    let rc = oc.result.unwrap();
    assert_bitwise("clean job C", &rc.a, &rc.factors, &elims_c, &c0, c0.b());
    pool.shutdown();
}

/// The acceptance-criteria scenario: ≥ 8 concurrent jobs with mixed QoS,
/// integrity modes, scheduling policies, inner block sizes, shapes, and
/// fault plans, all multiplexed on one pool, each bitwise-identical to its
/// solo run.
#[test]
fn eight_mixed_jobs_complete_bitwise() {
    let pool = JobPool::new(PoolConfig { nthreads: 4, ..Default::default() });
    struct Case {
        elims: Vec<ElimOp>,
        a0: TiledMatrix,
        ib: usize,
        spec_ib: Option<usize>,
        qos: QosClass,
        policy: SchedPolicy,
        integrity: IntegrityMode,
        plan: Option<FaultPlan>,
        max_retries: u32,
    }
    let mk = |elims: Vec<ElimOp>, a0: TiledMatrix| Case {
        elims,
        a0,
        ib: 8,
        spec_ib: None,
        qos: QosClass::Normal,
        policy: SchedPolicy::Fifo,
        integrity: IntegrityMode::Off,
        plan: None,
        max_retries: 0,
    };
    let mut cases = vec![
        mk(flat_elims(4, 3), TiledMatrix::random(4, 3, 8, 101)),
        mk(binary_elims(5, 4), TiledMatrix::random(5, 4, 8, 102)),
        mk(flat_elims(6, 4), TiledMatrix::random(6, 4, 8, 103)),
        mk(binary_elims(4, 4), TiledMatrix::random(4, 4, 8, 104)),
        mk(flat_elims(5, 5), TiledMatrix::random(5, 5, 8, 105)),
        mk(binary_elims(6, 3), TiledMatrix::random(6, 3, 8, 106)),
        mk(flat_elims(3, 3), TiledMatrix::random(3, 3, 8, 107)),
        mk(binary_elims(5, 3), TiledMatrix::random(5, 3, 8, 108)),
        mk(flat_elims(4, 4), TiledMatrix::random(4, 4, 8, 109)),
    ];
    cases[0].qos = QosClass::Interactive;
    cases[1].qos = QosClass::Batch;
    cases[2].policy = SchedPolicy::PanelFirst;
    cases[3].policy = SchedPolicy::CriticalPath;
    cases[4].integrity = IntegrityMode::Spot;
    cases[5].integrity = IntegrityMode::Full;
    cases[6].ib = 4;
    cases[6].spec_ib = Some(4);
    cases[7].plan = Some(FaultPlan::new(42).fail_task(2, 2));
    cases[7].max_retries = 2;
    cases[8].qos = QosClass::Interactive;
    cases[8].policy = SchedPolicy::CriticalPath;
    cases[8].integrity = IntegrityMode::Full;

    let ids: Vec<_> = cases
        .iter()
        .map(|c| {
            let mut spec = JobSpec::fresh(c.elims.clone(), c.a0.clone());
            spec.ib = c.spec_ib;
            spec.qos = c.qos;
            spec.policy = c.policy;
            spec.integrity = c.integrity;
            spec.plan = c.plan.clone();
            spec.max_retries = c.max_retries;
            spec.tag = format!("case-{}", c.a0.mt());
            pool.submit(spec).expect("submit")
        })
        .collect();
    assert!(ids.len() >= 8);
    for (id, c) in ids.into_iter().zip(&cases) {
        let out = pool.wait(id).expect("known job");
        assert_eq!(out.state, JobState::Completed, "case seed: {:?}", out.error);
        let r = out.result.expect("payload");
        assert_bitwise("mixed case", &r.a, &r.factors, &c.elims, &c.a0, c.ib);
    }
    pool.shutdown();
}

#[test]
fn deadline_miss_retries_then_quarantines_while_others_complete() {
    let pool = JobPool::new(PoolConfig {
        nthreads: 2,
        backoff_base: Duration::from_millis(1),
        ..Default::default()
    });
    // The doomed job: a deadline no real factorization can meet, one
    // job-level retry. Expected path: deadline → backoff → deadline →
    // quarantine.
    let (_, _, mut doomed) = spinner(61, 20_000);
    doomed.deadline = Some(Duration::from_millis(1));
    doomed.job_retries = 1;
    let id_doomed = pool.submit(doomed).expect("submit doomed");
    // The bystander races it on the same workers and must be unaffected.
    let elims = flat_elims(5, 4);
    let a0 = TiledMatrix::random(5, 4, 8, 62);
    let id_ok = pool.submit(JobSpec::fresh(elims.clone(), a0.clone())).expect("submit ok");

    let out = pool.wait(id_doomed).expect("doomed");
    assert_eq!(out.state, JobState::Quarantined, "{:?}", out.error);
    assert_eq!(out.attempts, 2, "initial run plus one job-level retry");
    let err = out.error.expect("quarantine records the last error");
    assert!(err.contains("deadline"), "error should name the deadline: {err}");

    let ok = pool.wait(id_ok).expect("ok");
    assert_eq!(ok.state, JobState::Completed, "{:?}", ok.error);
    let r = ok.result.unwrap();
    assert_bitwise("bystander", &r.a, &r.factors, &elims, &a0, a0.b());
    pool.shutdown();
}

#[test]
fn task_failure_exhausts_retry_budget_then_job_quarantines() {
    let pool = JobPool::new(PoolConfig {
        nthreads: 2,
        backoff_base: Duration::from_millis(1),
        ..Default::default()
    });
    // Task 0 fails 10 attempts; per-task budget is 1 retry, so every
    // incarnation dies with TaskFailed; one job-level retry, then
    // quarantine.
    let elims = flat_elims(3, 3);
    let a0 = TiledMatrix::random(3, 3, 8, 71);
    let mut spec = JobSpec::fresh(elims, a0);
    spec.plan = Some(FaultPlan::new(5).fail_task(0, 10));
    spec.max_retries = 1;
    spec.job_retries = 1;
    let id = pool.submit(spec).expect("submit");
    let out = pool.wait(id).expect("job");
    assert_eq!(out.state, JobState::Quarantined, "{:?}", out.error);
    assert_eq!(out.attempts, 2);
    // Two incarnations × two attempts each.
    assert!(out.stats.panics_caught >= 4, "{:?}", out.stats);
    let err = out.error.expect("error recorded");
    assert!(err.contains("task 0"), "{err}");
    pool.shutdown();
}

#[test]
fn cancel_running_and_queued_jobs() {
    let pool = JobPool::new(PoolConfig { nthreads: 1, max_active: 1, ..Default::default() });
    // Occupy the single active slot with a deterministic long-runner.
    let (_, _, busy) = spinner(81, UNTIL_CANCELLED);
    let id_busy = pool.submit(busy).expect("submit busy");
    // This one stays queued behind max_active = 1.
    let id_queued = pool
        .submit(JobSpec::fresh(flat_elims(3, 3), TiledMatrix::random(3, 3, 8, 82)))
        .expect("submit queued");

    assert!(pool.cancel(id_queued), "queued job accepts cancellation");
    let oq = pool.wait(id_queued).expect("queued");
    assert_eq!(oq.state, JobState::Cancelled);

    assert!(pool.cancel(id_busy), "running job accepts cancellation");
    let ob = pool.wait(id_busy).expect("busy");
    assert_eq!(ob.state, JobState::Cancelled, "{:?}", ob.error);

    assert!(!pool.cancel(id_busy), "terminal jobs reject cancellation");
    assert!(!pool.cancel(hqr_runtime::JobId(9999)), "unknown ids reject cancellation");
    pool.shutdown();
}

#[test]
fn admission_rejects_overbudget_sheds_lowest_qos_and_applies_backpressure() {
    let pool = JobPool::new(PoolConfig {
        nthreads: 1,
        max_active: 1,
        queue_cap: 1,
        mem_budget: 1 << 20,
        ..Default::default()
    });
    // A job whose working set alone exceeds the 1 MiB budget: typed reject.
    let big = JobSpec::fresh(flat_elims(8, 8), TiledMatrix::random(8, 8, 64, 90));
    match pool.submit(big) {
        Err(SubmitError::OverBudget { need, budget }) => {
            assert!(need > budget, "need {need} must exceed budget {budget}")
        }
        other => panic!("expected OverBudget, got {other:?}", other = other.map(|id| id.0)),
    }
    // Occupy the active slot so the queue fills. `busy` is interactive so
    // that no arrival outranks it: preempting it would let the interactive
    // job below run and finish, and bring `busy` back from its checkpoint,
    // leaving the queue empty for the second batch arrival.
    let (_, _, mut busy) = spinner(91, UNTIL_CANCELLED);
    busy.qos = QosClass::Interactive;
    let id_busy = pool.submit(busy).expect("submit busy");
    wait_until_running(&pool, id_busy);
    // Queue a batch job (fills the cap-1 queue).
    let id_batch = {
        let mut s = JobSpec::fresh(flat_elims(3, 3), TiledMatrix::random(3, 3, 8, 92));
        s.qos = QosClass::Batch;
        pool.submit(s).expect("submit batch")
    };
    // An interactive arrival sheds the queued batch job.
    let (elims_i, a_i) = (flat_elims(4, 3), TiledMatrix::random(4, 3, 8, 93));
    let id_inter = {
        let mut s = JobSpec::fresh(elims_i.clone(), a_i.clone());
        s.qos = QosClass::Interactive;
        pool.submit(s).expect("interactive submission sheds the batch job")
    };
    let shed = pool.wait(id_batch).expect("batch");
    assert_eq!(shed.state, JobState::Shed);
    // A second batch arrival outranks nothing in the full queue: backpressure.
    let mut again = JobSpec::fresh(flat_elims(3, 3), TiledMatrix::random(3, 3, 8, 94));
    again.qos = QosClass::Batch;
    match pool.submit(again) {
        Err(SubmitError::QueueFull { cap }) => assert_eq!(cap, 1),
        other => panic!("expected QueueFull, got {other:?}", other = other.map(|id| id.0)),
    }
    // Free the slot; the surviving interactive job must complete cleanly.
    assert!(pool.cancel(id_busy));
    let oi = pool.wait(id_inter).expect("interactive");
    assert_eq!(oi.state, JobState::Completed, "{:?}", oi.error);
    let r = oi.result.unwrap();
    assert_bitwise("interactive survivor", &r.a, &r.factors, &elims_i, &a_i, a_i.b());
    pool.shutdown();
}

/// A job stalled on injected retries of its first task (so a drain lands
/// while it is provably incomplete) plus two jobs queued behind it on a
/// one-slot pool: `(elims, input)` per job and the ids, active job first.
type DrainCase = (Vec<(Vec<ElimOp>, TiledMatrix)>, Vec<hqr_runtime::JobId>);

fn one_running_two_queued(pool: &JobPool) -> DrainCase {
    let cases = vec![
        (flat_elims(5, 4), TiledMatrix::random(5, 4, 8, 201)),
        (binary_elims(4, 4), TiledMatrix::random(4, 4, 8, 202)),
        (flat_elims(4, 3), TiledMatrix::random(4, 3, 8, 203)),
    ];
    let mut ids = Vec::new();
    for (i, (elims, a)) in cases.iter().enumerate() {
        let mut spec = JobSpec::fresh(elims.clone(), a.clone());
        if i == 0 {
            spec.plan = Some(FaultPlan::new(3).fail_task(0, 50_000));
            spec.max_retries = 60_000;
        }
        ids.push(pool.submit(spec).expect("submit"));
        if i == 0 {
            wait_until_running(pool, ids[0]);
        }
    }
    (cases, ids)
}

/// Graceful drain is the polite special case of crash recovery: in-flight
/// work is checkpointed at a quiescent point, queued work stays journaled
/// as accepted, and a second pool over the same state directory finishes
/// every accepted job through the ordinary `recover()` — bitwise-identical
/// to its solo run, whether the drained pool was shut down or just dropped.
#[test]
fn drain_then_recover_resumes_bitwise() {
    for polite in [true, false] {
        let dir = state_dir("drain_recover");
        let durable = |max_active| {
            JobPool::new(PoolConfig {
                nthreads: 2,
                max_active,
                durability: Some(DurabilityConfig::at(&dir)),
                ..Default::default()
            })
        };
        let pool = durable(1);
        let (cases, ids) = one_running_two_queued(&pool);

        let report = pool.drain(Duration::from_millis(5));
        assert_eq!(report.persisted, 3, "one suspended + two queued jobs stay journaled");
        assert_eq!(report.suspended, vec![ids[0]], "the active job was suspended");
        assert_eq!(pool.wait(ids[0]).expect("active").state, JobState::Suspended);
        for id in &ids[1..] {
            assert_eq!(pool.status(*id).expect("known").state, JobState::Queued);
        }
        assert!(
            pool.submit(JobSpec::fresh(flat_elims(2, 2), TiledMatrix::random(2, 2, 4, 1))).is_err(),
            "draining pool refuses new work"
        );
        if polite {
            pool.shutdown();
        }
        drop(pool);
        // The hazard: a drained pool's queue must not be journaled away.
        let events = Journal::read(&dir.join(JOURNAL_FILE)).expect("journal");
        let ended = |e: &&JournalEvent| {
            matches!(e, JournalEvent::Shed { .. } | JournalEvent::Cancelled { .. })
        };
        assert_eq!(events.iter().find(ended), None, "polite={polite}");

        let pool2 = durable(0);
        let r = pool2.recover().expect("recover");
        assert_eq!(
            (r.total, r.resumed_from_checkpoint, r.restarted_fresh, r.unrecoverable),
            (3, 1, 2, 0),
            "polite={polite}: exactly the suspended job resumes from a checkpoint"
        );
        for (id, (elims, a0)) in ids.iter().zip(&cases) {
            let out = pool2.wait(*id).expect("recovered under its original id");
            assert_eq!(out.state, JobState::Completed, "{:?}", out.error);
            let res = out.result.expect("payload");
            assert_bitwise(&format!("recovered {id}"), &res.a, &res.factors, elims, a0, a0.b());
        }
        pool2.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Without a journal a drain parks the straggler in memory like
/// `hqr suspend`: reported, `Suspended`, and still the pool's to hand back.
#[test]
fn drain_on_a_volatile_pool_parks_in_memory() {
    let pool = JobPool::new(PoolConfig { nthreads: 2, max_active: 1, ..Default::default() });
    let (_, ids) = one_running_two_queued(&pool);
    let report = pool.drain(Duration::from_millis(5));
    assert_eq!(report.suspended, vec![ids[0]]);
    assert_eq!(report.persisted, 0, "no journal, nothing for a restart to resubmit");
    assert_eq!(pool.status(ids[0]).expect("known").state, JobState::Suspended);
    for id in &ids[1..] {
        assert_eq!(pool.status(*id).expect("known").state, JobState::Queued);
    }
    // Nothing was dropped: the parked job's checkpoint is still there to
    // re-queue, and shutting the drained pool down sheds none of them.
    assert!(pool.resume_job(ids[0]), "the suspended job is parked, not gone");
    pool.shutdown();
    for id in &ids {
        assert_eq!(pool.status(*id).expect("known").state, JobState::Queued);
    }
}

#[test]
fn spec_wire_roundtrip_preserves_policy_and_payload() {
    let elims = binary_elims(4, 3);
    let a0 = TiledMatrix::random(4, 3, 8, 301);
    let mut spec = JobSpec::fresh(elims.clone(), a0.clone());
    spec.ib = Some(4);
    spec.qos = QosClass::Interactive;
    spec.policy = SchedPolicy::CriticalPath;
    spec.integrity = IntegrityMode::Full;
    spec.max_retries = 3;
    spec.job_retries = 2;
    spec.deadline = Some(Duration::from_millis(1500));
    spec.tag = "tenant-42".into();

    let back = JobSpec::from_bytes(spec.to_bytes()).expect("roundtrip");
    assert_eq!(back.ib, Some(4));
    assert_eq!(back.qos, QosClass::Interactive);
    assert_eq!(back.policy, SchedPolicy::CriticalPath);
    assert_eq!(back.integrity, IntegrityMode::Full);
    assert_eq!(back.max_retries, 3);
    assert_eq!(back.job_retries, 2);
    assert_eq!(back.deadline, Some(Duration::from_millis(1500)));
    assert_eq!(back.tag, "tenant-42");
    match back.input {
        JobInput::Fresh { elims: e, a } => {
            assert_eq!(e, elims);
            assert_eq!(a.to_dense().data(), a0.to_dense().data());
        }
        JobInput::Resume(_) => panic!("fresh spec must decode as fresh"),
    }
}

/// The pool injects task failures and SDC strikes. Poisoned workers (their
/// indices belong to one engine run), lost completions (they would wedge
/// the progress accounting) and the simulator's and the coordinator's
/// kinds are refused at submission.
#[test]
fn pool_refuses_faults_it_cannot_inject() {
    let pool = JobPool::new(PoolConfig { nthreads: 1, ..Default::default() });
    let rows = [
        ("poison", FaultPlan::new(1).poison_worker(0)),
        ("lost completion", FaultPlan::new(1).lose_completion(0)),
        ("crash", FaultPlan::new(1).crash_node(0, 0.0)),
        ("degrade", FaultPlan::new(1).degrade_link(0.0, 0.5, 2.0)),
        ("drop", FaultPlan::new(1).drop_rpcs(0.5)),
        ("delay", FaultPlan::new(1).delay_rpcs(0.5, Duration::from_millis(1))),
    ];
    for (what, plan) in rows {
        let mut s = JobSpec::fresh(flat_elims(2, 2), TiledMatrix::random(2, 2, 4, 1));
        s.plan = Some(plan.fail_task(0, 1));
        match pool.submit(s) {
            Err(SubmitError::Invalid { message }) => {
                assert!(message.starts_with("the pool cannot inject"), "{what}: {message}")
            }
            other => panic!("{what}: expected Invalid, got {other:?}"),
        }
    }
    assert!(pool.jobs().is_empty(), "nothing was admitted");
    pool.shutdown();
}

#[test]
fn invalid_specs_are_rejected_with_typed_errors() {
    let pool = JobPool::new(PoolConfig { nthreads: 1, ..Default::default() });
    // Bad inner block size.
    let mut s = JobSpec::fresh(flat_elims(2, 2), TiledMatrix::random(2, 2, 4, 1));
    s.ib = Some(5);
    assert!(matches!(pool.submit(s), Err(SubmitError::Invalid { .. })));
    // Out-of-range victim row → graph rejection.
    let s = JobSpec::fresh(vec![ElimOp::new(0, 9, 0, true)], TiledMatrix::random(2, 2, 4, 1));
    assert!(matches!(pool.submit(s), Err(SubmitError::Invalid { .. })));
    pool.shutdown();
}

/// Hostile numerics stop at the door: a NaN or an infinity anywhere in a
/// fresh matrix or a resume checkpoint is a typed rejection naming the
/// first offending tile — nothing is factored, journaled or stored.
#[test]
fn non_finite_input_is_rejected_at_admission() {
    let pool = JobPool::new(PoolConfig { nthreads: 1, ..Default::default() });
    let (mt, nt, b) = (3, 2, 4);
    let elims = flat_elims(mt, nt);
    let graph = TaskGraph::try_build(mt, nt, b, &elims).expect("valid elims");
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut a = TiledMatrix::random(mt, nt, b, 5);
        a.tile_mut(2, 1)[5] = bad;
        a.tile_mut(2, 0)[0] = bad; // the first offender, row-major over tiles
        let none_done = vec![false; graph.tasks().len()];
        let factors = TFactors::allocate_for(&graph, b);
        let ckpt = Checkpoint::capture(&graph, elims.clone(), none_done, a.clone(), factors);
        for (what, spec) in
            [("matrix", JobSpec::fresh(elims.clone(), a)), ("checkpoint", JobSpec::resume(ckpt))]
        {
            match pool.submit(spec) {
                Err(SubmitError::Invalid { message }) => {
                    assert!(message.contains(what), "{message}");
                    assert!(message.contains("tile (2, 0)"), "{message}");
                }
                other => panic!("{what} holding {bad}: expected Invalid, got {other:?}"),
            }
        }
    }
    assert!(pool.jobs().is_empty(), "a rejected spec leaves no job behind");
    pool.shutdown();
}

/// A resume spec whose factor buffers do not cover the slots its graph
/// allocates is refused at the door, after a trip through the spec
/// encoding: admitted, it would hand a kernel a slot with no buffer behind
/// it. The checkpoint is a binary tree's carrying a flat tree's buffers —
/// the flat tree factors only each panel's diagonal tile, so its Vg/Tg
/// lack the rows the binary tree's GEQRTs write.
#[test]
fn a_resume_spec_missing_a_factor_buffer_is_invalid() {
    let (mt, nt, b) = (3, 2, 4);
    let graph = TaskGraph::try_build(mt, nt, b, &binary_elims(mt, nt)).expect("valid elims");
    let flat = TaskGraph::try_build(mt, nt, b, &flat_elims(mt, nt)).expect("valid elims");
    let (none_done, a) = (vec![false; graph.tasks().len()], TiledMatrix::random(mt, nt, b, 17));
    let foreign = TFactors::allocate_for(&flat, b);
    let ckpt = Checkpoint::capture(&graph, binary_elims(mt, nt), none_done, a, foreign);
    let spec = JobSpec::from_bytes(JobSpec::resume(ckpt).to_bytes()).expect("roundtrip");
    let pool = JobPool::new(PoolConfig { nthreads: 1, ..Default::default() });
    match pool.submit(spec) {
        Err(SubmitError::Invalid { message }) => {
            assert!(message.contains("factor buffers"), "{message}");
        }
        other => panic!("expected Invalid, got {other:?}"),
    }
    assert!(pool.jobs().is_empty(), "a rejected spec leaves no job behind");
    pool.shutdown();
}

/// The out-of-core admission fix: a matrix whose working set exceeds the
/// pool's memory budget was rejected `OverBudget` before; with a resident
/// budget configured the pool charges only the resident tier, admits the
/// job, pages it against a spill file, and still lands bitwise on the
/// solo answer.
#[test]
fn resident_budget_admits_previously_over_budget_job_bitwise() {
    let elims = flat_elims(4, 3);
    let a0 = TiledMatrix::random(4, 3, 8, 404);
    // Working set: 12 tiles + factor buffers at 512 B/tile — well over
    // 4 KiB, comfortably over a 2 KiB resident tier.
    let mem_budget = 4 * 1024;

    // Without a resident budget the submission bounces.
    let strict = JobPool::new(PoolConfig { nthreads: 2, mem_budget, ..Default::default() });
    match strict.submit(JobSpec::fresh(elims.clone(), a0.clone())) {
        Err(SubmitError::OverBudget { need, budget }) => {
            assert!(need > budget, "need {need} must exceed budget {budget}");
        }
        other => panic!("expected OverBudget, got {other:?}"),
    }
    strict.shutdown();

    // With one, the same job is admitted and completes exactly.
    let paged = JobPool::new(PoolConfig {
        nthreads: 2,
        mem_budget,
        resident_budget: Some(2 * 1024),
        ..Default::default()
    });
    let id = paged.submit(JobSpec::fresh(elims.clone(), a0.clone())).expect("admitted");
    let out = paged.wait(id).expect("wait");
    assert_eq!(out.state, JobState::Completed, "error: {:?}", out.error);
    let r = out.result.expect("payload");
    assert_bitwise("paged pool job", &r.a, &r.factors, &elims, &a0, a0.b());
    paged.shutdown();
}

#[test]
fn every_tiny_job_completes_under_closed_loop_load() {
    // Regression for two lost-update races between a submitter, the
    // supervisor and the workers, each about one tiny job in a thousand:
    // * `submit` queued the job before inserting its record, so a job the
    //   supervisor admitted, ran and finalized in between was recorded
    //   `Queued` for ever afterwards;
    // * `activate_job` read the initial frontier back from the live
    //   in-degree counters, so a successor released during that scan was
    //   queued twice, ran twice, and left the job `Running` for ever with
    //   `tasks_done > tasks_total`.
    // (`jobs()` could also pair a stale live task count with a record that
    // had meanwhile turned `Completed`.) Two closed-loop submitters against two workers and a fast supervisor
    // tick, as the `serve` benchmark drives the pool.
    const JOBS_PER_CLIENT: u64 = 1500;
    let pool = JobPool::new(PoolConfig {
        nthreads: 2,
        tick: Duration::from_micros(50),
        ..Default::default()
    });
    let elims = binary_elims(8, 4);
    std::thread::scope(|sc| {
        for client in 0..2u64 {
            let (pool, elims) = (&pool, &elims);
            sc.spawn(move || {
                for i in 0..JOBS_PER_CLIENT {
                    let a = TiledMatrix::random(8, 4, 8, client * JOBS_PER_CLIENT + i);
                    let id = pool.submit(JobSpec::fresh(elims.clone(), a)).expect("submit");
                    let give_up = std::time::Instant::now() + Duration::from_secs(10);
                    let view = loop {
                        let v = pool.status(id).expect("known job");
                        if v.state.is_terminal() {
                            break v;
                        }
                        assert!(
                            std::time::Instant::now() < give_up,
                            "job {i} of client {client} stuck in {} with {}/{} tasks done",
                            v.state,
                            v.tasks_done,
                            v.tasks_total
                        );
                        std::thread::sleep(Duration::from_micros(50));
                    };
                    assert_eq!(view.state, JobState::Completed);
                    assert_eq!(view.tasks_done, view.tasks_total);
                    assert_eq!(view.attempts, 1, "no deadline heal or retry may be needed");
                }
            });
        }
    });
    pool.shutdown();
}
