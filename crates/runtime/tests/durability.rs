//! Crash-safe durability tests for the job pool: the write-ahead journal,
//! the durable result store, and checkpoint-backed suspension together
//! guarantee that every accepted job reaches a terminal state with
//! bitwise-identical results, no matter where the daemon dies.
//!
//! A SIGKILL cannot be delivered to an in-process pool, so the crash is
//! simulated the way a crash actually looks on disk: the state directory
//! is copied *while the pool is live* (every journal append is fsync'd, so
//! any point-in-time copy is a valid crash image, up to a torn tail the
//! replay tolerates), and a second pool recovers from the copy.

mod support;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use hqr_runtime::pool_step::PoolState;
use hqr_runtime::{
    execute_serial_ib, read_checkpoint, result_from_bytes, DurabilityConfig, ElimOp, FaultPlan,
    JobPool, JobSpec, JobState, Journal, JournalEvent, PoolConfig, QosClass, TFactors, TaskGraph,
    CKPT_DIR, JOURNAL_FILE, RESULTS_DIR,
};
use hqr_tile::TiledMatrix;
use support::flat_elims;

/// The solo reference: factor `a0` serially with the same elimination list.
fn solo(elims: &[ElimOp], a0: &TiledMatrix) -> (TiledMatrix, TFactors) {
    let graph = TaskGraph::try_build(a0.mt(), a0.nt(), a0.b(), elims).expect("valid elims");
    let mut a = a0.clone();
    let f = execute_serial_ib(&graph, &mut a, a0.b());
    (a, f)
}

fn state_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hqr_dur_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_pool(dir: &Path, ckpt_interval: Duration) -> JobPool {
    let mut d = DurabilityConfig::at(dir);
    d.ckpt_interval = ckpt_interval;
    JobPool::new(PoolConfig { nthreads: 2, durability: Some(d), ..PoolConfig::default() })
}

/// Point-in-time copy of a live state directory — the crash image.
fn snapshot(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).expect("create snapshot dir");
    fn copy_tree(src: &Path, dst: &Path) {
        for entry in std::fs::read_dir(src).expect("read_dir") {
            let entry = entry.expect("dir entry");
            let to = dst.join(entry.file_name());
            if entry.file_type().expect("file_type").is_dir() {
                std::fs::create_dir_all(&to).expect("mkdir");
                copy_tree(&entry.path(), &to);
            } else {
                std::fs::copy(entry.path(), &to).expect("copy file");
            }
        }
    }
    copy_tree(src, dst);
}

/// Block until the job pool reports `id` in `state` (or panic after 60 s).
fn wait_for_state(pool: &JobPool, id: hqr_runtime::JobId, state: JobState) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let now = pool.jobs().into_iter().find(|j| j.id == id).map(|j| j.state);
        if now == Some(state) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "job {} never reached {state:?} (currently {now:?})",
            id.0
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A spec that stalls forever: one task's injected failures outlast any
/// practical test, but stay within the per-task retry budget so the job
/// keeps retrying (and stays preemptible) instead of quarantining.
fn stalling_spec(elims: Vec<ElimOp>, a: TiledMatrix, task: u32) -> JobSpec {
    let mut spec = JobSpec::fresh(elims, a);
    spec.plan = Some(FaultPlan::new(7).fail_task(task, 1_000_000));
    spec.max_retries = 1_000_001;
    spec
}

#[test]
fn completed_results_survive_restart_bitwise() {
    let dir = state_dir("completed");
    let elims = flat_elims(4, 3);
    let a0 = TiledMatrix::random(4, 3, 8, 11);
    let (ref_a, ref_f) = solo(&elims, &a0);

    let first_bytes;
    let id;
    {
        let pool = durable_pool(&dir, Duration::from_secs(3600));
        id = pool.submit(JobSpec::fresh(elims.clone(), a0.clone())).expect("submit");
        let out = pool.wait(id).expect("wait");
        assert_eq!(out.state, JobState::Completed);
        first_bytes = pool.result_bytes(id).expect("durable result after completion");
        pool.shutdown();
    }

    // A fresh pool on the same state directory: the journal replays the
    // job as already-terminal, and the stored result is still retrievable
    // and bitwise-identical.
    let pool = durable_pool(&dir, Duration::from_secs(3600));
    let report = pool.recover().expect("recover");
    assert_eq!(report.total, 1);
    assert_eq!(report.completed_retained, 1);
    assert_eq!(report.unrecoverable, 0);
    let view = pool.jobs().into_iter().find(|j| j.id == id).expect("job survives restart");
    assert_eq!(view.state, JobState::Completed);

    let bytes = pool.result_bytes(id).expect("result survives restart");
    assert_eq!(bytes, first_bytes, "stored container is byte-stable across restarts");
    let stored = result_from_bytes(bytes).expect("stored result decodes");
    assert_eq!(stored.id, id.0);
    assert_eq!(stored.result.a.to_dense().data(), ref_a.to_dense().data());
    assert!(stored.result.factors.bitwise_eq(&ref_f));
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stored result is the finished job's checkpoint: the file reads back
/// as a state of the job's plan with every task complete and the job id in
/// its header, bit-equal to a serial run, and resuming it on another pool
/// completes without running a task.
#[test]
fn stored_result_is_the_finished_jobs_checkpoint() {
    let dir = state_dir("result_ckpt");
    let (mt, nt, b, ib) = (4, 3, 8, 4);
    let elims = flat_elims(mt, nt);
    let graph = TaskGraph::build(mt, nt, b, &elims);
    let a0 = TiledMatrix::random(mt, nt, b, 31);
    let mut ref_a = a0.clone();
    let ref_f = execute_serial_ib(&graph, &mut ref_a, ib);
    let pool = durable_pool(&dir, Duration::from_secs(3600));
    let mut spec = JobSpec::fresh(elims, a0);
    spec.ib = Some(ib);
    let id = pool.submit(spec).expect("submit");
    assert_eq!(pool.wait(id).expect("wait").state, JobState::Completed);
    pool.shutdown();

    let file = dir.join(RESULTS_DIR).join(format!("job-{}.result", id.0));
    let ckpt = read_checkpoint(&file).expect("a result file is a checkpoint");
    ckpt.validate_against(&graph, ib).expect("a state of the job's plan");
    assert_eq!(ckpt.completed_tasks(), graph.tasks().len(), "every task complete");
    assert_eq!(ckpt.job, id.0, "the header word is the job id");
    assert_eq!(ckpt.a.to_dense().data(), ref_a.to_dense().data());
    assert!(ckpt.factors.bitwise_eq(&ref_f));

    // Every task would fail its first attempt (and the job has no retries),
    // so the job completes only if nothing runs.
    let other = JobPool::new(PoolConfig { nthreads: 2, ..PoolConfig::default() });
    let mut spec = JobSpec::resume(ckpt);
    let n = graph.tasks().len() as u32;
    spec.plan = Some((0..n).fold(FaultPlan::new(3), |plan, t| plan.fail_task(t, 1)));
    let out = other.wait(other.submit(spec).expect("submit the result")).expect("wait");
    other.shutdown();
    assert_eq!(out.state, JobState::Completed, "{:?}", out.error);
    assert_eq!(out.stats.panics_caught, 0, "no task ran");
    let r = out.result.expect("result");
    assert_eq!(r.a.to_dense().data(), ref_a.to_dense().data());
    assert!(r.factors.bitwise_eq(&ref_f));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_image_mid_run_drives_every_accepted_job_terminal() {
    let dir = state_dir("crash");
    let crash = state_dir("crash_image");
    let elims = flat_elims(4, 3);
    let a0 = TiledMatrix::random(4, 3, 8, 21);
    let b0 = TiledMatrix::random(4, 3, 8, 22);
    let (ref_a, ref_fa) = solo(&elims, &a0);
    let (ref_b, ref_fb) = solo(&elims, &b0);

    let (done_id, stuck_id, queued_id);
    {
        let pool = durable_pool(&dir, Duration::from_secs(3600));
        // Job 1 completes before the crash; job 2 is mid-factorization
        // (stalled on an injected fault) when the crash lands; job 3 is
        // submitted behind it. Job 3 stalls the same way, so whether the
        // pool has started it or not at the crash, it cannot have finished.
        done_id = pool.submit(JobSpec::fresh(elims.clone(), a0.clone())).expect("submit done");
        assert_eq!(pool.wait(done_id).expect("wait").state, JobState::Completed);
        stuck_id = pool.submit(stalling_spec(elims.clone(), b0.clone(), 2)).expect("submit stuck");
        wait_for_state(&pool, stuck_id, JobState::Running);
        let queued = stalling_spec(elims.clone(), b0.clone(), 2);
        queued_id = pool.submit(queued).expect("submit queued");

        // SIGKILL: copy the state directory out from under the live pool,
        // then abandon it (Drop halts workers without draining — nothing
        // it does can reach the crash image).
        snapshot(&dir, &crash);
    }

    let pool = durable_pool(&crash, Duration::from_secs(3600));
    let report = pool.recover().expect("recover");
    assert_eq!(report.total, 3);
    assert_eq!(report.completed_retained, 1);
    assert_eq!(report.unrecoverable, 0);

    // The completed job's result is still retrievable, bitwise.
    let stored = result_from_bytes(pool.result_bytes(done_id).expect("done result")).unwrap();
    assert_eq!(stored.result.a.to_dense().data(), ref_a.to_dense().data());
    assert!(stored.result.factors.bitwise_eq(&ref_fa));

    // The in-flight and queued jobs were re-accepted; fault plans are
    // engine policy (never persisted), so both now run clean to
    // completion — and bitwise match the uninterrupted reference.
    for id in [stuck_id, queued_id] {
        let out = pool.wait(id).expect("recovered job waitable");
        assert_eq!(out.state, JobState::Completed, "job {} error: {:?}", id.0, out.error);
        let stored = result_from_bytes(pool.result_bytes(id).expect("result stored")).unwrap();
        assert_eq!(stored.result.a.to_dense().data(), ref_b.to_dense().data());
        assert!(stored.result.factors.bitwise_eq(&ref_fb));
    }
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crash);
}

#[test]
fn suspended_job_resumes_from_checkpoint_after_crash() {
    let dir = state_dir("park");
    let crash = state_dir("park_image");
    let elims = flat_elims(5, 4);
    let a0 = TiledMatrix::random(5, 4, 8, 31);
    let (ref_a, ref_f) = solo(&elims, &a0);

    let id;
    {
        let pool = durable_pool(&dir, Duration::from_secs(3600));
        // Stall late in the DAG so the suspension checkpoint has real
        // progress behind it.
        let task = flat_elims(5, 4).len() as u32; // a task past the first panel
        id = pool.submit(stalling_spec(elims.clone(), a0.clone(), task)).expect("submit");
        wait_for_state(&pool, id, JobState::Running);
        assert!(pool.suspend(id), "suspend accepted for a running job");
        wait_for_state(&pool, id, JobState::Suspended);
        // The checkpoint file is on disk before the state flips.
        assert!(dir.join(CKPT_DIR).join(format!("job-{}.ckpt", id.0)).exists());
        snapshot(&dir, &crash);
    }

    let pool = durable_pool(&crash, Duration::from_secs(3600));
    let report = pool.recover().expect("recover");
    assert_eq!(report.total, 1);
    assert_eq!(
        report.resumed_from_checkpoint, 1,
        "a suspended job restarts from its checkpoint, not from scratch"
    );
    let out = pool.wait(id).expect("wait");
    assert_eq!(out.state, JobState::Completed, "error: {:?}", out.error);
    let stored = result_from_bytes(pool.result_bytes(id).expect("result")).unwrap();
    assert_eq!(
        stored.result.a.to_dense().data(),
        ref_a.to_dense().data(),
        "resume from checkpoint is bitwise-identical to the uninterrupted run"
    );
    assert!(stored.result.factors.bitwise_eq(&ref_f));
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crash);
}

#[test]
fn park_and_resume_job_round_trips_bitwise() {
    let dir = state_dir("resume_verb");
    let elims = flat_elims(4, 3);
    let a0 = TiledMatrix::random(4, 3, 8, 41);
    let (ref_a, ref_f) = solo(&elims, &a0);

    let pool = durable_pool(&dir, Duration::from_secs(3600));
    let id = pool.submit(stalling_spec(elims.clone(), a0.clone(), 3)).expect("submit");
    wait_for_state(&pool, id, JobState::Running);
    assert!(pool.suspend(id));
    wait_for_state(&pool, id, JobState::Suspended);
    // Parked jobs stay parked: nothing resumes them implicitly.
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(pool.jobs().into_iter().find(|j| j.id == id).unwrap().state, JobState::Suspended);
    assert!(!pool.resume_job(hqr_runtime::JobId(id.0 + 7)), "unknown id is refused");
    assert!(pool.resume_job(id), "parked job resumes");
    let out = pool.wait(id).expect("wait");
    assert_eq!(out.state, JobState::Completed, "error: {:?}", out.error);
    let r = out.result.expect("first waiter claims the result");
    assert_eq!(r.a.to_dense().data(), ref_a.to_dense().data());
    assert!(r.factors.bitwise_eq(&ref_f));
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dedup_key_is_idempotent_and_survives_recovery() {
    let dir = state_dir("dedup");
    let elims = flat_elims(3, 2);
    let a0 = TiledMatrix::random(3, 2, 8, 51);
    let keyed = |key: &str| {
        let mut s = JobSpec::fresh(elims.clone(), a0.clone());
        s.dedup_key = Some(key.into());
        s
    };

    let id1;
    {
        let pool = durable_pool(&dir, Duration::from_secs(3600));
        let (a, deduped) = pool.submit_dedup(keyed("batch-7")).expect("submit");
        assert!(!deduped);
        id1 = a;
        let (b, deduped) = pool.submit_dedup(keyed("batch-7")).expect("resubmit");
        assert!(deduped, "same key is deduplicated");
        assert_eq!(b, id1);
        let (c, deduped) = pool.submit_dedup(keyed("batch-8")).expect("other key");
        assert!(!deduped);
        assert_ne!(c, id1);
        // Terminal jobs keep their registration: a late duplicate of a
        // finished submission still maps to the original id.
        pool.wait(id1).expect("wait");
        let (d, deduped) = pool.submit_dedup(keyed("batch-7")).expect("late resubmit");
        assert!(deduped);
        assert_eq!(d, id1);
        pool.wait(c).expect("wait other");
        pool.shutdown();
    }

    // Recovery rebuilds the dedup map from the journal.
    let pool = durable_pool(&dir, Duration::from_secs(3600));
    pool.recover().expect("recover");
    let (e, deduped) = pool.submit_dedup(keyed("batch-7")).expect("post-restart resubmit");
    assert!(deduped, "dedup registration survives the restart");
    assert_eq!(e, id1);
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn periodic_checkpoints_fire_without_perturbing_results() {
    let dir = state_dir("periodic");
    // Big enough that several supervisor ticks elapse mid-run (tens of
    // milliseconds of optimized kernels on two threads).
    let elims = flat_elims(96, 8);
    let a0 = TiledMatrix::random(96, 8, 16, 61);
    let (ref_a, ref_f) = solo(&elims, &a0);

    let pool = durable_pool(&dir, Duration::from_millis(1));
    let id = pool.submit(JobSpec::fresh(elims.clone(), a0.clone())).expect("submit");
    let out = pool.wait(id).expect("wait");
    assert_eq!(out.state, JobState::Completed, "error: {:?}", out.error);
    let stored = result_from_bytes(pool.result_bytes(id).expect("result")).unwrap();
    assert_eq!(
        stored.result.a.to_dense().data(),
        ref_a.to_dense().data(),
        "periodic suspend/resume cycles are bitwise-invisible"
    );
    assert!(stored.result.factors.bitwise_eq(&ref_f));

    // The journal recorded at least one periodic checkpoint cycle, and the
    // job's checkpoint file was cleaned up at completion.
    let events = Journal::read(&dir.join(JOURNAL_FILE)).expect("journal readable");
    let ckpts = events
        .iter()
        .filter(|e| matches!(e, JournalEvent::Checkpointed { id: jid, .. } if *jid == id.0))
        .count();
    assert!(ckpts >= 1, "expected a periodic checkpoint in the journal, got {events:?}");
    assert!(
        !dir.join(CKPT_DIR).join(format!("job-{}.ckpt", id.0)).exists(),
        "completion removes the suspension checkpoint"
    );
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every transition writes its journal record and its job record in one
/// function, so a replay of the journal and the pool's own listing must
/// tell the same story. Call only while no transition is in flight (every
/// job settled, parked, queued behind a full slot, or stalled mid-run).
fn assert_journal_matches_records(pool: &JobPool, dir: &Path, at: &str) {
    // What the journal says of each job: the pool's own rules folded over
    // its records — the fold a restart would start from.
    struct Journaled {
        terminal: Option<JobState>,
        attempts: u32,
        ckpt_file: Option<String>,
        ckpt_tasks_done: u64,
    }
    let events = Journal::read(&dir.join(JOURNAL_FILE)).expect("journal readable");
    let journal: std::collections::BTreeMap<u64, Journaled> =
        PoolState::<()>::replayed(PoolConfig::default(), events)
            .jobs
            .into_iter()
            .map(|(id, j)| {
                let (terminal, attempts) = (j.settled(), j.attempts);
                let (ckpt_file, ckpt_tasks_done) = (j.ckpt_file, j.ckpt_tasks_done);
                (id, Journaled { terminal, attempts, ckpt_file, ckpt_tasks_done })
            })
            .collect();
    let views = pool.jobs();
    assert_eq!(journal.len(), views.len(), "{at}: the journal and the pool name the same jobs");
    for v in views {
        let j = &journal[&v.id.0];
        // A parked job is settled for a waiter but live for the journal:
        // recovery resumes it.
        let settled = v.state.is_terminal() && v.state != JobState::Suspended;
        assert_eq!(j.terminal, settled.then_some(v.state), "{at}: job {} ({})", v.id.0, v.tag);
        assert_eq!(j.attempts, v.attempts, "{at}: attempts of job {} ({})", v.id.0, v.tag);
        let on_disk = dir.join(CKPT_DIR).join(format!("job-{}.ckpt", v.id.0)).exists();
        if settled {
            assert!(!on_disk, "{at}: settled job {} ({}) left a checkpoint", v.id.0, v.tag);
        } else {
            assert_eq!(
                j.ckpt_file.is_some(),
                on_disk,
                "{at}: checkpoint of {} ({})",
                v.id.0,
                v.tag
            );
        }
        if v.state == JobState::Suspended && on_disk {
            assert_eq!(j.ckpt_tasks_done as usize, v.tasks_done, "{at}: progress of {}", v.id.0);
        }
    }
}

#[test]
fn journal_replay_agrees_with_the_records_through_every_transition() {
    let dir = state_dir("consistent");
    let mut d = DurabilityConfig::at(&dir);
    d.ckpt_interval = Duration::from_millis(1);
    let pool = JobPool::new(PoolConfig {
        nthreads: 2,
        max_active: 1,
        queue_cap: 1,
        backoff_base: Duration::from_millis(1),
        durability: Some(d),
        ..PoolConfig::default()
    });
    let elims = flat_elims(4, 3);
    let small = |seed: u64, tag: &str, qos: QosClass| {
        let mut s = JobSpec::fresh(elims.clone(), TiledMatrix::random(4, 3, 8, seed));
        (s.tag, s.qos) = (tag.into(), qos);
        s
    };
    let stalled = |seed: u64, tag: &str| {
        let mut s = stalling_spec(elims.clone(), TiledMatrix::random(4, 3, 8, seed), 0);
        s.tag = tag.into();
        s
    };

    let ckpts_of = |id: hqr_runtime::JobId| {
        let events = Journal::read(&dir.join(JOURNAL_FILE)).expect("journal readable");
        events
            .iter()
            .filter(|e| matches!(e, JournalEvent::Checkpointed { id: jid, .. } if *jid == id.0))
            .count()
    };

    // Clean completion with a periodic checkpoint on the way. The
    // supervisor has to get a tick in mid-run for that; on a busy machine
    // a run can slip through un-checkpointed, so go again.
    let mut long = JobSpec::fresh(flat_elims(96, 8), TiledMatrix::random(96, 8, 16, 81));
    long.tag = "long".into();
    let mut tries = 0;
    loop {
        let id = pool.submit(long.clone()).expect("submit long");
        assert_eq!(pool.wait(id).expect("long").state, JobState::Completed);
        tries += 1;
        if ckpts_of(id) >= 1 {
            break;
        }
        assert!(tries < 50, "no run of the long job was ever checkpointed periodically");
    }

    // Deadline -> backoff -> deadline -> quarantine.
    let mut doomed = stalled(82, "doomed");
    doomed.deadline = Some(Duration::from_millis(2));
    doomed.job_retries = 1;
    let id_doomed = pool.submit(doomed).expect("submit doomed");
    let out = pool.wait(id_doomed).expect("doomed");
    assert_eq!((out.state, out.attempts), (JobState::Quarantined, 2), "{:?}", out.error);

    // One stalled job holds the only slot; behind it a batch job fills the
    // queue, is shed by an interactive arrival, which in turn preempts the
    // stalled job, completes, and hands the slot back.
    let id_stall = pool.submit(stalled(83, "stall")).expect("submit stall");
    wait_for_state(&pool, id_stall, JobState::Running);
    let id_shed = pool.submit(small(84, "shed", QosClass::Batch)).expect("submit shed");
    let id_vip = pool.submit(small(85, "vip", QosClass::Interactive)).expect("submit vip");
    assert_eq!(pool.wait(id_shed).expect("shed").state, JobState::Shed);
    assert_eq!(pool.wait(id_vip).expect("vip").state, JobState::Completed);
    wait_for_state(&pool, id_stall, JobState::Running);

    // Cancel while queued.
    let id_cq = pool.submit(small(86, "cancel-queued", QosClass::Normal)).expect("submit");
    assert!(pool.cancel(id_cq));
    assert_eq!(pool.wait(id_cq).expect("cancelled").state, JobState::Cancelled);

    // Suspend the running job: parked on a checkpoint, everything else settled.
    assert!(pool.suspend(id_stall));
    wait_for_state(&pool, id_stall, JobState::Suspended);
    assert_journal_matches_records(&pool, &dir, "one job parked");

    // Resume it; park a queued job behind it, resume that too; then cancel
    // the running one so the resumed job gets the slot and completes.
    assert!(pool.resume_job(id_stall));
    wait_for_state(&pool, id_stall, JobState::Running);
    let id_parked = pool.submit(small(87, "parked", QosClass::Normal)).expect("submit parked");
    assert!(pool.suspend(id_parked));
    wait_for_state(&pool, id_parked, JobState::Suspended);
    assert_journal_matches_records(&pool, &dir, "one job stalled, one parked off the queue");
    assert!(pool.resume_job(id_parked));
    assert!(pool.cancel(id_stall));
    assert_eq!(pool.wait(id_stall).expect("stall").state, JobState::Cancelled);
    assert_eq!(pool.wait(id_parked).expect("parked").state, JobState::Completed);

    assert_journal_matches_records(&pool, &dir, "everything settled");
    assert!(ckpts_of(id_stall) >= 2, "preemption and suspension both checkpointed");
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// 100-job churn against a small rotation threshold: the journal must
/// stay bounded (the unbounded-growth bug this sweep fixes), terminal
/// noise compacts away, and the rotated journal still replays.
#[test]
fn journal_rotation_keeps_hundred_job_churn_bounded() {
    let dir = state_dir("rotate_churn");
    let rotate_at = 16 * 1024_u64;
    let mut d = DurabilityConfig::at(&dir);
    d.ckpt_interval = Duration::from_secs(3600);
    d.journal_rotate_bytes = rotate_at;
    d.result_cap = 4;
    let pool =
        JobPool::new(PoolConfig { nthreads: 2, durability: Some(d), ..PoolConfig::default() });
    let elims = flat_elims(2, 2);
    let mut last = None;
    for i in 0..100u64 {
        let a = TiledMatrix::random(2, 2, 4, 100 + i);
        let id = pool.submit(JobSpec::fresh(elims.clone(), a)).expect("submit");
        assert_eq!(pool.wait(id).expect("wait").state, JobState::Completed);
        last = Some(id);
    }
    pool.shutdown();

    // Bounded: the file never strays far past the threshold (one append
    // can overshoot before the rotation that follows it).
    let len = std::fs::metadata(dir.join(JOURNAL_FILE)).expect("journal exists").len();
    assert!(
        len < 2 * rotate_at,
        "journal must stay near the {rotate_at}-byte threshold after 100 jobs, got {len}"
    );
    assert!(
        !dir.join(JOURNAL_FILE).with_extension("journal.rotating").exists(),
        "no rotation marker may survive a clean shutdown"
    );

    // The compacted journal still replays: the retained results are
    // retrievable and everything recovered is terminal.
    let pool = durable_pool(&dir, Duration::from_secs(3600));
    pool.recover().expect("rotated journal replays");
    for j in pool.jobs() {
        assert!(j.state.is_terminal(), "job {} recovered as {}", j.id.0, j.state);
    }
    let id = last.expect("ran jobs");
    assert!(pool.result_bytes(id).is_some(), "newest result survives rotation + retention");
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash between writing the rotate-in-progress marker and finishing
/// the compaction leaves the marker on disk next to a valid journal
/// (both the pre-rotation file and the atomically-renamed compacted file
/// are valid crash states). Reopening must clear the marker and drive
/// every accepted job to a terminal state.
#[test]
fn crash_across_rotation_boundary_recovers_every_job() {
    let dir = state_dir("rotate_crash");
    let crash = state_dir("rotate_crash_image");
    let elims = flat_elims(4, 3);
    let a0 = TiledMatrix::random(4, 3, 8, 71);
    let (ref_a, ref_f) = solo(&elims, &a0);

    let (done_id, stuck_id);
    {
        let mut d = DurabilityConfig::at(&dir);
        d.ckpt_interval = Duration::from_secs(3600);
        d.journal_rotate_bytes = 8 * 1024;
        let pool =
            JobPool::new(PoolConfig { nthreads: 2, durability: Some(d), ..PoolConfig::default() });
        done_id = pool.submit(JobSpec::fresh(elims.clone(), a0.clone())).expect("submit");
        assert_eq!(pool.wait(done_id).expect("wait").state, JobState::Completed);
        stuck_id = pool.submit(stalling_spec(elims.clone(), a0.clone(), 2)).expect("submit");
        wait_for_state(&pool, stuck_id, JobState::Running);
        snapshot(&dir, &crash);
    }
    // Simulate dying right after the marker hit the disk: the crash image
    // carries the marker, and the journal it guards is the pre-compaction
    // one.
    let marker = {
        let mut name = JOURNAL_FILE.to_string();
        name.push_str(".rotating");
        crash.join(name)
    };
    std::fs::write(&marker, b"").expect("plant rotate marker");

    let mut d = DurabilityConfig::at(&crash);
    d.ckpt_interval = Duration::from_secs(3600);
    d.journal_rotate_bytes = 8 * 1024;
    let pool =
        JobPool::new(PoolConfig { nthreads: 2, durability: Some(d), ..PoolConfig::default() });
    assert!(!marker.exists(), "open must clear a stale rotation marker");
    let report = pool.recover().expect("recover across rotation boundary");
    assert_eq!(report.unrecoverable, 0);
    let stored = result_from_bytes(pool.result_bytes(done_id).expect("done result")).unwrap();
    assert_eq!(stored.result.a.to_dense().data(), ref_a.to_dense().data());
    assert!(stored.result.factors.bitwise_eq(&ref_f));
    let out = pool.wait(stuck_id).expect("recovered job waitable");
    assert_eq!(out.state, JobState::Completed, "error: {:?}", out.error);
    for j in pool.jobs() {
        assert!(
            j.state.is_terminal(),
            "every accepted job must end terminal, job {} is {}",
            j.id.0,
            j.state
        );
    }
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crash);
}

/// Byte- and age-based result retention ride along with the count cap:
/// a byte ceiling prunes oldest results first and journals each prune.
#[test]
fn result_byte_retention_prunes_and_journals() {
    let dir = state_dir("result_bytes");
    let elims = flat_elims(2, 2);
    // One stored result for a 2x2 b=4 job is ~1.3 KiB; a 4 KiB ceiling
    // keeps only the newest three results of six.
    let mut d = DurabilityConfig::at(&dir);
    d.ckpt_interval = Duration::from_secs(3600);
    d.result_max_bytes = 4 * 1024;
    let pool =
        JobPool::new(PoolConfig { nthreads: 2, durability: Some(d), ..PoolConfig::default() });
    let mut ids = Vec::new();
    for i in 0..6u64 {
        let a = TiledMatrix::random(2, 2, 4, 200 + i);
        let id = pool.submit(JobSpec::fresh(elims.clone(), a)).expect("submit");
        assert_eq!(pool.wait(id).expect("wait").state, JobState::Completed);
        ids.push(id);
    }
    let newest = *ids.last().unwrap();
    assert!(pool.result_bytes(newest).is_some(), "newest result must be retained");
    assert!(pool.result_bytes(ids[0]).is_none(), "oldest result must fall to the byte ceiling");
    let events = Journal::read(&dir.join(JOURNAL_FILE)).expect("journal");
    assert!(
        events.iter().any(|e| matches!(e, JournalEvent::ResultPruned { .. })),
        "byte-ceiling prunes must be journaled: {events:?}"
    );
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bug: `conclude_job` renamed the result file into place before the
/// `Completed` record was journaled, and `result_bytes` served any file it
/// found — so a client could hold the result of a job `jobs` still listed
/// as running. Only a settled, journaled completion is served now, and a
/// `result_bytes` on a live job waits for it to settle.
#[test]
fn result_bytes_serves_only_settled_completions_and_waits_for_them() {
    let dir = state_dir("planted");
    let elims = flat_elims(4, 3);
    let pool = durable_pool(&dir, Duration::from_secs(3600));
    let done = pool.submit(JobSpec::fresh(elims.clone(), TiledMatrix::random(4, 3, 8, 91)));
    let done = done.expect("submit");
    assert_eq!(pool.wait(done).expect("wait").state, JobState::Completed);
    let planted = pool.result_bytes(done).expect("a completed job's result");

    // A running job with a well-formed result file under its name.
    let stuck = pool.submit(stalling_spec(elims.clone(), TiledMatrix::random(4, 3, 8, 92), 1));
    let stuck = stuck.expect("submit");
    wait_for_state(&pool, stuck, JobState::Running);
    let path = dir.join(RESULTS_DIR).join(format!("job-{}.result", stuck.0));
    std::fs::write(path, &planted).expect("plant a result file");
    std::thread::scope(|s| {
        let fetch = s.spawn(|| pool.result_bytes(stuck));
        std::thread::sleep(Duration::from_millis(100));
        assert!(!fetch.is_finished(), "result_bytes must wait for a running job");
        assert!(pool.cancel(stuck));
        let got = fetch.join().expect("fetch thread");
        assert_eq!(got, None, "a cancelled job has no result, whatever file carries its name");
    });

    // Issued right after the submission, the call returns the container
    // once the job is done — and by then `Completed` is in the journal.
    let a0 = TiledMatrix::random(4, 3, 8, 93);
    let next = pool.submit(JobSpec::fresh(elims.clone(), a0.clone())).expect("submit");
    let bytes = pool.result_bytes(next).expect("the result, once completed");
    let events = Journal::read(&dir.join(JOURNAL_FILE)).expect("journal");
    let completed =
        |e: &JournalEvent| matches!(e, JournalEvent::Completed { id, .. } if *id == next.0);
    assert!(events.iter().any(completed), "served before its Completed record was durable");
    let stored = result_from_bytes(bytes).expect("decodes");
    let (ref_a, ref_f) = solo(&elims, &a0);
    assert_eq!(stored.result.a.to_dense().data(), ref_a.to_dense().data());
    assert!(stored.result.factors.bitwise_eq(&ref_f));
    assert_eq!(pool.result_bytes(hqr_runtime::JobId(999)), None, "unknown ids answer at once");
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A prune is journaled before its file is unlinked: a crash in between
/// leaves a file no record names, which recovery deletes.
#[test]
fn orphan_result_of_a_journaled_prune_is_deleted_at_recover() {
    let dir = state_dir("orphan");
    let crash = state_dir("orphan_image");
    let elims = flat_elims(4, 3);
    let mut d = DurabilityConfig::at(&dir);
    d.result_cap = 1;
    let (first, second, orphan);
    {
        let pool =
            JobPool::new(PoolConfig { nthreads: 2, durability: Some(d), ..Default::default() });
        first = pool.submit(JobSpec::fresh(elims.clone(), TiledMatrix::random(4, 3, 8, 94)));
        let first_id = first.as_ref().copied().expect("submit");
        assert_eq!(pool.wait(first_id).expect("wait").state, JobState::Completed);
        orphan = pool.result_bytes(first_id).expect("stored result");
        second = pool.submit(JobSpec::fresh(elims.clone(), TiledMatrix::random(4, 3, 8, 95)));
        let second_id = second.as_ref().copied().expect("submit");
        assert_eq!(pool.wait(second_id).expect("wait").state, JobState::Completed);
        snapshot(&dir, &crash);
        pool.shutdown();
    }
    let (first, second) = (first.unwrap(), second.unwrap());
    let events = Journal::read(&crash.join(JOURNAL_FILE)).expect("journal");
    let pruned =
        |e: &JournalEvent| matches!(e, JournalEvent::ResultPruned { id } if *id == first.0);
    assert!(events.iter().any(pruned), "the cap of one prunes the first result: {events:?}");
    // The crash landed between the record and the unlink.
    let file = crash.join(RESULTS_DIR).join(format!("job-{}.result", first.0));
    std::fs::write(&file, &orphan).expect("restore the pruned file");

    let pool = durable_pool(&crash, Duration::from_secs(3600));
    pool.recover().expect("recover");
    assert!(!file.exists(), "recovery deletes the orphan of a journaled prune");
    assert_eq!(pool.result_bytes(first), None);
    let kept = result_from_bytes(pool.result_bytes(second).expect("retained")).expect("decodes");
    assert_eq!(kept.id, second.0);
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crash);
}
