//! End-to-end tests of the `hqr serve` daemon over its Unix socket,
//! driving the compiled binary exactly as a user (or the CI smoke job)
//! would: start the service, submit a mixed-QoS batch, watch deadlines
//! route into retry/quarantine, SIGTERM the daemon mid-run, and resume
//! the persisted queue in a fresh daemon — zero lost accepted jobs.
#![cfg(unix)]

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn hqr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hqr"))
}

/// A serve process plus its socket/queue paths; killed on drop so a
/// failing test never leaks a daemon.
struct Daemon {
    child: Child,
    socket: PathBuf,
    queue: PathBuf,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

fn unique(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hqr_svc_{name}_{}", std::process::id()))
}

fn start_daemon(name: &str, extra: &[&str]) -> Daemon {
    let socket = unique(&format!("{name}.sock"));
    let queue = unique(&format!("{name}.queue"));
    let _ = std::fs::remove_file(&socket);
    let sock = socket.to_str().unwrap().to_string();
    let q = queue.to_str().unwrap().to_string();
    let mut args = vec!["serve", "--socket", &sock, "--queue", &q, "--threads", "2"];
    args.extend_from_slice(extra);
    let child = hqr()
        .args(&args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let daemon = Daemon { child, socket, queue };
    // Wait for the socket to appear (the daemon is accepting once bound).
    let deadline = Instant::now() + Duration::from_secs(20);
    while !daemon.socket.exists() {
        assert!(Instant::now() < deadline, "daemon never bound its socket");
        std::thread::sleep(Duration::from_millis(20));
    }
    daemon
}

fn run(args: &[&str]) -> (i32, String, String) {
    let out = hqr().args(args).output().expect("run hqr");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn submit_args<'a>(sock: &'a str, tag: &'a str, extra: &[&'a str]) -> Vec<&'a str> {
    let mut v = vec![
        "submit", "--socket", sock, "--rows", "48", "--cols", "24", "--tile", "8", "--grid", "2x1",
        "--tag", tag,
    ];
    v.extend_from_slice(extra);
    v
}

/// Poll `hqr jobs` until `pred` over its stdout holds.
fn wait_for(sock: &str, what: &str, pred: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (code, out, err) = run(&["jobs", "--socket", sock]);
        assert_eq!(code, 0, "jobs failed: {err}");
        if pred(&out) {
            return out;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}; last:\n{out}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn serve_completes_mixed_qos_batch_and_pings() {
    let d = start_daemon("mixed", &[]);
    let sock = d.socket.to_str().unwrap();

    let (code, out, err) = run(&["ping", "--socket", sock]);
    assert_eq!(code, 0, "ping failed: {err}");
    assert!(out.contains("alive"), "{out}");

    // A mixed-QoS, mixed-policy batch; all must complete.
    let variants: &[&[&str]] = &[
        &["--qos", "interactive", "--policy", "cp"],
        &["--qos", "normal", "--policy", "panel", "--integrity", "spot"],
        &["--qos", "batch", "--policy", "fifo", "--ib", "4"],
        &["--qos", "batch", "--seed", "7"],
    ];
    for (i, extra) in variants.iter().enumerate() {
        let tag = format!("job{i}");
        let (code, out, err) = run(&submit_args(sock, &tag, extra));
        assert_eq!(code, 0, "submit {i} failed: {err}");
        assert!(out.contains("submitted job"), "{out}");
    }
    let listing = wait_for(sock, "4 completed jobs", |out| out.matches("completed").count() == 4);
    for i in 0..4 {
        assert!(listing.contains(&format!("job{i}")), "{listing}");
    }

    // Cancelling a terminal job reports failure, not success.
    let (code, _, err) = run(&["cancel", "--socket", sock, "--id", "1"]);
    assert_eq!(code, 1, "cancel of a terminal job must fail: {err}");
}

#[test]
fn deadline_and_injected_faults_quarantine_without_hurting_neighbors() {
    let d = start_daemon("deadline", &[]);
    let sock = d.socket.to_str().unwrap();

    // An impossible deadline with one job-level retry: Running → Backoff →
    // Running → Quarantined. The job is ~75k tasks (tens of milliseconds)
    // so the supervisor's tick lands while it runs: a 96×96 job finishes
    // in a few milliseconds and can beat the halt.
    let (code, _, err) = run(&submit_args(
        sock,
        "doomed",
        &["--rows", "384", "--cols", "384", "--deadline-ms", "1", "--job-retries", "1"],
    ));
    assert_eq!(code, 0, "submit doomed: {err}");

    // A task whose injected failures outlast its retry budget quarantines.
    let (code, _, err) = run(&submit_args(
        sock,
        "faulty",
        &["--inject-fail", "0:5", "--retries", "2", "--job-retries", "0"],
    ));
    assert_eq!(code, 0, "submit faulty: {err}");

    // A healthy neighbor sharing the pool must still complete (exit 0
    // from --wait asserts terminal state == completed).
    let (code, out, err) = run(&submit_args(sock, "healthy", &["--wait"]));
    assert_eq!(code, 0, "healthy job must complete: {err}\n{out}");

    let listing =
        wait_for(sock, "two quarantined jobs", |out| out.matches("quarantined").count() == 2);
    assert!(listing.contains("deadline"), "quarantine reason names the deadline: {listing}");
    // The doomed job consumed its retry: two activation attempts.
    let doomed = listing.lines().find(|l| l.contains("doomed")).expect("doomed row");
    assert!(doomed.contains(" 2 "), "doomed shows 2 attempts: {doomed}");
}

#[test]
fn sigterm_drains_persists_and_resume_finishes_accepted_jobs() {
    let mut d = start_daemon("drain", &["--grace-ms", "100"]);
    let sock = d.socket.to_str().unwrap().to_string();

    // Keep the two pool threads busy so later arrivals are still live when
    // the signal lands: a deep injected-retry stall on the first task.
    for i in 0..3 {
        let tag = format!("work{i}");
        let (code, _, err) =
            run(&submit_args(&sock, &tag, &["--inject-fail", "0:40000", "--retries", "40001"]));
        assert_eq!(code, 0, "submit {tag}: {err}");
    }
    wait_for(&sock, "a running job", |out| out.contains("running"));

    // SIGTERM → graceful drain: exit 0, queue persisted, socket removed.
    let pid = d.child.id().to_string();
    let ok = Command::new("kill").args(["-TERM", &pid]).status().unwrap();
    assert!(ok.success());
    let status = d.child.wait().expect("serve exit status");
    assert_eq!(status.code(), Some(0), "drained daemon exits 0");
    assert!(d.queue.exists(), "drain persisted the queue");

    let stdout = {
        use std::io::Read;
        let mut s = String::new();
        d.child.stdout.take().unwrap().read_to_string(&mut s).unwrap();
        s
    };
    assert!(stdout.contains("drained"), "{stdout}");

    // A fresh daemon resumes the persisted queue; every accepted job
    // reaches a terminal state (here: completed, since resumed fresh jobs
    // carry no fault plan — plans are engine policy, never persisted).
    let d2 = start_daemon("drain2", &["--resume", "--queue", d.queue.to_str().unwrap()]);
    let sock2 = d2.socket.to_str().unwrap();
    let listing =
        wait_for(sock2, "3 resumed completions", |out| out.matches("completed").count() == 3);
    for i in 0..3 {
        assert!(
            listing.contains(&format!("work{i}")),
            "job work{i} survived the restart: {listing}"
        );
    }

    let (code, out, _) = run(&["drain", "--socket", sock2]);
    assert_eq!(code, 0, "client-requested drain succeeds");
    assert!(out.contains("drained:"), "{out}");
    let mut d2 = d2;
    let status = d2.wait_timeout_or_kill();
    assert_eq!(status, Some(0), "daemon exits 0 after a client drain");
}

/// `Child::wait` with a manual timeout so a hung daemon fails the test
/// instead of wedging the suite.
trait WaitTimeout {
    fn wait_timeout_or_kill(&mut self) -> Option<i32>;
}

impl WaitTimeout for Daemon {
    fn wait_timeout_or_kill(&mut self) -> Option<i32> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait().expect("try_wait") {
                Some(status) => return status.code(),
                None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
                None => {
                    let _ = self.child.kill();
                    return None;
                }
            }
        }
    }
}

/// Parse the job id out of `submitted job N`.
fn submitted_id(out: &str) -> String {
    out.split_whitespace().nth(2).expect("submit output carries an id").to_string()
}

fn state_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hqr_svc_state_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn durable_daemon_serves_results_dedup_and_suspension() {
    let state = state_dir("verbs");
    let d = start_daemon("verbs", &["--state-dir", state.to_str().unwrap()]);
    let sock = d.socket.to_str().unwrap();

    // Two identical jobs under different dedup keys: their stored R/V
    // factors must be bitwise-identical (ids differ, payloads must not).
    let (code, out, err) = run(&submit_args(sock, "one", &["--dedup-key", "k-one", "--wait"]));
    assert_eq!(code, 0, "first job: {err}");
    let id1 = submitted_id(&out);
    let (code, out, err) = run(&submit_args(sock, "two", &["--dedup-key", "k-two", "--wait"]));
    assert_eq!(code, 0, "second job: {err}");
    let id2 = submitted_id(&out);
    assert_ne!(id1, id2);

    // A replayed submission with a known key is deduplicated, returning
    // the original id without enqueueing anything.
    let (code, out, err) = run(&submit_args(sock, "one", &["--dedup-key", "k-one"]));
    assert_eq!(code, 0, "dedup resubmit: {err}");
    assert!(out.contains("deduplicated"), "{out}");
    assert_eq!(submitted_id(&out), id1);

    // `hqr result` fetches both durable containers; decoded factors match.
    let out1 = state.join("r1.bin");
    let out2 = state.join("r2.bin");
    for (id, path) in [(&id1, &out1), (&id2, &out2)] {
        let (code, _, err) =
            run(&["result", "--socket", sock, "--id", id, "--out", path.to_str().unwrap()]);
        assert_eq!(code, 0, "result {id}: {err}");
    }
    let r1 = hqr_runtime::result_from_bytes(std::fs::read(&out1).unwrap()).expect("decode r1");
    let r2 = hqr_runtime::result_from_bytes(std::fs::read(&out2).unwrap()).expect("decode r2");
    assert_eq!(r1.id.to_string(), id1);
    assert_eq!(
        r1.result.a.to_dense().data(),
        r2.result.a.to_dense().data(),
        "identical submissions store bitwise-identical factors"
    );
    // Without --out the client prints a summary.
    let (code, out, _) = run(&["result", "--socket", sock, "--id", &id1]);
    assert_eq!(code, 0);
    assert!(out.contains("stored factorization"), "{out}");
    // A never-completed job has no stored result.
    let (code, _, err) = run(&["result", "--socket", sock, "--id", "999"]);
    assert_eq!(code, 1);
    assert!(err.contains("no stored result"), "{err}");

    // Suspend a running job at its next quiescent point, then requeue it.
    let (code, out, err) =
        run(&submit_args(sock, "parked", &["--inject-fail", "0:40000", "--retries", "40001"]));
    assert_eq!(code, 0, "stalling job: {err}");
    let sid = submitted_id(&out);
    wait_for(sock, "the stalling job to run", |out| {
        out.lines().any(|l| l.contains("parked") && l.contains("running"))
    });
    let (code, _, err) = run(&["suspend", "--socket", sock, "--id", &sid]);
    assert_eq!(code, 0, "suspend: {err}");
    wait_for(sock, "the job to park", |out| {
        out.lines().any(|l| l.contains("parked") && l.contains("suspended"))
    });
    let (code, _, err) = run(&["resume-job", "--socket", sock, "--id", &sid]);
    assert_eq!(code, 0, "resume-job: {err}");
    // Resuming a job that is not parked is a typed refusal.
    let (code, _, err) = run(&["resume-job", "--socket", sock, "--id", &id1]);
    assert_eq!(code, 1);
    assert!(err.contains("not parked"), "{err}");
    // The requeued job keeps its injected-fault stall; cancel it to finish.
    let (code, _, err) = run(&["cancel", "--socket", sock, "--id", &sid]);
    assert_eq!(code, 0, "cancel of the resumed job: {err}");
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn sigkill_mid_factorization_loses_no_accepted_job() {
    let state = state_dir("sigkill");
    let mut d = start_daemon("sigkill", &["--state-dir", state.to_str().unwrap()]);
    let sock = d.socket.to_str().unwrap().to_string();

    // Job A completes and durably stores its result before the crash.
    let (code, out, err) = run(&submit_args(&sock, "done", &["--dedup-key", "dk-a", "--wait"]));
    assert_eq!(code, 0, "job A: {err}");
    let id_a = submitted_id(&out);

    // Job B is mid-factorization (stalled on injected faults) at the kill.
    let (code, out, err) =
        run(&submit_args(&sock, "midrun", &["--inject-fail", "0:40000", "--retries", "40001"]));
    assert_eq!(code, 0, "job B: {err}");
    let id_b = submitted_id(&out);
    wait_for(&sock, "job B to run", |out| {
        out.lines().any(|l| l.contains("midrun") && l.contains("running"))
    });

    // SIGKILL: no drain, no queue persist, no goodbye.
    d.child.kill().expect("kill -9 the daemon");
    let _ = d.child.wait();

    // A restarted daemon on the same state dir replays the journal: both
    // accepted jobs survive. B was never suspended cleanly, so it restarts
    // (fault plans are engine policy, never persisted — it now completes).
    let d2 = start_daemon("sigkill2", &["--state-dir", state.to_str().unwrap(), "--resume"]);
    let sock2 = d2.socket.to_str().unwrap();
    let listing = wait_for(sock2, "both jobs terminal after recovery", |out| {
        out.matches("completed").count() == 2
    });
    assert!(listing.contains("done"), "job A survived: {listing}");
    assert!(listing.contains("midrun"), "job B survived: {listing}");

    // Job A's pre-crash result is still retrievable, bitwise-stable.
    let out_a = state.join("after.bin");
    let (code, _, err) =
        run(&["result", "--socket", sock2, "--id", &id_a, "--out", out_a.to_str().unwrap()]);
    assert_eq!(code, 0, "result after crash: {err}");
    let ra = hqr_runtime::result_from_bytes(std::fs::read(&out_a).unwrap()).expect("decode");
    assert_eq!(ra.id.to_string(), id_a);
    // Job B now has a result too.
    let (code, out, err) = run(&["result", "--socket", sock2, "--id", &id_b]);
    assert_eq!(code, 0, "recovered job result: {err}\n{out}");

    // The dedup registration also survived the crash.
    let (code, out, err) = run(&submit_args(sock2, "done", &["--dedup-key", "dk-a"]));
    assert_eq!(code, 0, "dedup after crash: {err}");
    assert!(out.contains("deduplicated"), "{out}");
    assert_eq!(submitted_id(&out), id_a);
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn submission_rejections_are_typed_and_do_not_kill_the_daemon() {
    let d = start_daemon("reject", &["--mem-budget-mb", "1", "--queue-cap", "1"]);
    let sock = d.socket.to_str().unwrap();

    // Working set far beyond 1 MiB: typed over-budget rejection.
    let (code, _, err) =
        run(&submit_args(sock, "big", &["--rows", "1024", "--cols", "1024", "--tile", "64"]));
    assert_eq!(code, 1);
    assert!(err.contains("over budget"), "{err}");

    // Garbage arguments are caught client-side.
    let (code, _, err) = run(&["submit", "--socket", sock, "--qos", "platinum"]);
    assert_eq!(code, 2);
    assert!(err.contains("unknown class"), "{err}");

    // The daemon shrugged all of it off.
    let (code, out, _) = run(&["ping", "--socket", sock]);
    assert_eq!(code, 0);
    assert!(out.contains("alive"), "{out}");
}
