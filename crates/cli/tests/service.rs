//! End-to-end tests of the `hqr serve` daemon over its Unix socket,
//! driving the compiled binary exactly as a user (or the CI smoke job)
//! would: start the service, submit a mixed-QoS batch, watch deadlines
//! route into retry/quarantine, stop the daemon mid-run — politely with
//! SIGTERM or not with SIGKILL — and let a fresh daemon over the same
//! state directory finish every accepted job.
#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use hqr_cli::proto::{read_frame, write_frame, Request, Response};
use hqr_runtime::{execute_serial_ib, result_from_bytes, FaultPlan, JobInput, TaskGraph};

fn hqr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hqr"))
}

/// A serve process plus its socket and state directory; killed on drop so
/// a failing test never leaks a daemon.
struct Daemon {
    child: Child,
    socket: PathBuf,
    state: PathBuf,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
        let _ = std::fs::remove_dir_all(&self.state);
    }
}

fn unique(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hqr_svc_{name}_{}", std::process::id()))
}

/// Start a daemon on a fresh socket with an empty state directory — the
/// default one, `<socket>.state`, cleared first: names are pid-derived
/// and pids recycle, so a leftover journal would be replayed.
fn start_daemon(name: &str, extra: &[&str]) -> Daemon {
    let socket = unique(&format!("{name}.sock"));
    let state = socket.with_extension("state");
    let _ = std::fs::remove_dir_all(&state);
    spawn_daemon(socket, state, extra)
}

/// Start a second daemon (new socket) over the state directory `old`
/// leaves behind, which the new daemon owns from here on.
fn restart_daemon(old: &mut Daemon, name: &str) -> Daemon {
    let socket = unique(&format!("{name}.sock"));
    let state = std::mem::take(&mut old.state);
    let arg = state.to_str().unwrap().to_string();
    spawn_daemon(socket, state, &["--state-dir", &arg])
}

fn spawn_daemon(socket: PathBuf, state: PathBuf, extra: &[&str]) -> Daemon {
    let _ = std::fs::remove_file(&socket);
    let mut args = vec!["serve", "--socket", socket.to_str().unwrap(), "--threads", "2"];
    args.extend_from_slice(extra);
    let child = hqr()
        .args(&args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let daemon = Daemon { child, socket, state };
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

/// The job `submit_args(.., extra)` asks for, factored by the serial
/// reference executor: what the daemon must have stored, bit for bit,
/// however many daemons it took to get there.
fn assert_stored_result_is_serial(sock: &str, id: &str, extra: &[&str], out: &Path) {
    let (code, _, err) =
        run(&["result", "--socket", sock, "--id", id, "--out", out.to_str().unwrap()]);
    assert_eq!(code, 0, "result {id}: {err}");
    let stored = result_from_bytes(std::fs::read(out).unwrap()).expect("stored result decodes");
    assert_eq!(stored.id.to_string(), id);

    let argv: Vec<String> =
        submit_args(sock, "reference", extra)[1..].iter().map(|s| s.to_string()).collect();
    let (spec, _) = hqr_cli::service::spec_of_args(&hqr_cli::Args::parse(&argv)).expect("spec");
    let JobInput::Fresh { elims, mut a } = spec.input else { unreachable!("submit is fresh") };
    let graph = TaskGraph::try_build(a.mt(), a.nt(), a.b(), &elims).expect("valid elims");
    let ib = spec.ib.unwrap_or(a.b());
    let factors = execute_serial_ib(&graph, &mut a, ib);
    assert_eq!(stored.result.a.to_dense().data(), a.to_dense().data(), "job {id}: R/V differ");
    assert!(stored.result.factors.bitwise_eq(&factors), "job {id}: T factors differ");
}

/// Stop `d` with `signal`, start a second daemon over its state directory,
/// and wait there until every tagged job is completed — the one recovery
/// path, entered politely (TERM: drain first) or not (KILL).
fn stop_and_restart(mut d: Daemon, signal: &str, name: &str, tags: &[&str]) -> Daemon {
    let pid = d.child.id().to_string();
    assert!(Command::new("kill").args([signal, &pid]).status().unwrap().success());
    let status = d.child.wait().expect("serve exit status");
    if signal == "-TERM" {
        assert_eq!(status.code(), Some(0), "drained daemon exits 0");
        let mut stdout = String::new();
        std::io::Read::read_to_string(&mut d.child.stdout.take().unwrap(), &mut stdout).unwrap();
        assert!(stdout.contains("drained"), "{stdout}");
    }
    let d2 = restart_daemon(&mut d, name);
    wait_for(d2.socket.to_str().unwrap(), "every accepted job to complete", |out| {
        tags.iter().all(|t| out.lines().any(|l| l.contains(t) && l.contains("completed")))
    });
    d2
}

#[test]
fn sigterm_drains_and_restart_finishes_accepted_jobs() {
    let d = start_daemon("drain", &["--grace-ms", "100"]);
    let sock = d.socket.to_str().unwrap().to_string();

    // Keep the two pool threads busy so later arrivals are still live when
    // the signal lands: a deep injected-retry stall on the first task.
    let seeds = ["11", "12", "13"];
    let mut ids = Vec::new();
    for (i, seed) in seeds.iter().enumerate() {
        let tag = format!("work{i}");
        let (code, out, err) = run(&submit_args(
            &sock,
            &tag,
            &["--seed", seed, "--inject-fail", "0:40000", "--retries", "40001"],
        ));
        assert_eq!(code, 0, "submit {tag}: {err}");
        ids.push(submitted_id(&out));
    }
    wait_for(&sock, "a running job", |out| out.contains("running"));

    // SIGTERM → graceful drain (exit 0), then a fresh daemon replays the
    // journal; every accepted job completes (recovered jobs carry no fault
    // plan — plans are engine policy, never persisted) with the factors an
    // uninterrupted serial run produces.
    let d2 = stop_and_restart(d, "-TERM", "drain2", &["work0", "work1", "work2"]);
    let sock2 = d2.socket.to_str().unwrap();
    for (id, seed) in ids.iter().zip(seeds) {
        assert_stored_result_is_serial(sock2, id, &["--seed", seed], &d2.state.join("out.bin"));
    }

    // A client-requested drain is answered before the daemon exits.
    let (code, out, err) = run(&["drain", "--socket", sock2]);
    assert_eq!(code, 0, "client-requested drain succeeds: {err}");
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

#[test]
fn durable_daemon_serves_results_dedup_and_suspension() {
    let d = start_daemon("verbs", &[]);
    let sock = d.socket.to_str().unwrap();
    let state = &d.state;

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
    let r1 = result_from_bytes(std::fs::read(&out1).unwrap()).expect("decode r1");
    let r2 = result_from_bytes(std::fs::read(&out2).unwrap()).expect("decode r2");
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
}

#[test]
fn sigkill_mid_factorization_loses_no_accepted_job() {
    let d = start_daemon("sigkill", &[]);
    let sock = d.socket.to_str().unwrap().to_string();

    // Job A completes and durably stores its result before the crash.
    let (code, out, err) = run(&submit_args(&sock, "done", &["--dedup-key", "dk-a", "--wait"]));
    assert_eq!(code, 0, "job A: {err}");
    let id_a = submitted_id(&out);

    // Job B is mid-factorization (stalled on injected faults) at the kill.
    let (code, out, err) = run(&submit_args(
        &sock,
        "midrun",
        &["--seed", "7", "--inject-fail", "0:40000", "--retries", "40001"],
    ));
    assert_eq!(code, 0, "job B: {err}");
    let id_b = submitted_id(&out);
    wait_for(&sock, "job B to run", |out| {
        out.lines().any(|l| l.contains("midrun") && l.contains("running"))
    });

    // SIGKILL: no drain, no goodbye. A restarted daemon on the same state
    // dir replays the journal: both accepted jobs survive. B was never
    // suspended cleanly, so it restarts (fault plans are engine policy,
    // never persisted — it now completes).
    let d2 = stop_and_restart(d, "-KILL", "sigkill2", &["done", "midrun"]);
    let sock2 = d2.socket.to_str().unwrap();
    // A's pre-crash result and B's post-crash one are both what a serial
    // run computes.
    assert_stored_result_is_serial(sock2, &id_a, &[], &d2.state.join("a.bin"));
    assert_stored_result_is_serial(sock2, &id_b, &["--seed", "7"], &d2.state.join("b.bin"));

    // The dedup registration also survived the crash.
    let (code, out, err) = run(&submit_args(sock2, "done", &["--dedup-key", "dk-a"]));
    assert_eq!(code, 0, "dedup after crash: {err}");
    assert!(out.contains("deduplicated"), "{out}");
    assert_eq!(submitted_id(&out), id_a);
}

/// `--state-dir` is reachable from the command line, so a directory that
/// cannot be created is a typed start-up error, not a panic.
#[test]
fn unusable_state_dir_is_a_startup_error() {
    let file = unique("not_a_dir");
    std::fs::write(&file, b"in the way").unwrap();
    let sock = unique("badstate.sock");
    let (code, _, err) = run(&[
        "serve",
        "--socket",
        sock.to_str().unwrap(),
        "--state-dir",
        file.join("state").to_str().unwrap(),
    ]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("cannot open state directory"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    let _ = std::fs::remove_file(&file);
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
    assert!(err.contains("--qos: unknown value `platinum`"), "{err}");

    // The daemon shrugged all of it off.
    let (code, out, _) = run(&["ping", "--socket", sock]);
    assert_eq!(code, 0);
    assert!(out.contains("alive"), "{out}");
}

/// `hqr submit` generates its matrix, so hostile numerics can only arrive
/// as a hand-built frame: a spec holding a NaN is answered with the typed
/// "invalid" error naming the tile, and the daemon carries on.
#[test]
fn non_finite_spec_over_the_socket_is_a_typed_rejection() {
    let d = start_daemon("nan", &[]);
    let sock = d.socket.to_str().unwrap();
    let argv: Vec<String> =
        submit_args(sock, "hostile", &[])[1..].iter().map(|s| s.to_string()).collect();
    let (mut spec, _) = hqr_cli::service::spec_of_args(&hqr_cli::Args::parse(&argv)).expect("spec");
    let JobInput::Fresh { a, .. } = &mut spec.input else { unreachable!("submit is fresh") };
    a.tile_mut(1, 2)[3] = f64::NAN;

    let mut stream = std::os::unix::net::UnixStream::connect(&d.socket).expect("connect");
    let request = Request::Submit { spec: Box::new(spec), plan: FaultPlan::default() };
    write_frame(&mut stream, &request.to_bytes()).expect("send");
    let answer = read_frame(&mut stream).expect("receive").expect("the daemon answers");
    match Response::from_bytes(answer).expect("a well-formed response") {
        Response::Error { code: 1, message } => {
            assert!(message.contains("tile (1, 2)") && message.contains("non-finite"), "{message}");
        }
        other => panic!("expected the typed invalid-spec error, got {other:?}"),
    }

    let (code, out, err) = run(&["jobs", "--socket", sock]);
    assert_eq!(code, 0, "the daemon stays up: {err}");
    assert!(!out.contains("hostile"), "nothing was accepted: {out}");
}

/// `hqr result` started in the background, for a call that must block.
fn spawn_result(sock: &str, id: &str) -> Child {
    hqr()
        .args(["result", "--socket", sock, "--id", id])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn result")
}

/// Exit code and stderr of `child`, which must end within 30 s.
fn finish(mut child: Child) -> (i32, String) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("try_wait").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("a parked `hqr result` was never released");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("output");
    (out.status.code().unwrap_or(-1), String::from_utf8_lossy(&out.stderr).into_owned())
}

/// A `result` of a job that stalls on injected faults (seconds of them):
/// parked in the daemon until something settles the job or drains the pool.
fn parked_result(sock: &str, tag: &str) -> (String, Child) {
    let stall = ["--inject-fail", "0:4000000", "--retries", "4000001"];
    let (code, out, err) = run(&submit_args(sock, tag, &stall));
    assert_eq!(code, 0, "stalling job: {err}");
    let id = submitted_id(&out);
    let mut child = spawn_result(sock, &id);
    std::thread::sleep(Duration::from_millis(300));
    assert!(child.try_wait().expect("try_wait").is_none(), "`result` must wait for a live job");
    (id, child)
}

#[test]
fn result_blocks_until_the_job_settles() {
    let d = start_daemon("blocking", &[]);
    let sock = d.socket.to_str().unwrap();

    // Issued right after a plain submit, `result` is one exchange that
    // answers with the container once the job completes.
    let (code, out, err) =
        run(&submit_args(sock, "big", &["--rows", "384", "--cols", "192", "--tile", "16"]));
    assert_eq!(code, 0, "submit: {err}");
    let (code, out, err) = run(&["result", "--socket", sock, "--id", &submitted_id(&out)]);
    assert_eq!(code, 0, "result: {err}");
    assert!(out.contains("stored factorization"), "{out}");

    // An unknown id is not waited for.
    let t = Instant::now();
    let (code, _, err) = run(&["result", "--socket", sock, "--id", "4242"]);
    assert_eq!(code, 1);
    assert!(err.contains("no stored result"), "{err}");
    assert!(t.elapsed() < Duration::from_secs(10), "an unknown id fails at once");

    // A parked call on a job that is then cancelled gets the same refusal.
    let (id, child) = parked_result(sock, "doomed");
    let (code, _, err) = run(&["cancel", "--socket", sock, "--id", &id]);
    assert_eq!(code, 0, "cancel: {err}");
    let (code, err) = finish(child);
    assert_eq!(code, 1);
    assert!(err.contains("no stored result"), "{err}");
}

#[test]
fn drain_releases_a_parked_result() {
    let mut d = start_daemon("drain_parked", &["--grace-ms", "50"]);
    let sock = d.socket.to_str().unwrap().to_string();
    let (_, child) = parked_result(&sock, "stalled");
    let (code, out, err) = run(&["drain", "--socket", &sock]);
    assert_eq!(code, 0, "drain: {err}");
    assert!(out.contains("drained:"), "{out}");
    let (code, err) = finish(child);
    assert_eq!(code, 1);
    assert!(err.contains("no stored result"), "{err}");
    assert_eq!(d.wait_timeout_or_kill(), Some(0), "daemon exits 0 after the drain");
}
