//! The `hqr serve` daemon and its client subcommands.
//!
//! `serve` binds a local Unix-domain socket, multiplexes every accepted
//! submission onto one shared [`JobPool`], and answers the framed requests
//! defined in [`crate::proto`]. The robustness contract (see `DESIGN.md`,
//! "Service architecture"):
//!
//! * admission control — submissions whose working set exceeds the memory
//!   budget are rejected with a typed error before any allocation;
//! * backpressure — a bounded queue; when full, a new arrival either sheds
//!   a strictly lower-QoS queued job or is refused;
//! * durability — the daemon is always journaled: every accepted job is in
//!   the write-ahead journal of its state directory before the client
//!   learns the id, and every start replays that journal, so accepted jobs
//!   survive a restart however the last daemon ended;
//! * graceful drain — on SIGTERM (or a `drain` request) the daemon stops
//!   admitting, gives in-flight jobs a grace period, checkpoints the rest
//!   at a quiescent point, and exits 0: the polite special case of a
//!   crash, recovered by the same replay.
//!
//! A client failure never takes the daemon down: every connection runs in
//! its own thread and protocol or I/O errors only end that conversation.

use crate::args::{Args, CliError};
use crate::problem::{
    choice, integrity_of, policy_of, resident_budget_of, threads_of, Defaults, Shape,
};
use crate::proto::{
    read_frame, write_frame, write_response, ProtoError, Request, Response, WireJob,
};
use hqr_runtime::{
    result_from_bytes, DrainReport, DurabilityConfig, FaultPlan, JobPool, JobSpec, JobState,
    PoolConfig, QosClass, SubmitError,
};
use hqr_tile::TiledMatrix;
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Set by the SIGTERM/SIGINT handler; the accept loop polls it.
static STOP: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_signal(_signum: i32) {
        STOP.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    // SIGTERM = 15, SIGINT = 2 on every platform we build the daemon for.
    unsafe {
        signal(15, on_signal as extern "C" fn(i32) as usize);
        signal(2, on_signal as extern "C" fn(i32) as usize);
    }
}

/// Everything a connection thread needs, shared behind an `Arc`.
struct Service {
    pool: JobPool,
    grace: Duration,
    /// First drain wins; later requests (or the SIGTERM path) reuse the
    /// stored report instead of draining twice.
    drained: Mutex<Option<DrainReport>>,
    /// Raised by the connection that answered a `drain` request, once its
    /// `Drained` frame is written; the accept loop then exits.
    exit: AtomicBool,
}

fn default_socket() -> PathBuf {
    std::env::temp_dir().join("hqr.sock")
}

fn socket_of(args: &Args) -> PathBuf {
    args.get("socket").map(PathBuf::from).unwrap_or_else(default_socket)
}

/// `hqr serve`: run the factorization service until SIGTERM or `hqr drain`.
pub fn serve(args: &Args) -> Result<i32, CliError> {
    let socket = socket_of(args);
    let threads = threads_of(args)?;
    let budget_mb = args.usize_or("mem-budget-mb", 0)? as u64;
    // The journal, the per-job checkpoint files and the result store all
    // live under the state directory, `<socket>.state` unless told otherwise.
    let state_dir =
        args.get("state-dir").map_or_else(|| socket.with_extension("state"), PathBuf::from);
    let mut durability = DurabilityConfig::at(&state_dir);
    durability.ckpt_interval = args.millis_or("ckpt-interval-ms", 30_000)?;
    durability.result_cap = args.usize_or("result-cap", 0)?;
    // Disk-growth guards: rotate the journal past a size threshold, and
    // bound the result store by bytes and age as well as count.
    durability.journal_rotate_bytes = (args.usize_or("journal-rotate-kb", 0)? as u64) << 10;
    durability.result_max_bytes = (args.usize_or("result-max-kb", 0)? as u64) << 10;
    durability.result_max_age = match args.usize_or("result-max-age-secs", 0)? as u64 {
        0 => None,
        secs => Some(Duration::from_secs(secs)),
    };
    let cfg = PoolConfig {
        nthreads: threads,
        mem_budget: if budget_mb == 0 { u64::MAX } else { budget_mb << 20 },
        queue_cap: args.usize_or("queue-cap", 64)?,
        max_active: args.usize_or("max-active", 0)?,
        // Jobs whose working set exceeds the resident budget run
        // out-of-core against a spill file, and admission charges only the
        // resident tier.
        resident_budget: resident_budget_of(args)?,
        durability: Some(durability),
        ..PoolConfig::default()
    };
    let grace = args.millis_or("grace-ms", 2000)?;
    args.reject_unknown()?;
    let pool = JobPool::try_new(cfg).map_err(|e| {
        CliError::usage(format!("cannot open state directory {}: {e}", state_dir.display()))
    })?;
    // The journal is the queue: replay it so every job a previous daemon
    // accepted is driven to a terminal state (and so fresh job ids never
    // collide with journaled ones) — the same replay whether that daemon
    // drained on SIGTERM or died by SIGKILL.
    let r = pool
        .recover()
        .map_err(|e| CliError::usage(format!("cannot replay the job journal: {e}")))?;
    if r.total > 0 {
        println!(
            "recovered {} journaled jobs ({} resumed from checkpoint, {} restarted fresh, {} \
             already terminal, {} unrecoverable)",
            r.total,
            r.resumed_from_checkpoint,
            r.restarted_fresh,
            r.completed_retained + r.terminal_retained,
            r.unrecoverable
        );
    }
    let svc =
        Arc::new(Service { pool, grace, drained: Mutex::new(None), exit: AtomicBool::new(false) });

    // A stale socket file from a crashed daemon would make bind fail.
    let _ = std::fs::remove_file(&socket);
    let listener = UnixListener::bind(&socket)
        .map_err(|e| CliError::failed(format!("cannot bind {}: {e}", socket.display())))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| CliError::failed(format!("cannot set the listener nonblocking: {e}")))?;
    install_signal_handlers();
    println!("hqr serve: listening on {} ({threads} worker threads)", socket.display());

    let code = loop {
        if svc.exit.load(Ordering::SeqCst) {
            // A drain request quiesced the pool and has been answered.
            break 0;
        }
        if STOP.swap(false, Ordering::SeqCst) {
            println!("hqr serve: signal received, draining ...");
            if let (report, true) = drain_with(&svc, svc.grace) {
                println!(
                    "hqr serve: drained ({} finished, {} suspended, {} persisted to {})",
                    report.finished,
                    report.suspended.len(),
                    report.persisted,
                    state_dir.display()
                );
                break 0;
            }
            // A drain request got there first: its connection raises `exit`
            // once the client has its answer; keep accepting till then.
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                let svc = Arc::clone(&svc);
                std::thread::Builder::new()
                    .name("hqr-serve-conn".into())
                    .spawn(move || {
                        if let Err(e) = handle_conn(stream, &svc) {
                            eprintln!("hqr serve: connection ended with error: {e}");
                        }
                    })
                    .ok();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => {
                eprintln!("hqr serve: accept failed: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    };
    let _ = std::fs::remove_file(&socket);
    Ok(code)
}

/// Serve one connection: a loop of framed request/response exchanges.
/// Errors end this conversation only — the daemon and its jobs carry on.
fn handle_conn(mut stream: UnixStream, svc: &Service) -> io::Result<()> {
    while let Some(payload) = read_frame(&mut stream)? {
        let response = match Request::from_bytes(payload) {
            Ok(req) => respond(req, svc),
            Err(ProtoError(msg)) => Response::Error { code: 0, message: msg },
        };
        let sent = write_response(&mut stream, &response);
        // Only now may the accept loop exit: raised any earlier, the
        // process could be gone before the client has its `Drained` frame.
        if matches!(response, Response::Drained { .. }) {
            svc.exit.store(true, Ordering::SeqCst);
            return sent;
        }
        sent?;
    }
    Ok(())
}

fn respond(req: Request, svc: &Service) -> Response {
    match req {
        Request::Ping => {
            let live = svc.pool.jobs().iter().filter(|j| !j.state.is_terminal()).count() as u64;
            Response::Pong { live_jobs: live }
        }
        Request::Submit { spec, plan } => {
            let spec = JobSpec { plan: (!plan.is_empty()).then_some(plan), ..*spec };
            match svc.pool.submit_dedup(spec) {
                Ok((id, deduped)) => Response::Submitted { id: id.0, deduped },
                Err(e) => {
                    let code = match &e {
                        SubmitError::Invalid { .. } => 1,
                        SubmitError::OverBudget { .. } => 2,
                        SubmitError::QueueFull { .. } => 3,
                        SubmitError::Draining => 4,
                    };
                    Response::Error { code, message: e.to_string() }
                }
            }
        }
        Request::Jobs => Response::JobList(
            svc.pool
                .jobs()
                .into_iter()
                .map(|j| WireJob {
                    id: j.id.0,
                    tag: j.tag,
                    state: j.state,
                    qos: j.qos,
                    attempts: j.attempts,
                    tasks_done: j.tasks_done as u64,
                    tasks_total: j.tasks_total as u64,
                    error: j.error,
                    wall_ms: j.wall.map(|w| w.as_millis() as u64),
                })
                .collect(),
        ),
        Request::Cancel(id) => Response::Cancelled(svc.pool.cancel(hqr_runtime::JobId(id))),
        // Blocks until the job is settled (or the daemon starts draining).
        Request::Result(id) => match svc.pool.result_bytes(hqr_runtime::JobId(id)) {
            Some(bytes) => Response::ResultBytes(bytes),
            None => Response::Error {
                code: 0,
                message: format!("no stored result for job {id} (not completed, or pruned)"),
            },
        },
        Request::Suspend(id) => Response::Suspended(svc.pool.suspend(hqr_runtime::JobId(id))),
        Request::ResumeJob(id) => Response::Resumed(svc.pool.resume_job(hqr_runtime::JobId(id))),
        Request::Drain { grace_ms } => {
            // A requested grace overrides the daemon default for this drain.
            let grace =
                if grace_ms == u64::MAX { svc.grace } else { Duration::from_millis(grace_ms) };
            let (report, _) = drain_with(svc, grace);
            Response::Drained {
                finished: report.finished as u64,
                suspended: report.suspended.iter().map(|id| id.0).collect(),
                persisted: report.persisted as u64,
            }
        }
    }
}

/// Drain the pool once: the first caller drains and gets `true`, later
/// callers (a second request, the SIGTERM path) get the stored report.
fn drain_with(svc: &Service, grace: Duration) -> (DrainReport, bool) {
    let mut slot = svc.drained.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(report) = slot.as_ref() {
        return (report.clone(), false);
    }
    let report = svc.pool.drain(grace);
    *slot = Some(report.clone());
    (report, true)
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

/// One request/response exchange over a fresh connection. `expect` picks
/// out the one response kind the verb asked for; a daemon-side rejection,
/// any other kind and every transport failure are this side's exit 1.
fn call<T>(
    socket: &Path,
    req: &Request,
    expect: impl FnOnce(Response) -> Result<T, Response>,
) -> Result<T, CliError> {
    let mut stream = UnixStream::connect(socket).map_err(|e| {
        let socket = socket.display();
        CliError::failed(format!("cannot connect to {socket}: {e} (is `hqr serve` running?)"))
    })?;
    write_frame(&mut stream, &req.to_bytes())
        .map_err(|e| CliError::failed(format!("send failed: {e}")))?;
    let payload = read_frame(&mut stream)
        .map_err(|e| CliError::failed(format!("receive failed: {e}")))?
        .ok_or_else(|| CliError::failed("daemon closed the connection without answering"))?;
    match Response::from_bytes(payload).map_err(CliError::failed)? {
        Response::Error { code: 0, message } => Err(CliError::failed(message)),
        Response::Error { code, message } => {
            let why = match code {
                1 => "invalid",
                2 => "over budget",
                3 => "queue full",
                4 => "draining",
                _ => "error",
            };
            Err(CliError::failed(format!("rejected ({why}): {message}")))
        }
        other => expect(other)
            .map_err(|r| CliError::failed(format!("unexpected response from daemon: {r:?}"))),
    }
}

/// The `expect` argument of [`call`]: this response kind, or the response
/// handed back as unexpected.
macro_rules! expect {
    ($kind:pat => $out:expr) => {
        |r| match r {
            $kind => Ok($out),
            r => Err(r),
        }
    };
}

/// `hqr ping`: liveness check against a running daemon.
pub fn ping(args: &Args) -> Result<i32, CliError> {
    let socket = socket_of(args);
    args.reject_unknown()?;
    let live = call(&socket, &Request::Ping, expect!(Response::Pong { live_jobs } => live_jobs))?;
    println!("daemon is alive; {live} live jobs");
    Ok(0)
}

/// Build a [`JobSpec`] from submit arguments (shared by `hqr submit` and
/// the service tests).
pub fn spec_of_args(args: &Args) -> Result<(JobSpec, FaultPlan), CliError> {
    let d = Defaults { rows: 256, cols: 128, tile: 16, ..Defaults::EXEC };
    let shape = Shape::from_args(args, d)?;
    let Shape { b, ib, mt, nt, seed, .. } = shape;
    let mut spec = JobSpec::fresh(shape.hqr().elims.to_ops(), TiledMatrix::random(mt, nt, b, seed));
    spec.ib = Some(ib);
    spec.qos = choice(args, "qos", spec.qos, QosClass::parse, "batch|normal|interactive")?;
    spec.policy = policy_of(args, spec.policy)?;
    spec.integrity = integrity_of(args, spec.integrity)?;
    spec.max_retries = args.usize_or("retries", 0)? as u32;
    spec.job_retries = args.usize_or("job-retries", 0)? as u32;
    spec.deadline = args.parsed("deadline-ms", "an integer")?.map(Duration::from_millis);
    spec.tag = args.str_or("tag", "");
    // Idempotent submission: a retried submit with the same key returns the
    // original job id instead of enqueueing a duplicate.
    spec.dedup_key = args.get("dedup-key").map(String::from);
    // Optional deterministic injection, `--inject-fail TASK:ATTEMPTS`.
    let mut plan = FaultPlan::new(seed);
    if let Some(inj) = args.get("inject-fail") {
        let (task, n) = inj
            .split_once(':')
            .and_then(|(t, n)| Some((t.parse().ok()?, n.parse().ok()?)))
            .ok_or_else(|| {
                CliError::usage(format!("--inject-fail expects TASK:ATTEMPTS, got `{inj}`"))
            })?;
        plan = plan.fail_task(task, n);
    }
    Ok((spec, plan))
}

/// `hqr submit`: send one factorization job to a running daemon.
pub fn submit(args: &Args) -> Result<i32, CliError> {
    let socket = socket_of(args);
    let (spec, plan) = spec_of_args(args)?;
    let wait = args.flag("wait");
    args.reject_unknown()?;
    let submit = Request::Submit { spec: Box::new(spec), plan };
    let accepted = expect!(Response::Submitted { id, deduped } => (id, deduped));
    let (id, deduped) = call(&socket, &submit, accepted)?;
    if deduped {
        println!("submitted job {id} (deduplicated: key matched an existing job)");
    } else {
        println!("submitted job {id}");
    }
    if !wait {
        return Ok(0);
    }
    // `result` answers once the job is settled; whether it carried a result
    // or not, the job's row says how it ended.
    let _ = call(&socket, &Request::Result(id), expect!(Response::ResultBytes(_) => ()));
    let jobs = call(&socket, &Request::Jobs, expect!(Response::JobList(jobs) => jobs))?;
    let job = jobs.iter().find(|j| j.id == id);
    let job =
        job.ok_or_else(|| CliError::failed(format!("job {id} disappeared from the daemon")))?;
    print_job(job);
    Ok(i32::from(job.state != JobState::Completed))
}

fn print_job(j: &WireJob) {
    let wall = j.wall_ms.map(|w| format!("{w} ms")).unwrap_or_else(|| "-".into());
    let tag = if j.tag.is_empty() { "-" } else { &j.tag };
    let err = j.error.as_deref().unwrap_or("");
    println!(
        "{:>5}  {:<11} {:<11} {:>3}  {:>5}/{:<5}  {:>9}  {:<12} {err}",
        j.id,
        j.state.name(),
        j.qos.name(),
        j.attempts,
        j.tasks_done,
        j.tasks_total,
        wall,
        tag
    );
}

/// `hqr jobs`: list every job the daemon knows about.
pub fn jobs(args: &Args) -> Result<i32, CliError> {
    let socket = socket_of(args);
    args.reject_unknown()?;
    let jobs = call(&socket, &Request::Jobs, expect!(Response::JobList(jobs) => jobs))?;
    println!(
        "{:>5}  {:<11} {:<11} {:>3}  {:>11}  {:>9}  {:<12} ERROR",
        "ID", "STATE", "QOS", "TRY", "TASKS", "WALL", "TAG"
    );
    jobs.iter().for_each(print_job);
    Ok(0)
}

fn id_of(args: &Args, verb: &str) -> Result<u64, CliError> {
    args.parsed("id", "an integer")?
        .ok_or_else(|| CliError::usage(format!("{verb} requires --id JOB")))
}

/// `cancel`, `suspend` and `resume-job` are one exchange: name a job by
/// `--id`, get a yes or a no. `done`/`refused` finish "job N ...".
fn job_verb(
    args: &Args,
    verb: &str,
    request: fn(u64) -> Request,
    (done, refused): (&str, &str),
) -> Result<i32, CliError> {
    let (socket, id) = (socket_of(args), id_of(args, verb)?);
    args.reject_unknown()?;
    let yes_or_no =
        expect!(Response::Cancelled(ok) | Response::Suspended(ok) | Response::Resumed(ok) => ok);
    if !call(&socket, &request(id), yes_or_no)? {
        return Err(CliError::failed(format!("job {id} {refused}")));
    }
    println!("job {id} {done}");
    Ok(0)
}

/// `hqr cancel`: cancel one job by `--id`.
pub fn cancel(args: &Args) -> Result<i32, CliError> {
    job_verb(args, "cancel", Request::Cancel, ("cancelled", "is unknown or already terminal"))
}

/// `hqr suspend`: checkpoint a job at its next quiescent point and park it.
pub fn suspend(args: &Args) -> Result<i32, CliError> {
    let says = ("will suspend at its next quiescent point", "is unknown or already terminal");
    job_verb(args, "suspend", Request::Suspend, says)
}

/// `hqr resume-job`: requeue a previously suspended (parked) job.
pub fn resume_job(args: &Args) -> Result<i32, CliError> {
    let says =
        ("requeued from its checkpoint", "is not parked (only suspended jobs can be resumed)");
    job_verb(args, "resume-job", Request::ResumeJob, says)
}

/// `hqr result`: fetch the durably stored factorization of a job, waiting
/// for the job to settle first.
///
/// With `--out FILE` the stored file is written verbatim: the job's
/// checkpoint with every task complete, readable with
/// [`hqr_runtime::result_from_bytes`] or [`hqr_runtime::read_checkpoint`];
/// otherwise a summary is printed.
pub fn result(args: &Args) -> Result<i32, CliError> {
    let (socket, id, out) = (socket_of(args), id_of(args, "result")?, args.get("out"));
    args.reject_unknown()?;
    let bytes = call(&socket, &Request::Result(id), expect!(Response::ResultBytes(b) => b))?;
    if let Some(out) = out {
        std::fs::write(out, &bytes)
            .map_err(|e| CliError::failed(format!("cannot write {out}: {e}")))?;
        println!("wrote {} bytes to {out}", bytes.len());
        return Ok(0);
    }
    let stored = result_from_bytes(bytes)
        .map_err(|e| CliError::failed(format!("stored result is unreadable: {e}")))?;
    let a = &stored.result.a;
    println!(
        "job {}: stored factorization, R/V matrix {}x{} tiles (tile size {})",
        stored.id,
        a.mt(),
        a.nt(),
        a.b()
    );
    Ok(0)
}

/// `hqr drain`: ask the daemon to drain gracefully and exit.
pub fn drain(args: &Args) -> Result<i32, CliError> {
    let socket = socket_of(args);
    // No `--grace-ms` asks for the daemon's own default.
    let grace_ms = args.parsed("grace-ms", "an integer")?.unwrap_or(u64::MAX);
    args.reject_unknown()?;
    let report = expect!(Response::Drained { finished: f, suspended: s, persisted: p } => {
        format!("drained: {f} finished, {} suspended, {p} persisted", s.len())
    });
    println!("{}", call(&socket, &Request::Drain { grace_ms }, report)?);
    Ok(0)
}
