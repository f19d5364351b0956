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

use crate::args::Args;
use crate::proto::{read_frame, write_frame, ProtoError, Request, Response, WireJob, WirePlan};
use hqr::baselines;
use hqr::prelude::*;
use hqr_runtime::{
    result_from_bytes, DrainReport, DurabilityConfig, FaultPlan, IntegrityMode, JobPool, JobSpec,
    JobState, PoolConfig, QosClass, SubmitError,
};
use hqr_tile::{ProcessGrid, TiledMatrix};
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
pub fn serve(args: &Args) -> i32 {
    let socket = socket_of(args);
    let threads = args.usize_or("threads", 4);
    if threads == 0 {
        eprintln!("--threads must be positive");
        return 2;
    }
    let budget_mb = args.usize_or("mem-budget-mb", 0) as u64;
    // The journal, the per-job checkpoint files and the result store all
    // live under the state directory, `<socket>.state` unless told otherwise.
    let state_dir =
        args.get("state-dir").map_or_else(|| socket.with_extension("state"), PathBuf::from);
    let mut durability = DurabilityConfig::at(&state_dir);
    durability.ckpt_interval =
        Duration::from_millis(args.usize_or("ckpt-interval-ms", 30_000) as u64);
    durability.result_cap = args.usize_or("result-cap", 0);
    // Disk-growth guards: rotate the journal past a size threshold, and
    // bound the result store by bytes and age as well as count.
    durability.journal_rotate_bytes = (args.usize_or("journal-rotate-kb", 0) as u64) << 10;
    durability.result_max_bytes = (args.usize_or("result-max-kb", 0) as u64) << 10;
    durability.result_max_age = match args.usize_or("result-max-age-secs", 0) as u64 {
        0 => None,
        secs => Some(Duration::from_secs(secs)),
    };
    let cfg = PoolConfig {
        nthreads: threads,
        mem_budget: if budget_mb == 0 { u64::MAX } else { budget_mb << 20 },
        queue_cap: args.usize_or("queue-cap", 64),
        max_active: args.usize_or("max-active", 0),
        // `--resident-budget-kb` caps each job's in-memory tile tier:
        // jobs whose working set exceeds it run out-of-core against a
        // spill file, and admission charges only the resident tier.
        resident_budget: match args.usize_or("resident-budget-kb", 0) as u64 {
            0 => None,
            kb => Some(kb << 10),
        },
        durability: Some(durability),
        ..PoolConfig::default()
    };
    let pool = match JobPool::try_new(cfg) {
        Ok(pool) => pool,
        Err(e) => {
            eprintln!("cannot open state directory {}: {e}", state_dir.display());
            return 2;
        }
    };
    // The journal is the queue: replay it so every job a previous daemon
    // accepted is driven to a terminal state (and so fresh job ids never
    // collide with journaled ones) — the same replay whether that daemon
    // drained on SIGTERM or died by SIGKILL.
    match pool.recover() {
        Ok(r) if r.total > 0 => println!(
            "recovered {} journaled jobs ({} resumed from checkpoint, {} restarted fresh, {} \
             already terminal, {} unrecoverable)",
            r.total,
            r.resumed_from_checkpoint,
            r.restarted_fresh,
            r.completed_retained + r.terminal_retained,
            r.unrecoverable
        ),
        Ok(_) => {}
        Err(e) => {
            eprintln!("cannot replay the job journal: {e}");
            return 2;
        }
    }
    let svc = Arc::new(Service {
        pool,
        grace: Duration::from_millis(args.usize_or("grace-ms", 2000) as u64),
        drained: Mutex::new(None),
        exit: AtomicBool::new(false),
    });

    // A stale socket file from a crashed daemon would make bind fail.
    let _ = std::fs::remove_file(&socket);
    let listener = match UnixListener::bind(&socket) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", socket.display());
            return 1;
        }
    };
    if let Err(e) = listener.set_nonblocking(true) {
        eprintln!("cannot set the listener nonblocking: {e}");
        return 1;
    }
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
    code
}

/// Serve one connection: a loop of framed request/response exchanges.
/// Errors end this conversation only — the daemon and its jobs carry on.
fn handle_conn(mut stream: UnixStream, svc: &Service) -> io::Result<()> {
    while let Some(payload) = read_frame(&mut stream)? {
        let response = match Request::from_bytes(payload) {
            Ok(req) => respond(req, svc),
            Err(ProtoError(msg)) => Response::Error { code: 0, message: msg },
        };
        let sent = write_frame(&mut stream, &response.to_bytes());
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
            let mut spec = *spec;
            if !plan.is_empty() {
                let built = plan
                    .fail
                    .iter()
                    .fold(FaultPlan::new(plan.seed), |p, &(task, n)| p.fail_task(task, n));
                spec.plan = Some(built);
            }
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

/// One request/response exchange over a fresh connection.
fn rpc(socket: &Path, req: &Request) -> Result<Response, String> {
    let mut stream = UnixStream::connect(socket).map_err(|e| {
        format!("cannot connect to {}: {e} (is `hqr serve` running?)", socket.display())
    })?;
    write_frame(&mut stream, &req.to_bytes()).map_err(|e| format!("send failed: {e}"))?;
    match read_frame(&mut stream) {
        Ok(Some(payload)) => Response::from_bytes(payload).map_err(|e| e.to_string()),
        Ok(None) => Err("daemon closed the connection without answering".into()),
        Err(e) => Err(format!("receive failed: {e}")),
    }
}

/// `hqr ping`: liveness check against a running daemon.
pub fn ping(args: &Args) -> i32 {
    match rpc(&socket_of(args), &Request::Ping) {
        Ok(Response::Pong { live_jobs }) => {
            println!("daemon is alive; {live_jobs} live jobs");
            0
        }
        Ok(other) => unexpected(other),
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

/// Build a [`JobSpec`] from submit arguments (shared by `hqr submit` and
/// the service tests).
pub fn spec_of_args(args: &Args) -> Result<(JobSpec, WirePlan), String> {
    let rows = args.usize_or("rows", 256);
    let cols = args.usize_or("cols", 128);
    let b = args.usize_or("tile", 16);
    let grid = args.grid_or("grid", (2, 1));
    let seed = args.usize_or("seed", 42) as u64;
    for (name, v) in
        [("rows", rows), ("cols", cols), ("tile", b), ("grid (P)", grid.0), ("grid (Q)", grid.1)]
    {
        if v == 0 {
            return Err(format!("--{name} must be positive"));
        }
    }
    if rows < cols {
        return Err("submit expects rows >= cols".into());
    }
    let (mt, nt) = (rows.div_ceil(b), cols.div_ceil(b));
    let cfg = HqrConfig::new(grid.0, grid.1)
        .with_a(args.usize_or("a", 1))
        .with_low(parse_tree(args, "low", TreeKind::Greedy)?)
        .with_high(parse_tree(args, "high", TreeKind::Fibonacci)?)
        .with_domino(args.flag("domino"));
    let setup = baselines::hqr(mt, nt, ProcessGrid::new(grid.0, grid.1), cfg);
    let mut spec = JobSpec::fresh(setup.elims.to_ops(), TiledMatrix::random(mt, nt, b, seed));
    if let Some(ib) = args.get("ib") {
        let ib: usize = ib.parse().map_err(|_| format!("--ib expects an integer, got `{ib}`"))?;
        if ib == 0 || ib > b {
            return Err(format!("--ib must be in 1..={b}, got {ib}"));
        }
        spec.ib = Some(ib);
    }
    if let Some(q) = args.get("qos") {
        spec.qos = QosClass::parse(q)
            .ok_or_else(|| format!("--qos: unknown class `{q}` (batch|normal|interactive)"))?;
    }
    if let Some(p) = args.get("policy") {
        spec.policy = hqr_runtime::SchedPolicy::parse(p)
            .ok_or_else(|| format!("--policy: unknown policy `{p}` (fifo|panel|cp)"))?;
    }
    if let Some(m) = args.get("integrity") {
        spec.integrity = IntegrityMode::parse(m)
            .ok_or_else(|| format!("--integrity: unknown mode `{m}` (off|spot|full)"))?;
    }
    spec.max_retries = args.usize_or("retries", 0) as u32;
    spec.job_retries = args.usize_or("job-retries", 0) as u32;
    if let Some(ms) = args.get("deadline-ms") {
        let ms: u64 =
            ms.parse().map_err(|_| format!("--deadline-ms expects an integer, got `{ms}`"))?;
        spec.deadline = Some(Duration::from_millis(ms));
    }
    spec.tag = args.str_or("tag", "");
    // Idempotent submission: a retried submit with the same key returns the
    // original job id instead of enqueueing a duplicate.
    spec.dedup_key = args.get("dedup-key").map(String::from);
    // Optional deterministic injection, `--inject-fail TASK:ATTEMPTS`.
    let mut plan = WirePlan { seed, fail: Vec::new() };
    if let Some(inj) = args.get("inject-fail") {
        let (task, n) = inj
            .split_once(':')
            .and_then(|(t, n)| Some((t.parse().ok()?, n.parse().ok()?)))
            .ok_or_else(|| format!("--inject-fail expects TASK:ATTEMPTS, got `{inj}`"))?;
        plan.fail.push((task, n));
    }
    Ok((spec, plan))
}

fn parse_tree(args: &Args, key: &str, default: TreeKind) -> Result<TreeKind, String> {
    match args.get(key) {
        None => Ok(default),
        Some(v) => TreeKind::parse(v)
            .ok_or_else(|| format!("--{key}: unknown tree `{v}` (flat|binary|greedy|fibonacci)")),
    }
}

/// `hqr submit`: send one factorization job to a running daemon.
pub fn submit(args: &Args) -> i32 {
    let socket = socket_of(args);
    let (spec, plan) = match spec_of_args(args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let id = match rpc(&socket, &Request::Submit { spec: Box::new(spec), plan }) {
        Ok(Response::Submitted { id, deduped }) => {
            if deduped {
                println!("submitted job {id} (deduplicated: key matched an existing job)");
            } else {
                println!("submitted job {id}");
            }
            id
        }
        Ok(Response::Error { code, message }) => {
            eprintln!("rejected ({}): {message}", reject_name(code));
            return 1;
        }
        Ok(other) => return unexpected(other),
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    if !args.flag("wait") {
        return 0;
    }
    // Poll until the job reaches a terminal state.
    loop {
        std::thread::sleep(Duration::from_millis(50));
        let jobs = match rpc(&socket, &Request::Jobs) {
            Ok(Response::JobList(jobs)) => jobs,
            Ok(other) => return unexpected(other),
            Err(e) => {
                eprintln!("{e}");
                return 1;
            }
        };
        let Some(job) = jobs.iter().find(|j| j.id == id) else {
            eprintln!("job {id} disappeared from the daemon");
            return 1;
        };
        if job.state.is_terminal() {
            print_job(job);
            return if job.state == JobState::Completed { 0 } else { 1 };
        }
    }
}

fn reject_name(code: u64) -> &'static str {
    match code {
        1 => "invalid",
        2 => "over budget",
        3 => "queue full",
        4 => "draining",
        _ => "error",
    }
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
pub fn jobs(args: &Args) -> i32 {
    match rpc(&socket_of(args), &Request::Jobs) {
        Ok(Response::JobList(jobs)) => {
            println!(
                "{:>5}  {:<11} {:<11} {:>3}  {:>11}  {:>9}  {:<12} ERROR",
                "ID", "STATE", "QOS", "TRY", "TASKS", "WALL", "TAG"
            );
            for j in &jobs {
                print_job(j);
            }
            0
        }
        Ok(other) => unexpected(other),
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

/// `hqr cancel`: cancel one job by `--id`.
pub fn cancel(args: &Args) -> i32 {
    let Some(id) = args.get("id") else {
        eprintln!("cancel requires --id JOB");
        return 2;
    };
    let Ok(id) = id.parse::<u64>() else {
        eprintln!("--id expects an integer, got `{id}`");
        return 2;
    };
    match rpc(&socket_of(args), &Request::Cancel(id)) {
        Ok(Response::Cancelled(true)) => {
            println!("job {id} cancelled");
            0
        }
        Ok(Response::Cancelled(false)) => {
            eprintln!("job {id} is unknown or already terminal");
            1
        }
        Ok(other) => unexpected(other),
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

fn id_of(args: &Args, verb: &str) -> Result<u64, i32> {
    let Some(id) = args.get("id") else {
        eprintln!("{verb} requires --id JOB");
        return Err(2);
    };
    id.parse::<u64>().map_err(|_| {
        eprintln!("--id expects an integer, got `{id}`");
        2
    })
}

/// `hqr result`: fetch the durably stored factorization of a completed job.
///
/// With `--out FILE` the raw result container is written verbatim (the same
/// sectioned format the daemon persisted, readable with
/// [`hqr_runtime::result_from_bytes`]); otherwise a summary is printed.
pub fn result(args: &Args) -> i32 {
    let id = match id_of(args, "result") {
        Ok(id) => id,
        Err(code) => return code,
    };
    match rpc(&socket_of(args), &Request::Result(id)) {
        Ok(Response::ResultBytes(bytes)) => {
            if let Some(out) = args.get("out") {
                if let Err(e) = std::fs::write(out, &bytes) {
                    eprintln!("cannot write {out}: {e}");
                    return 1;
                }
                println!("wrote {} bytes to {out}", bytes.len());
                return 0;
            }
            match result_from_bytes(bytes) {
                Ok(stored) => {
                    let a = &stored.result.a;
                    println!(
                        "job {}: stored factorization, R/V matrix {}x{} tiles (tile size {})",
                        stored.id,
                        a.mt(),
                        a.nt(),
                        a.b()
                    );
                    0
                }
                Err(e) => {
                    eprintln!("stored result is unreadable: {e}");
                    1
                }
            }
        }
        Ok(Response::Error { message, .. }) => {
            eprintln!("{message}");
            1
        }
        Ok(other) => unexpected(other),
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

/// `hqr suspend`: checkpoint a job at its next panel boundary and park it.
pub fn suspend(args: &Args) -> i32 {
    let id = match id_of(args, "suspend") {
        Ok(id) => id,
        Err(code) => return code,
    };
    match rpc(&socket_of(args), &Request::Suspend(id)) {
        Ok(Response::Suspended(true)) => {
            println!("job {id} will suspend at its next quiescent point");
            0
        }
        Ok(Response::Suspended(false)) => {
            eprintln!("job {id} is unknown or already terminal");
            1
        }
        Ok(other) => unexpected(other),
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

/// `hqr resume-job`: requeue a previously suspended (parked) job.
pub fn resume_job(args: &Args) -> i32 {
    let id = match id_of(args, "resume-job") {
        Ok(id) => id,
        Err(code) => return code,
    };
    match rpc(&socket_of(args), &Request::ResumeJob(id)) {
        Ok(Response::Resumed(true)) => {
            println!("job {id} requeued from its checkpoint");
            0
        }
        Ok(Response::Resumed(false)) => {
            eprintln!("job {id} is not parked (only suspended jobs can be resumed)");
            1
        }
        Ok(other) => unexpected(other),
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

/// `hqr drain`: ask the daemon to drain gracefully and exit.
pub fn drain(args: &Args) -> i32 {
    let grace_ms = match args.get("grace-ms") {
        None => u64::MAX, // daemon default
        Some(v) => match v.parse() {
            Ok(ms) => ms,
            Err(_) => {
                eprintln!("--grace-ms expects an integer, got `{v}`");
                return 2;
            }
        },
    };
    match rpc(&socket_of(args), &Request::Drain { grace_ms }) {
        Ok(Response::Drained { finished, suspended, persisted }) => {
            println!(
                "drained: {finished} finished, {} suspended, {persisted} persisted",
                suspended.len()
            );
            0
        }
        Ok(other) => unexpected(other),
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

fn unexpected(resp: Response) -> i32 {
    eprintln!("unexpected response from daemon: {resp:?}");
    1
}
