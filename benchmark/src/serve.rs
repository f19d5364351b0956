//! Workload `serve`: a closed loop of small plain-kernel jobs from two
//! client connections to a child `hqr serve` daemon with a durable state
//! directory. One operation is `Submit`, then `Result(id)` polled every
//! millisecond until the result container arrives and decodes.
//!
//! The traced pass adds the in-process probes of the layers under the
//! daemon: the same job mix and the same two-submitter closed loop against
//! the bare executor, a volatile `JobPool` and a durable one.

use crate::guards::{exchange, Daemon, TempDir, OP_DEADLINE};
use crate::kernels::record_kernel_metrics;
use crate::metrics::Metrics;
use crate::problem::{Problem, THREADS};
use crate::run::{record_stage_metrics, repeat_setup, Ctx, Effort, OpLog, Report};
use crate::spans::Spans;
use crate::stats::{median, percentile};
use crate::sysinfo;
use crate::verify::{verify, Factored};
use hqr_cli::proto::{Request, Response, WirePlan};
use hqr_runtime::{
    execute_serial, result_from_bytes, try_execute_with, DurabilityConfig, ExecOptions, JobPool,
    JobResult, JobSpec, JobState, PoolConfig,
};
use hqr_tile::TiledMatrix;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

const LAYER: &str = "hqr-cli::service";
/// Results kept for bit-comparison: each client's first and last job and
/// every this-many-th of its jobs.
const VERIFY_EVERY: u64 = 50;
const POLL_INTERVAL: Duration = Duration::from_millis(1);
/// Warm-up jobs draw their inputs from seeds far from the timed jobs'.
const WARM_SEED_OFFSET: u64 = 1 << 32;

/// Per-attempt wall budget and re-run budget every job carries.
///
/// The benchmark found a race in `hqr_runtime::pool`: `activate_job`
/// publishes the initial frontier after the job is visible to the workers,
/// so a task released by a worker in the meantime is queued twice, runs
/// twice, and the job's `remaining` count wraps below zero; the job then
/// stays `Running` for ever (`tasks_done: 81` of 80). It strikes about one
/// job in two thousand here. With a deadline the pool's own supervisor
/// halts such a job and re-runs it from its retained input, which is what a
/// client of a service does anyway; the operation is then slow, not lost.
/// Ordinary jobs finish in well under a tenth of the deadline.
const JOB_DEADLINE: Duration = Duration::from_millis(500);
const JOB_RETRIES: u32 = 3;

fn job_input(p: &Problem, seed: u64) -> TiledMatrix {
    TiledMatrix::random(p.shape.mt(), p.shape.nt(), p.shape.b, seed)
}

/// The job every layer of this workload runs: `p`'s plan on input `seed`,
/// default kernels and policy.
fn job_spec(p: &Problem, seed: u64) -> JobSpec {
    JobSpec {
        deadline: Some(JOB_DEADLINE),
        job_retries: JOB_RETRIES,
        ..JobSpec::fresh(p.elims.clone(), job_input(p, seed))
    }
}

/// What one client saw over its share of the loop.
#[derive(Default)]
struct ClientLog {
    log: OpLog,
    submit_rtt: Vec<f64>,
    fetch_rtt: Vec<f64>,
    polls: u64,
    spec_bytes: usize,
    result_bytes: usize,
    /// `(input seed, decoded result)` of the jobs to bit-compare.
    kept: Vec<(u64, JobResult)>,
    /// The most recent result not in `kept`, so that the last job of the
    /// loop, whichever it turns out to be, can be compared as well.
    latest: Option<(u64, JobResult)>,
}

/// One job through the socket; returns its wall seconds.
fn serve_op(
    stream: &mut UnixStream,
    p: &Problem,
    input_seed: u64,
    keep: bool,
    out: &mut ClientLog,
    spans: &mut Spans,
) -> Result<f64, String> {
    let spec = Box::new(job_spec(p, input_seed));
    let (res, wall) = spans.time("op", LAYER, Some(input_seed), |s| {
        let req = Request::Submit { spec, plan: WirePlan::default() };
        let (resp, rtt) = s.time("Submit", LAYER, None, |_| exchange(stream, &req));
        let id = match resp? {
            (Response::Submitted { id, .. }, sent, _) => {
                out.submit_rtt.push(rtt);
                out.spec_bytes = sent;
                id
            }
            (other, ..) => return Err(format!("submit refused: {other:?}")),
        };
        let deadline = Instant::now() + OP_DEADLINE;
        let bytes = loop {
            out.polls += 1;
            let (resp, rtt) =
                s.time("Result", LAYER, None, |_| exchange(stream, &Request::Result(id)));
            match resp? {
                (Response::ResultBytes(bytes), _, received) => {
                    out.fetch_rtt.push(rtt);
                    out.result_bytes = received;
                    break bytes;
                }
                // "No stored result" until the job completes.
                (Response::Error { .. }, ..) if Instant::now() < deadline => {
                    std::thread::sleep(POLL_INTERVAL)
                }
                (other, ..) => {
                    // Say where the daemon thinks the job is.
                    let state = match exchange(stream, &Request::Jobs) {
                        Ok((Response::JobList(jobs), ..)) => jobs.into_iter().find(|j| j.id == id),
                        _ => None,
                    };
                    return Err(format!(
                        "job {id} gave no result within the deadline: {other:?}; {state:?}"
                    ));
                }
            }
        };
        let decoded = s
            .time("result_from_bytes", "hqr-runtime::journal", None, |_| result_from_bytes(bytes))
            .0;
        let decoded = decoded.map_err(|e| format!("job {id}: result does not decode: {e}"))?;
        if decoded.id != id {
            return Err(format!("asked for job {id}, got the result of job {}", decoded.id));
        }
        Ok(decoded.result)
    });
    let result = res.map_err(|e| format!("job with input seed {input_seed}: {e}"))?;
    if keep {
        out.kept.push((input_seed, result));
        out.latest = None;
    } else {
        out.latest = Some((input_seed, result));
    }
    Ok(wall)
}

/// The closed loop: `THREADS` clients, each with its own connection, each
/// submitting its next job only once the previous one is decoded. Client
/// `c` runs jobs `c, c + THREADS, ...`; job `i` factors input `seed + i`.
/// Every client runs `jobs_per_client` jobs.
fn closed_loop(
    daemon: &Daemon,
    p: &Problem,
    seed: u64,
    jobs_per_client: usize,
    verify: bool,
    spans: &mut Spans,
) -> Result<(Vec<ClientLog>, f64), String> {
    let t0 = Instant::now();
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS as u64)
            .map(|c| {
                let mut spans = spans.fork(c as u32 + 1);
                scope.spawn(move || {
                    let mut out = ClientLog::default();
                    let mut stream = match daemon.connect() {
                        Ok(s) => s,
                        Err(e) => {
                            out.log.fail(e);
                            return (out, spans);
                        }
                    };
                    for k in 0..jobs_per_client as u64 {
                        let i = c + k * THREADS as u64;
                        let keep = verify && k % VERIFY_EVERY == 0;
                        match serve_op(
                            &mut stream,
                            p,
                            seed.wrapping_add(i),
                            keep,
                            &mut out,
                            &mut spans,
                        ) {
                            Ok(wall) => out.log.ok(wall),
                            Err(why) => {
                                out.log.fail(why);
                                break;
                            }
                        }
                    }
                    out.kept.extend(out.latest.take().filter(|_| verify));
                    (out, spans)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut out = Vec::new();
    for joined in logs {
        let (log, client_spans) = joined.map_err(|_| "a client thread panicked".to_string())?;
        spans.absorb(client_spans);
        out.push(log);
    }
    Ok((out, wall))
}

/// Jobs per second of `jobs` jobs pushed through `per_job` by `THREADS`
/// submitters in a closed loop, with each job's wall seconds.
fn submitter_loop(
    jobs: usize,
    per_job: impl Fn(u64) -> Result<(), String> + Sync,
) -> Result<(f64, Vec<f64>), String> {
    let t0 = Instant::now();
    let walls = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|c| {
                let per_job = &per_job;
                scope.spawn(move || {
                    (c..jobs)
                        .step_by(THREADS)
                        .map(|i| {
                            let t = Instant::now();
                            per_job(i as u64).map(|()| t.elapsed().as_secs_f64())
                        })
                        .collect::<Result<Vec<f64>, String>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "a submitter thread panicked".to_string())?)
            .collect::<Result<Vec<Vec<f64>>, String>>()
    })?;
    let wall = t0.elapsed().as_secs_f64();
    Ok((jobs as f64 / wall, walls.concat()))
}

/// The same loop against a `JobPool`: `submit`, then `wait`.
fn pool_probe(
    p: &Problem,
    seed: u64,
    jobs: usize,
    state_dir: Option<&Path>,
) -> Result<(f64, Vec<f64>), String> {
    let pool = JobPool::new(PoolConfig {
        nthreads: THREADS,
        durability: state_dir
            .map(|d| DurabilityConfig { result_cap: 16, ..DurabilityConfig::at(d) }),
        ..PoolConfig::default()
    });
    let out = submitter_loop(jobs, |i| {
        let id = pool
            .submit(job_spec(p, seed.wrapping_add(i)))
            .map_err(|e| format!("pool submit: {e}"))?;
        match pool.wait(id) {
            Some(o) if o.state == JobState::Completed => Ok(()),
            other => Err(format!(
                "pool job {i} did not complete: {:?}",
                other.map(|o| (o.state, o.error))
            )),
        }
    });
    pool.shutdown();
    out
}

/// The in-process layer probes under the daemon.
fn probe_layers(
    p: &Problem,
    seed: u64,
    effort: &Effort,
    serve_jobs_per_s: f64,
    layers: &mut Metrics,
    samples: &mut Vec<(String, Vec<f64>)>,
    spans: &mut Spans,
) -> Result<(), String> {
    let jobs = effort.pool_jobs;
    // Bare executor: each submitter factors its jobs back to back on one
    // thread, so the loop uses the same two cores the pool's workers do.
    let bare_loop = |_: &mut Spans| {
        submitter_loop(jobs, |i| {
            let mut a = job_input(p, seed.wrapping_add(i));
            try_execute_with(&p.graph, &mut a, &ExecOptions::with_threads(1))
                .map(|_| ())
                .map_err(|e| format!("bare job {i}: {e}"))
        })
    };
    let (bare, _) = spans.time("bare executor loop", "hqr-runtime::exec", None, bare_loop).0?;
    let (volatile, walls) = spans
        .time("volatile pool loop", "hqr-runtime::pool", None, |_| pool_probe(p, seed, jobs, None))
        .0?;
    let state = TempDir::new("pool-state")?;
    let (durable, _) = spans
        .time("durable pool loop", "hqr-runtime::journal", None, |_| {
            pool_probe(p, seed, jobs, Some(state.path()))
        })
        .0?;
    layers.set("pool.bare_exec_jobs_per_s", bare);
    layers.set("pool.volatile_jobs_per_s", volatile);
    layers.set("pool.overhead_frac", 1.0 - volatile / bare);
    layers.set("pool.job_wall_p50_s", median(&walls));
    layers.set("journal.durable_jobs_per_s", durable);
    layers.set("journal.overhead_frac", 1.0 - durable / volatile);
    layers.set("serve.overhead_frac", 1.0 - serve_jobs_per_s / durable);
    samples.push(("pool_job_wall_s".to_string(), walls));
    Ok(())
}

pub fn run(ctx: &mut Ctx) -> Result<Report, String> {
    let (args, effort, shape) = (ctx.args, ctx.args.effort(), ctx.args.shape());
    // Each set-up repeat starts a daemon on a fresh state directory and
    // stops the previous one.
    let setup = repeat_setup(ctx, |s| {
        s.time("daemon up to first Pong", LAYER, None, |_| Daemon::start(THREADS)).0
    })?;
    let (p, daemon, spans) = (&setup.problem, &setup.backend, &mut ctx.spans);

    let mut ping_rtt = Vec::new();
    if args.traced {
        let mut stream = daemon.connect()?;
        for _ in 0..effort.pings {
            let (resp, rtt) =
                spans.time("Ping", LAYER, None, |_| exchange(&mut stream, &Request::Ping));
            resp?;
            ping_rtt.push(rtt);
        }
    }

    let warm_per_client = effort.warm_ops.div_ceil(THREADS);
    let warm_seed = args.seed.wrapping_add(WARM_SEED_OFFSET);
    let warm = |s: &mut Spans| closed_loop(daemon, p, warm_seed, warm_per_client, false, s);
    let (warm, _) = spans.time("warm-up", "bench", None, warm).0?;
    if let Some(why) = warm.iter().find_map(|c| c.log.failures.first()) {
        return Err(format!("warm-up failed: {why}"));
    }

    let jobs_per_client =
        effort.fixed_ops.ok_or("serve runs a fixed number of jobs")?.div_ceil(THREADS);
    let (clients, timed_wall) = closed_loop(daemon, p, args.seed, jobs_per_client, true, spans)?;
    // The daemon does the work; read its high-water mark before it drains.
    let peak_rss_mb = sysinfo::peak_rss_mb(daemon.pid()).unwrap_or(0.0);

    let mut log = OpLog::default();
    let (mut submit_rtt, mut fetch_rtt, mut polls, mut kept) =
        (Vec::new(), Vec::new(), 0, Vec::new());
    let (spec_bytes, result_bytes) = (clients[0].spec_bytes, clients[0].result_bytes);
    for c in clients {
        log.absorb(c.log);
        submit_rtt.extend(c.submit_rtt);
        fetch_rtt.extend(c.fetch_rtt);
        polls += c.polls;
        kept.extend(c.kept);
    }
    if log.failed == 0 {
        let (check, _) = spans.time("verify", "bench", None, |_| {
            kept.iter().try_for_each(|(input_seed, result)| {
                let input = job_input(p, *input_seed);
                let mut a_ref = input.clone();
                let f_ref = execute_serial(&p.graph, &mut a_ref);
                let out = Factored { a: &result.a, factors: &result.factors };
                verify(&input, &out, &Factored { a: &a_ref, factors: &f_ref }, *input_seed)
                    .map_err(|e| format!("job with input seed {input_seed}: {e}"))
            })
        });
        if let Err(why) = check {
            log.fail_verification(why);
        }
    }

    let mut layers = Metrics::default();
    let mut samples = vec![("verified_jobs".to_string(), vec![kept.len() as f64])];
    if args.traced && log.failed == 0 {
        record_stage_metrics(&mut layers, &setup.stages, p);
        record_kernel_metrics(&mut layers, &shape, effort.kernel_calls, spans);
        let jobs_per_s = log.walls.len() as f64 / timed_wall;
        layers.set("serve.jobs_per_s", jobs_per_s);
        layers.set("serve.op_p90_s", percentile(&log.walls, 90.0));
        layers.set("serve.ping_rtt_p50_us", median(&ping_rtt) * 1e6);
        layers.set("serve.submit_rtt_p50_ms", median(&submit_rtt) * 1e3);
        layers.set("serve.result_fetch_p50_ms", median(&fetch_rtt) * 1e3);
        layers.set("serve.polls_per_job", polls as f64 / log.walls.len() as f64);
        layers.set("serve.spec_bytes", spec_bytes as f64);
        layers.set("serve.result_bytes", result_bytes as f64);
        // The daemon is idle from here on; the probes have both cores.
        probe_layers(p, args.seed, &effort, jobs_per_s, &mut layers, &mut samples, spans)?;
        samples.push(("ping_rtt_s".to_string(), ping_rtt));
        samples.push(("submit_rtt_s".to_string(), submit_rtt));
        samples.push(("result_fetch_rtt_s".to_string(), fetch_rtt));
    }

    Ok(Report {
        log,
        timed_wall,
        setup_seconds: setup.seconds.clone(),
        peak_rss_mb,
        layers,
        samples,
        warm_ops: warm_per_client * THREADS,
        tmp_fs: Some(sysinfo::fs_kind(daemon.dir())),
    })
}
