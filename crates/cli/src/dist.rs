//! The distributed-backend subcommands: `hqr worker`, `hqr dist`, and
//! `hqr calibrate`.
//!
//! `worker` runs one tile-worker process; `dist` drives a fleet of them
//! (external via `--workers`, or spawned in-process via `--spawn`)
//! through a full factorization with optional chaos injection; and
//! `calibrate` measures the real loopback transport and persists LogGP
//! parameters the simulator can load with `--net-calib`.

use crate::args::{Args, CliError};
use crate::problem::{bitwise_vs_serial, Defaults, Problem, Shape};
use hqr_net::{
    factorize, measure_loopback, shutdown_workers, spawn_local, DistConfig, DistReport,
    WorkerOptions,
};
use hqr_runtime::task::SlotFamily;
use hqr_runtime::FaultPlan;
use hqr_sim::{LinkModel, Platform};
use hqr_tile::ProcessGrid;
use std::collections::HashSet;
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

/// `hqr worker`: hold a shard of tiles and run its share of each run's
/// DAG over TCP until told to shut down (or until a configured kill-point
/// for chaos tests).
pub fn worker(args: &Args) -> Result<i32, CliError> {
    let listen = args.str_or("listen", "127.0.0.1:0");
    let opts = WorkerOptions {
        die_after_tasks: args.parsed("die-after-tasks", "an integer")?,
        die_hard: args.flag("die-hard"),
        slow_task_ms: args.usize_or("slow-ms", 0)? as u64,
    };
    args.reject_unknown()?;
    let listener =
        TcpListener::bind(&listen).map_err(|e| CliError::usage(format!("bind {listen}: {e}")))?;
    let addr = listener.local_addr().map_err(|e| CliError::usage(format!("local_addr: {e}")))?;
    println!("worker pid {} listening on {addr}", std::process::id());
    hqr_net::serve(listener, opts).map_err(|e| CliError::failed(format!("worker failed: {e}")))?;
    Ok(0)
}

fn parse_worker_addrs(spec: &str) -> Result<Vec<SocketAddr>, CliError> {
    spec.split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| {
            s.trim()
                .parse::<SocketAddr>()
                .map_err(|e| CliError::usage(format!("--workers: bad address `{s}`: {e}")))
        })
        .collect()
}

/// `hqr dist`: distributed factorization across a worker fleet.
pub fn dist(args: &Args) -> Result<i32, CliError> {
    let d = Defaults { rows: 384, cols: 160, tile: 16, whole_tiles: true, ..Defaults::EXEC };
    let p = Problem::from_args(args, d)?;
    let Shape { rows, cols, b, ib, mt, nt, .. } = p.shape;
    if mt < nt {
        return Err(CliError::usage("need rows >= cols and at least one full tile each way"));
    }
    // The fleet: external addresses, or workers spawned in this process.
    let spawn_n = args.usize_or("spawn", 0)?;
    let external = args.get("workers").map_or(Ok(Vec::new()), parse_worker_addrs)?;
    if external.is_empty() == (spawn_n == 0) {
        return Err(CliError::usage("pass exactly one of --workers a:p,b:p,... or --spawn N"));
    }
    let workers = spawn_n + external.len();
    let mut cfg = DistConfig::for_workers(workers);
    if let Some(g) = args.get("worker-grid") {
        let (wp, wq) = args.grid_or("worker-grid", (0, 0))?;
        if wp * wq != workers {
            return Err(CliError::usage(format!(
                "--worker-grid {g} does not cover {workers} workers"
            )));
        }
        cfg.grid = ProcessGrid::new(wp, wq);
    }
    cfg.rpc_timeout = args.millis_or("rpc-timeout-ms", 5_000)?;
    cfg.stall_timeout = args.millis_or("stall-timeout-ms", 60_000)?;
    cfg.retry.max_attempts = args.usize_or("retries", 3)? as u32;
    cfg.fault = FaultPlan::new(p.shape.seed)
        .drop_rpcs(args.f64_or("drop-frac", 0.0)?)
        .delay_rpcs(args.f64_or("delay-frac", 0.0)?, args.millis_or("delay-ms", 2)?);
    let (verify, trace) = (args.flag("verify"), args.get("trace"));
    args.reject_unknown()?;

    let mut locals = Vec::new();
    for _ in 0..spawn_n {
        match spawn_local(WorkerOptions::default()) {
            Ok(w) => locals.push(w),
            Err(e) => {
                shutdown_workers(&locals.iter().map(|w| w.addr).collect::<Vec<_>>());
                return Err(CliError::failed(format!("spawn worker: {e}")));
            }
        }
    }
    let addrs: Vec<SocketAddr> =
        if spawn_n > 0 { locals.iter().map(|w| w.addr).collect() } else { external };
    let input = p.input();
    println!("algorithm : {}", p.setup.name);
    println!("matrix    : {rows} x {cols} ({mt} x {nt} tiles of {b}, ib {ib})");
    println!(
        "fleet     : {} workers on a {}x{} tile-owner grid",
        addrs.len(),
        cfg.grid.p,
        cfg.grid.q
    );

    let t0 = Instant::now();
    let result = factorize(&addrs, &p.graph, &input, ib, &cfg);
    if spawn_n > 0 {
        shutdown_workers(&addrs);
        for w in locals {
            let _ = w.join();
        }
    }
    let (a, factors, report) =
        result.map_err(|e| CliError::failed(format!("distributed factorization failed: {e}")))?;
    // What the coordinator has to move: every tile out, every slot some
    // task wrote back in. Anything beyond that was relayed through it.
    let written: HashSet<_> = p.graph.tasks().iter().flat_map(|t| t.writes()).collect();
    let gathered: usize = written.iter().map(|&(fam, ..)| fam.slot_len(b, ib)).sum();
    let scatter_gather = (mt * nt * SlotFamily::A.slot_len(b, ib) + gathered) as u64;
    let relayed = report.coordinator_floats.saturating_sub(scatter_gather);
    print_report(&report, relayed, t0.elapsed());

    if let Some(path) = trace {
        std::fs::write(path, trace_text(&report, relayed))
            .map_err(|e| CliError::failed(format!("write {path}: {e}")))?;
        println!("trace     : {path}");
    }
    if verify {
        let ok = bitwise_vs_serial(&p.graph, &input, ib, &a, &factors);
        println!("verify    : {}", if ok { "bitwise-identical to serial" } else { "DIVERGED" });
        return Ok(i32::from(!ok));
    }
    Ok(0)
}

fn print_report(report: &DistReport, relayed: u64, wall: Duration) {
    println!("tasks     : {} total, per worker {:?}", report.tasks_total, report.tasks_by_worker);
    println!(
        "transfers : {} ({:.1} MB moved), {} rpc retries",
        report.transfers,
        report.floats_moved as f64 * 8.0 / 1e6,
        report.rpc_retries
    );
    println!(
        "peers     : {} pushes worker -> worker, {:.1} MB through the coordinator",
        report.peer_transfers,
        report.coordinator_floats as f64 * 8.0 / 1e6
    );
    println!("relayed   : {relayed}");
    println!(
        "elapsed   : {:.1} ms (wall {:.1} ms)",
        report.elapsed.as_secs_f64() * 1e3,
        wall.as_secs_f64() * 1e3
    );
    for r in &report.recoveries {
        println!(
            "recovery  : worker {} condemned ({}); {} tasks requeued, {} slots rebuilt (closure {})",
            r.worker, r.reason, r.tasks_requeued, r.slots_rebuilt, r.closure_len
        );
    }
}

/// The coordinator trace artifact: a line-oriented account of the run
/// suitable for CI upload and post-mortem reading.
fn trace_text(report: &DistReport, relayed: u64) -> String {
    let mut out = String::from("# hqr dist coordinator trace v1\n");
    out.push_str(&format!("workers {}\n", report.workers));
    out.push_str(&format!("tasks_total {}\n", report.tasks_total));
    for (w, n) in report.tasks_by_worker.iter().enumerate() {
        out.push_str(&format!("tasks_worker {w} {n}\n"));
    }
    out.push_str(&format!("transfers {}\n", report.transfers));
    out.push_str(&format!("floats_moved {}\n", report.floats_moved));
    out.push_str(&format!("peer_transfers {}\n", report.peer_transfers));
    out.push_str(&format!("coordinator_floats {}\n", report.coordinator_floats));
    out.push_str(&format!("relayed_floats {relayed}\n"));
    out.push_str(&format!("rpc_retries {}\n", report.rpc_retries));
    out.push_str(&format!("elapsed_ms {:.3}\n", report.elapsed.as_secs_f64() * 1e3));
    for r in &report.recoveries {
        out.push_str(&format!(
            "recovery worker={} requeued={} slots_rebuilt={} closure={} reason={:?}\n",
            r.worker, r.tasks_requeued, r.slots_rebuilt, r.closure_len, r.reason
        ));
    }
    out
}

/// `hqr calibrate`: measure the real loopback transport, print a
/// measured-vs-model table, and optionally persist LogGP parameters for
/// `hqr simulate --net-calib`.
pub fn calibrate(args: &Args) -> Result<i32, CliError> {
    let reps = args.positive_or("reps", 7)?;
    let sizes: Vec<usize> = match args.get("sizes") {
        None => vec![64, 1024, 8192, 65_536, 524_288, 4_194_304],
        Some(csv) => {
            csv.split(',').map(|s| s.trim().parse::<usize>()).collect::<Result<_, _>>().map_err(
                |_| CliError::usage("--sizes: comma-separated byte counts, e.g. 64,4096,65536"),
            )?
        }
    };
    let out = args.get("out");
    args.reject_unknown()?;
    let calib = measure_loopback(&sizes, reps)
        .map_err(|e| CliError::failed(format!("calibration failed: {e}")))?;
    let fitted = LinkModel { latency: calib.latency, bandwidth: calib.bandwidth, overhead: 0.0 };
    let paper = Platform::edel().link;
    println!("loopback transport calibration (best of {reps} per size)");
    println!(
        "fitted    : latency {:.2} us, bandwidth {:.2} GB/s",
        fitted.latency * 1e6,
        fitted.bandwidth / 1e9
    );
    println!("{:>12} {:>14} {:>14} {:>14}", "bytes", "measured us", "fitted us", "LogGP(IB) us");
    for s in &calib.samples {
        println!(
            "{:>12} {:>14.2} {:>14.2} {:>14.2}",
            s.bytes,
            s.secs * 1e6,
            fitted.transfer(s.bytes as f64) * 1e6,
            paper.transfer(s.bytes as f64) * 1e6
        );
    }
    if !fitted.bandwidth.is_finite() || fitted.bandwidth <= 0.0 {
        return Err(CliError::usage(format!(
            "fitted bandwidth {} is not usable",
            fitted.bandwidth
        )));
    }
    if let Some(path) = out {
        let samples: Vec<(u64, f64)> = calib.samples.iter().map(|s| (s.bytes, s.secs)).collect();
        std::fs::write(path, fitted.format_calibration(&samples))
            .map_err(|e| CliError::failed(format!("write {path}: {e}")))?;
        println!("saved     : {path} (use with `hqr simulate --net-calib {path}`)");
    }
    Ok(0)
}
