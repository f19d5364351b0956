//! The `hqr` subcommands.

use crate::args::Args;
use hqr::baselines;
use hqr::prelude::*;
use hqr_runtime::trace::{chrome_trace_from_exec, realized_critical_path, RealizedPath};
use hqr_runtime::{
    analysis, execute_serial, resume_from_checkpoint, try_execute_checkpointed, try_execute_traced,
    try_execute_with, CheckpointPolicy, CheckpointSpec, ExecOptions, FaultPlan, IntegrityMode,
    TaskGraph,
};
use hqr_sim::scalapack::ScalapackModel;
use hqr_sim::{
    compare_recovery_policies, find_crossover, find_sdc_crossover, find_suspend_crossover,
    recovery_crossover, sdc_policy_sweep, simulate_traced, simulate_with_faults,
    simulate_with_policy, suspend_vs_scratch_sweep, CheckpointCostModel, KernelRates, Platform,
    RecoveryPolicy, SchedPolicy, SdcCostModel, SimFaultPlan,
};
use hqr_tile::{ProcessGrid, TiledMatrix};
use std::time::Instant;

/// Top-level usage text.
pub const USAGE: &str = "\
hqr — hierarchical tile QR factorization (IPDPS 2012 reproduction)

USAGE:
  hqr factor   [--rows R --cols C --tile B --grid PxQ --a A --low TREE
                --high TREE --domino --ib IB --threads T --seed S
                --input FILE.mtx]
      factor a random (or MatrixMarket) matrix, verify ||QtQ-I|| and ||A-QR||
  hqr simulate [--rows R --cols C --tile B --grid PxQ --algorithm ALG
                --nodes N --cores C --policy POLICY --gpus G --gpu-speedup X
                --rates edel|measured --disk-read-mbs X --disk-write-mbs X
                --disk-latency-us U --net-calib FILE]
      replay the task DAG on the simulated cluster; with --disk-read-mbs
      (and friends) also price an out-of-core run, sweeping the resident
      fraction and reporting where spill bandwidth overtakes compute
      ALG: hqr | hqr-square | bbd10 | slhd10 | scalapack
      RATES: edel = the paper's §V-A kernel rates (default);
             measured = this repo's own kernels (BENCH_7.json)
  hqr fault    [--rows R --cols C --tile B --grid PxQ --threads T --seed S
                --fail K --retries N --policy POLICY --crash-node X
                --crash-frac F --degrade-bw F --degrade-lat F --nodes N
                --cores C --io-bw BYTES/S --restart-cost S --ckpt-interval S
                --crossover-max K --sdc-rate F --sdc-seed S
                --integrity off|spot|full --guard-bw BYTES/S --residual-cost S
                --rates edel|measured]
      inject a seeded fault schedule: panic K random kernel tasks in a real
      parallel factorization (verifying bitwise recovery), then crash a
      simulated node mid-run, report the lineage-recovery overhead, and
      price lineage re-execution against checkpoint/restart (Young/Daly
      interval unless --ckpt-interval) including a crash-rate crossover sweep
      and a per-job kill sweep pricing the service's checkpoint-backed
      suspend-resume against restart-from-scratch;
      with --sdc-rate, also strike random tasks with silent single-bit flips,
      report detected/recomputed/escaped counts under the chosen --integrity
      mode, and price detect-recompute vs checkpoint/restart vs unprotected
      rerun across a corruption-rate sweep
  hqr checkpoint [--rows R --cols C --tile B --grid PxQ --a A --low TREE
                --high TREE --domino --ib IB --threads T --seed S
                --ckpt FILE --every-panels K --min-interval-ms MS
                --stop-after-panel P --fail K --retries N --out FILE.trace.json]
      factor with durable checkpoints at quiescent panel boundaries;
      --stop-after-panel simulates a mid-run kill right after that panel's
      checkpoint (resume later with `hqr resume`)
  hqr resume   [--ckpt FILE --threads T --verify --out FILE.trace.json]
      reload a checkpoint, rebuild the task graph from the stored
      elimination list, and finish the factorization; --verify re-runs the
      whole factorization serially and checks the factors are bitwise equal
  hqr trace    [--backend exec|sim --out FILE.trace.json
                --rows R --cols C --tile B --grid PxQ --a A --low TREE
                --high TREE --domino
                exec: --threads T --seed S --fail K --retries N
                      --policy POLICY --sdc-rate F --sdc-seed S
                      --integrity off|spot|full --resident-budget-kb KB
                sim:  --nodes N --cores C --policy POLICY --gpus G
                      --gpu-speedup X --crash-node X --crash-frac F
                      --degrade-bw F --degrade-lat F --rates edel|measured]
      run either backend with timeline recording, write a Chrome Trace
      Format JSON (open at https://ui.perfetto.dev), and print a summary
      (utilization, steal counts, top realized-critical-path tasks)
  hqr serve    [--socket PATH --state-dir DIR --threads T --mem-budget-mb MB
                --queue-cap N --max-active N --grace-ms MS
                --resident-budget-kb KB --ckpt-interval-ms MS
                --result-cap N --result-max-kb KB --result-max-age-secs S
                --journal-rotate-kb KB]
      run the multi-job factorization service on a local Unix socket:
      one shared work-stealing pool multiplexes every accepted job, with
      admission control (memory budget), bounded-queue backpressure
      (lowest-QoS shedding) and per-job deadlines/retries;
      the daemon is always journaled: every lifecycle transition is
      written to a fsync'd job journal under --state-dir (default
      <socket>.state), completed results persist to a durable store
      there (capped at --result-cap, 0 = unlimited, plus
      --result-max-kb / --result-max-age-secs byte and age ceilings),
      running jobs checkpoint every --ckpt-interval-ms, the journal
      compacts itself past --journal-rotate-kb, and every start replays
      the journal so no accepted job is ever lost — after kill -9, or
      after the graceful drain on SIGTERM (which first suspends
      in-flight work at a quiescent point so it resumes rather than
      restarts);
      --resident-budget-kb caps each job's in-memory tile tier (jobs
      beyond it run out-of-core against a spill file under the state
      dir, and admission charges only the resident tier)
  hqr submit   [--socket PATH --rows R --cols C --tile B --grid PxQ
                --low TREE --high TREE --domino --a A --ib IB --seed S
                --qos batch|normal|interactive --policy POLICY
                --integrity off|spot|full --retries N --job-retries N
                --deadline-ms MS --tag NAME --inject-fail TASK:ATTEMPTS
                --dedup-key KEY --wait]
      submit one factorization job to a running daemon; --wait polls
      until the job reaches a terminal state (exit 0 iff completed);
      --dedup-key makes the submit idempotent (a retried submit with the
      same key returns the original job id instead of a duplicate)
  hqr jobs     [--socket PATH]
      list every job the daemon knows about
  hqr cancel   [--socket PATH --id JOB]
      cancel a queued or running job
  hqr result   [--socket PATH --id JOB --out FILE]
      fetch the durably stored factorization of a completed job; --out
      writes the raw result container, otherwise prints a summary
  hqr suspend  [--socket PATH --id JOB]
      checkpoint a queued or running job at its next quiescent point and
      park it (resume later with `hqr resume-job`)
  hqr resume-job [--socket PATH --id JOB]
      requeue a suspended job from its checkpoint
  hqr drain    [--socket PATH --grace-ms MS]
      gracefully drain the daemon: finish or suspend in-flight jobs and
      exit; the next `hqr serve` on the same state dir finishes the rest
  hqr ping     [--socket PATH]
      liveness check against a running daemon
  hqr admission [--servers C --queue-cap Q --mean-service S --jobs N
                --seed S --rate-min R --rate-max R --points K]
      price the service's admission arms (bounded-queue backpressure vs
      QoS shedding vs oversubscribed degradation) with a Poisson-arrival
      simulation swept across arrival rates; reports p50/p99 latency,
      the interactive-class p99, and loss rates per arm
  hqr worker   [--listen ADDR --die-after-tasks N --die-hard --slow-ms MS]
      run one distributed tile worker: owns a shard of the matrix,
      executes kernels on request, serves tiles to peers over TCP;
      prints its pid and bound address (--listen 127.0.0.1:0 picks a
      free port); --die-after-tasks/--die-hard are deterministic
      kill-points for chaos tests (--die-hard aborts the process)
  hqr dist     [--workers A:P,B:P,... | --spawn N] [--rows R --cols C
                --tile B --ib IB --seed S --grid PxQ --a A --low TREE
                --high TREE --domino --worker-grid PxQ
                --rpc-timeout-ms MS --retries N --hb-interval-ms MS
                --hb-timeout-ms MS --stall-timeout-ms MS
                --net-seed S --drop-frac F --delay-frac F --delay-ms MS
                --verify --trace FILE]
      distributed factorization across a worker fleet (external
      addresses, or --spawn N in-process workers): tiles live in 2D
      block-cyclic shards, every RPC has a deadline plus jittered
      retries, heartbeats supervise the fleet, and a worker lost
      mid-run is recovered by lineage re-execution onto survivors;
      --drop-frac/--delay-frac inject seeded chaos, --verify checks
      the result is bitwise-identical to a serial run, --trace writes
      the coordinator's account of the run (transfers, retries,
      recoveries) for CI artifacts
  hqr calibrate [--sizes B1,B2,... --reps N --out FILE]
      measure real loopback TCP transfers across payload sizes, fit
      LogGP (latency, bandwidth) by least squares, print a
      measured-vs-model table against the paper's InfiniBand link, and
      persist the fit for `hqr simulate --net-calib FILE`
  hqr schedule [--rows MT --cols NT --tree TREE --panels P]
      print the coarse-grain unit-time schedule (Tables I-IV)
  hqr trees    [--size Z]
      print the reduction pairings of all four trees
  hqr dot      [--rows MT --cols NT --tree TREE]
      emit the task DAG as Graphviz DOT
  TREE: flat | binary | greedy | fibonacci
  POLICY: fifo | panel | cp   (ready-queue scheduling policy; both backends)
";

pub(crate) fn tree_of(args: &Args, key: &str, default: TreeKind) -> TreeKind {
    match args.get(key) {
        None => default,
        Some(v) => TreeKind::parse(v).unwrap_or_else(|| {
            eprintln!("--{key}: unknown tree `{v}` (flat|binary|greedy|fibonacci)");
            std::process::exit(2);
        }),
    }
}

/// Parse `--policy` (shared by `simulate`, `fault` and both `trace`
/// backends); `default` applies when the flag is absent. Returns the exit
/// code on an unknown spelling.
fn policy_of(args: &Args, default: SchedPolicy) -> Result<SchedPolicy, i32> {
    match args.get("policy") {
        None => Ok(default),
        Some(v) => SchedPolicy::parse(v).ok_or_else(|| {
            eprintln!("unknown policy `{v}` (fifo|panel|cp)");
            eprintln!("run `hqr help` for usage");
            2
        }),
    }
}

/// `--rates edel|measured`: which kernel-rate calibration the simulator
/// prices tasks with (paper §V-A numbers vs this repo's BENCH_7.json).
fn rates_of(args: &Args) -> Result<KernelRates, i32> {
    match args.str_or("rates", "edel").as_str() {
        "edel" => Ok(KernelRates::edel()),
        "measured" => Ok(KernelRates::measured()),
        other => {
            eprintln!("unknown rates `{other}` (edel|measured)");
            eprintln!("run `hqr help` for usage");
            Err(2)
        }
    }
}

pub(crate) fn config_of(args: &Args, grid: (usize, usize)) -> HqrConfig {
    HqrConfig::new(grid.0, grid.1)
        .with_a(args.usize_or("a", 1))
        .with_low(tree_of(args, "low", TreeKind::Greedy))
        .with_high(tree_of(args, "high", TreeKind::Fibonacci))
        .with_domino(args.flag("domino"))
}

/// Reject zero where a positive value is required, with a clean message
/// instead of a panic deep inside the library. Returns `Some(2)` (the exit
/// code) on the first offending argument.
pub(crate) fn require_positive(checks: &[(&str, usize)]) -> Option<i32> {
    for &(name, v) in checks {
        if v == 0 {
            eprintln!("--{name} must be positive");
            eprintln!("run `hqr help` for usage");
            return Some(2);
        }
    }
    None
}

/// Reject non-finite or non-positive floats (bandwidth/latency factors,
/// I/O rates) with a usage hint. Returns `Some(2)` on the first offender.
pub(crate) fn require_positive_f64(checks: &[(&str, f64)]) -> Option<i32> {
    for &(name, v) in checks {
        if !v.is_finite() || v <= 0.0 {
            eprintln!("--{name} must be a positive finite number, got {v}");
            eprintln!("run `hqr help` for usage");
            return Some(2);
        }
    }
    None
}

/// Validate the simulated-fault arguments shared by `hqr fault` and
/// `hqr trace --backend sim`: node indices in range, times non-negative,
/// degradation factors positive. Returns `Some(2)` on the first offender.
fn validate_sim_fault_args(args: &Args, nodes: usize) -> Option<i32> {
    if let Some(raw) = args.get("crash-node") {
        let node = args.usize_or("crash-node", 0);
        if node >= nodes {
            eprintln!(
                "--crash-node {raw} is out of range: platform has {nodes} nodes (0..{})",
                nodes - 1
            );
            eprintln!("run `hqr help` for usage");
            return Some(2);
        }
    }
    let crash_frac = args.f64_or("crash-frac", 0.3);
    if !crash_frac.is_finite() || crash_frac < 0.0 {
        eprintln!("--crash-frac must be a non-negative finite fraction, got {crash_frac}");
        eprintln!("run `hqr help` for usage");
        return Some(2);
    }
    require_positive_f64(&[
        ("degrade-bw", args.f64_or("degrade-bw", 1.0)),
        ("degrade-lat", args.f64_or("degrade-lat", 1.0)),
    ])
}

/// Validate the silent-data-corruption arguments shared by `hqr fault` and
/// `hqr trace --backend exec`: `--sdc-rate` must be a finite probability in
/// `[0, 1]` and `--integrity` one of `off`/`spot`/`full`. When corruption is
/// being injected the integrity mode defaults to `full`; otherwise `off`.
/// Returns the parsed pair, or the exit code on the first offender.
fn validate_sdc_args(args: &Args) -> Result<(f64, IntegrityMode), i32> {
    let rate = args.f64_or("sdc-rate", 0.0);
    if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
        eprintln!("--sdc-rate must be a probability in [0, 1], got {rate}");
        eprintln!("run `hqr help` for usage");
        return Err(2);
    }
    let default = if rate > 0.0 { IntegrityMode::Full } else { IntegrityMode::Off };
    match args.get("integrity") {
        None => Ok((rate, default)),
        Some(v) => match IntegrityMode::parse(v) {
            Some(mode) => Ok((rate, mode)),
            None => {
                eprintln!("--integrity: unknown mode `{v}` (off|spot|full)");
                eprintln!("run `hqr help` for usage");
                Err(2)
            }
        },
    }
}

/// `hqr factor`: factor a random matrix and verify.
pub fn factor(args: &Args) -> i32 {
    let rows = args.usize_or("rows", 384);
    let cols = args.usize_or("cols", 160);
    let b = args.usize_or("tile", 16);
    let grid = args.grid_or("grid", (2, 1));
    let threads = args.usize_or("threads", 4);
    let ib = args.usize_or("ib", b);
    let seed = args.usize_or("seed", 42) as u64;
    if let Some(code) = require_positive(&[
        ("rows", rows),
        ("cols", cols),
        ("tile", b),
        ("threads", threads),
        ("ib", ib),
        ("grid (P)", grid.0),
        ("grid (Q)", grid.1),
    ]) {
        return code;
    }
    if ib > b {
        eprintln!("--ib must not exceed --tile ({ib} > {b})");
        return 2;
    }
    if rows < cols {
        eprintln!("factor expects rows >= cols");
        return 2;
    }
    let cfg = config_of(args, grid);
    println!("configuration : {}", cfg.describe());
    let a0 = match args.get("input") {
        Some(path) => match hqr_tile::io::read_matrix_market(std::path::Path::new(path)) {
            Ok(m) => {
                println!("input         : {path} ({} x {})", m.rows(), m.cols());
                if m.rows() < m.cols() {
                    eprintln!("factor expects rows >= cols");
                    return 2;
                }
                m
            }
            Err(e) => {
                eprintln!("failed to read {path}: {e}");
                return 2;
            }
        },
        None => DenseMatrix::random(rows, cols, seed),
    };
    let (rows, cols) = (a0.rows(), a0.cols());
    let t0 = Instant::now();
    let qr = DenseQr::compute_ib(
        &a0,
        b,
        cfg,
        if threads <= 1 { Execution::Serial } else { Execution::Parallel(threads) },
        ib,
    );
    let dt = t0.elapsed();
    let q = qr.q_thin();
    let recon = q.matmul(&qr.r());
    let resid = a0.sub(&recon).frob_norm() / a0.frob_norm().max(1.0);
    let ortho = q.orthogonality_error();
    println!("matrix        : {rows} x {cols}, tile {b}, ib {ib}");
    println!("factor time   : {:.1} ms on {threads} threads", dt.as_secs_f64() * 1e3);
    println!("||QtQ - I||_F : {ortho:.3e}");
    println!("||A-QR||/||A||: {resid:.3e}");
    let ok = ortho < 1e-12 * rows as f64 && resid < 1e-12 * rows as f64;
    println!("checks        : {}", if ok { "satisfactory" } else { "FAILED" });
    i32::from(!ok)
}

/// `hqr simulate`: replay on the modeled cluster.
pub fn simulate(args: &Args) -> i32 {
    let b = args.usize_or("tile", 280);
    let rows = args.usize_or("rows", 71_680);
    let cols = args.usize_or("cols", 4_480);
    let grid = args.grid_or("grid", (15, 4));
    if let Some(code) = require_positive(&[("tile", b), ("grid (P)", grid.0), ("grid (Q)", grid.1)])
    {
        return code;
    }
    let (mt, nt) = (rows / b, cols / b);
    if mt == 0 || nt == 0 {
        eprintln!("matrix smaller than one tile");
        return 2;
    }
    let rates = match rates_of(args) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let mut platform = Platform {
        nodes: args.usize_or("nodes", grid.0 * grid.1),
        cores_per_node: args.usize_or("cores", 8),
        rates,
        ..Platform::edel()
    };
    if let Some(code) =
        require_positive(&[("nodes", platform.nodes), ("cores", platform.cores_per_node)])
    {
        return code;
    }
    let gpus = args.usize_or("gpus", 0);
    if gpus > 0 {
        platform.accelerators = Some(hqr_sim::Accelerators {
            per_node: gpus,
            update_speedup: args.f64_or("gpu-speedup", 8.0),
        });
    }
    let mut link_note = String::new();
    if let Some(path) = args.get("net-calib") {
        let parsed = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| hqr_sim::LinkModel::parse_calibration(&text).map(|(l, _)| l));
        match parsed {
            Ok(link) => {
                link_note = format!(
                    ", link calibrated from {path} ({:.2} us, {:.2} GB/s)",
                    link.latency * 1e6,
                    link.bandwidth / 1e9
                );
                platform.link = link;
            }
            Err(e) => {
                eprintln!("--net-calib {path}: {e}");
                return 2;
            }
        }
    }
    let policy = match policy_of(args, SchedPolicy::PanelFirst) {
        Ok(p) => p,
        Err(code) => return code,
    };
    let alg = args.str_or("algorithm", "hqr");
    let setup = match alg.as_str() {
        "hqr" => baselines::hqr(mt, nt, ProcessGrid::new(grid.0, grid.1), config_of(args, grid)),
        "hqr-tall" => baselines::hqr_tall_skinny(mt, nt, ProcessGrid::new(grid.0, grid.1)),
        "hqr-square" => baselines::hqr_square(mt, nt, ProcessGrid::new(grid.0, grid.1)),
        "bbd10" => baselines::bbd10(mt, nt, ProcessGrid::new(grid.0, grid.1)),
        "slhd10" => baselines::slhd10(mt, nt, platform.nodes),
        "scalapack" => {
            let r = ScalapackModel::default().run(rows, cols, grid.0, grid.1, &platform);
            println!("algorithm : ScaLAPACK pdgeqrf (analytic model)");
            println!("makespan  : {:.3} s", r.makespan);
            println!("GFlop/s   : {:.1} ({:.1}% of peak)", r.gflops, 100.0 * r.efficiency);
            return 0;
        }
        other => {
            eprintln!("unknown algorithm `{other}`");
            return 2;
        }
    };
    println!("algorithm : {}", setup.name);
    println!("matrix    : {rows} x {cols} ({mt} x {nt} tiles of {b})");
    println!(
        "platform  : {} nodes x {} cores{}{}",
        platform.nodes,
        platform.cores_per_node,
        if gpus > 0 { format!(" + {gpus} GPUs/node") } else { String::new() },
        link_note
    );
    let t0 = Instant::now();
    let graph = match TaskGraph::try_build(mt, nt, b, &setup.elims.to_ops()) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let rep = simulate_with_policy(&graph, &setup.layout, &platform, policy);
    println!("tasks     : {} ({} edges)", graph.tasks().len(), graph.edge_count());
    println!(
        "makespan  : {:.3} s (simulated; wall {:.2} s)",
        rep.makespan,
        t0.elapsed().as_secs_f64()
    );
    println!("GFlop/s   : {:.1} ({:.1}% of peak)", rep.gflops, 100.0 * rep.efficiency);
    println!("messages  : {} ({:.2} GB)", rep.messages, rep.bytes / 1e9);
    if rep.messages > 0 {
        let names = ["GEQRT", "UNMQR", "TSQRT", "TSMQR", "TTQRT", "TTMQR"];
        let by_kind: Vec<String> = names
            .iter()
            .zip(rep.messages_by_kind)
            .filter(|&(_, c)| c > 0)
            .map(|(n, c)| format!("{n}:{c}"))
            .collect();
        println!("  by producer kernel: {}", by_kind.join(" "));
    }
    println!("utilization: {:.1}%", 100.0 * rep.utilization(&platform));
    // `--disk-read-mbs` (or any disk flag) prices an out-of-core run of
    // the same DAG: sweep the resident fraction of the tile footprint and
    // report where spill bandwidth overtakes compute.
    if ["disk-read-mbs", "disk-write-mbs", "disk-latency-us"].iter().any(|k| args.get(k).is_some())
    {
        let disk = hqr_sim::DiskModel {
            read_bw: args.f64_or("disk-read-mbs", 500.0) * 1e6,
            write_bw: args.f64_or("disk-write-mbs", 450.0) * 1e6,
            latency: args.f64_or("disk-latency-us", 100.0) * 1e-6,
        };
        if disk.read_bw <= 0.0 || disk.write_bw <= 0.0 || disk.latency < 0.0 {
            eprintln!("disk rates must be positive (latency may be zero)");
            return 2;
        }
        let tile_bytes = hqr_sim::Platform::tile_bytes(b);
        println!(
            "\nout-of-core : disk {:.0}/{:.0} MB/s r/w, {:.0} us/access, {} tile touches",
            disk.read_bw / 1e6,
            disk.write_bw / 1e6,
            disk.latency * 1e6,
            hqr_sim::tile_touches(&graph)
        );
        println!("  residency   misses      disk s   overlap s    serial s  bound");
        for p in hqr_sim::spill_sweep(&graph, tile_bytes, rep.makespan, &disk, 10) {
            println!(
                "  {:>8.0}% {:>9.0} {:>11.3} {:>11.3} {:>11.3}  {}",
                100.0 * p.residency,
                p.misses,
                p.disk_seconds,
                p.overlapped,
                p.serialized,
                if p.disk_bound() { "disk" } else { "compute" }
            );
        }
        let rstar = hqr_sim::spill_crossover(&graph, tile_bytes, rep.makespan, &disk);
        if rstar > 0.0 {
            println!(
                "  crossover : below {:.0}% residency even perfect prefetch is disk-bound",
                100.0 * rstar
            );
        } else {
            println!("  crossover : never disk-bound — prefetch hides the spill at any residency");
        }
    }
    0
}

/// `hqr fault`: seeded fault-injection demo. Part one injects kernel
/// panics into a real parallel factorization and verifies the recovered
/// result is bitwise-identical to the fault-free one; part two crashes a
/// simulated node mid-run and reports the lineage-recovery overhead.
pub fn fault(args: &Args) -> i32 {
    let rows = args.usize_or("rows", 96);
    let cols = args.usize_or("cols", 48);
    let b = args.usize_or("tile", 8);
    let grid = args.grid_or("grid", (3, 1));
    let threads = args.usize_or("threads", 4);
    let seed = args.usize_or("seed", 42) as u64;
    let fail = args.usize_or("fail", 3);
    let retries = args.usize_or("retries", 1) as u32;
    let policy = match policy_of(args, SchedPolicy::PanelFirst) {
        Ok(p) => p,
        Err(code) => return code,
    };
    if let Some(code) = require_positive(&[
        ("rows", rows),
        ("cols", cols),
        ("tile", b),
        ("threads", threads),
        ("grid (P)", grid.0),
        ("grid (Q)", grid.1),
        ("retries", retries as usize),
    ]) {
        return code;
    }
    if rows < cols {
        eprintln!("fault expects rows >= cols");
        return 2;
    }
    let (sdc_rate, integrity) = match validate_sdc_args(args) {
        Ok(v) => v,
        Err(code) => return code,
    };
    let (mt, nt) = (rows.div_ceil(b), cols.div_ceil(b));
    let cfg = config_of(args, grid);
    let setup = baselines::hqr(mt, nt, ProcessGrid::new(grid.0, grid.1), cfg);
    let graph = match TaskGraph::try_build(mt, nt, b, &setup.elims.to_ops()) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let n = graph.tasks().len();
    let rates = match rates_of(args) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let platform = Platform {
        nodes: args.usize_or("nodes", grid.0 * grid.1),
        cores_per_node: args.usize_or("cores", 4),
        rates,
        ..Platform::edel()
    };
    if let Some(code) =
        require_positive(&[("nodes", platform.nodes), ("cores", platform.cores_per_node)])
    {
        return code;
    }

    println!("== execution: seeded kernel-panic injection ==");
    let plan = FaultPlan::new(seed).fail_random_tasks(n, fail, 1);
    let injected = plan.failing_tasks().count();
    println!("graph        : {mt} x {nt} tiles of {b} ({n} tasks)");
    println!("policy       : {policy}");
    println!("fault plan   : seed {seed}, {injected} tasks panic on first attempt");
    let mut a_clean = TiledMatrix::random(mt, nt, b, seed);
    let mut a_faulty = a_clean.clone();
    let a_pristine = a_clean.clone();
    let f_clean = execute_serial(&graph, &mut a_clean);
    let opts = ExecOptions {
        nthreads: threads,
        max_retries: retries,
        plan: Some(plan),
        policy,
        ..Default::default()
    };
    match try_execute_with(&graph, &mut a_faulty, &opts) {
        Ok((_, stats)) => {
            let bitwise = a_clean.to_dense().data() == a_faulty.to_dense().data();
            println!("recovery     : {} panics caught, {} tasks recovered, {} re-executions, {} tiles rolled back",
                stats.panics_caught, stats.tasks_recovered, stats.tasks_reexecuted, stats.tiles_rolled_back);
            println!(
                "bitwise check: {}",
                if bitwise { "identical to fault-free run" } else { "MISMATCH" }
            );
            if !bitwise {
                return 1;
            }
        }
        Err(e) => {
            eprintln!("execution failed to recover: {e}");
            return 1;
        }
    }

    if sdc_rate > 0.0 {
        let sdc_seed = args.usize_or("sdc-seed", seed as usize) as u64;
        let strikes = ((sdc_rate * n as f64).round() as usize).max(1);
        let sdc_plan = FaultPlan::new(seed).corrupt_random_tasks_seeded(sdc_seed, n, strikes);
        let planned = sdc_plan.planned_corruptions();
        println!();
        println!("== execution: seeded bit-flip (SDC) injection ==");
        println!("fault plan   : sdc seed {sdc_seed}, {planned} tasks struck by a single bit flip");
        println!("integrity    : {integrity}");
        let mut a_sdc = a_pristine.clone();
        let sdc_opts = ExecOptions {
            nthreads: threads,
            max_retries: retries.max(1),
            plan: Some(sdc_plan),
            policy,
            integrity,
            ..Default::default()
        };
        match try_execute_with(&graph, &mut a_sdc, &sdc_opts) {
            Ok((f_sdc, stats)) => {
                let (d1, d2) = (a_clean.to_dense(), a_sdc.to_dense());
                let clean = d1.data() == d2.data() && f_sdc.bitwise_eq(&f_clean);
                // Corruption that neither the guards nor the recompute
                // healed must still be visible in the outputs; count it
                // as escaped.
                let escaped =
                    if clean { 0 } else { (stats.sdc_injected - stats.sdc_detected).max(1) };
                println!("summary      :  injected  detected  recomputed  escaped");
                println!(
                    "                {:>8}  {:>8}  {:>10}  {:>7}",
                    stats.sdc_injected, stats.sdc_detected, stats.sdc_recomputed, escaped
                );
                println!(
                    "bitwise check: {}",
                    if clean {
                        "identical to corruption-free run"
                    } else {
                        "MISMATCH (escaped SDC)"
                    }
                );
                if integrity.is_on() && escaped > 0 {
                    return 1;
                }
            }
            Err(e) => {
                eprintln!("execution failed under SDC injection: {e}");
                if integrity.is_on() {
                    return 1;
                }
            }
        }

        println!();
        println!("== recovery policy: SDC corruption-rate sweep ==");
        let sdc_model = SdcCostModel {
            guard_bandwidth: args.f64_or("guard-bw", 4e9),
            residual_check: args.f64_or("residual-cost", 0.05),
        };
        let ckpt_model = CheckpointCostModel {
            io_bandwidth: args.f64_or("io-bw", 1e9),
            restart_overhead: args.f64_or("restart-cost", 0.5),
        };
        // The detect-recompute arm needs guards on; price `full` when the
        // execution above ran unprotected.
        let sweep_mode = if integrity.is_on() { integrity } else { IntegrityMode::Full };
        let rates = [0.0, 1e-4, 1e-3, 1e-2, 0.05, 0.1];
        let points = match sdc_policy_sweep(
            &graph,
            &setup.layout,
            &platform,
            policy,
            sweep_mode,
            &sdc_model,
            &ckpt_model,
            &rates,
        ) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        };
        println!("  rate      E[strikes]  detect-recompute(s)  ckpt/restart(s)  unprotected(s)");
        for p in &points {
            println!(
                "  {:<8}  {:>10.2}  {:>19.4}  {:>15.4}  {:>14.4}",
                format!("{:.0e}", p.rate),
                p.expected_corruptions,
                p.detect_recompute,
                p.checkpoint_restart,
                p.unprotected_rerun
            );
        }
        match find_sdc_crossover(&points) {
            Some(p) => println!(
                "crossover    : detect-recompute first beats checkpoint/restart at rate {:.0e}",
                p.rate
            ),
            None => println!(
                "crossover    : checkpoint/restart cheaper at every tested corruption rate"
            ),
        }
    }

    println!();
    println!("== simulation: node crash with lineage recovery ==");
    if let Some(code) = validate_sim_fault_args(args, platform.nodes) {
        return code;
    }
    let model = CheckpointCostModel {
        io_bandwidth: args.f64_or("io-bw", 1e9),
        restart_overhead: args.f64_or("restart-cost", 0.5),
    };
    if let Some(code) = require_positive_f64(&[("io-bw", model.io_bandwidth)]) {
        return code;
    }
    if !model.restart_overhead.is_finite() || model.restart_overhead < 0.0 {
        eprintln!("--restart-cost must be non-negative, got {}", model.restart_overhead);
        eprintln!("run `hqr help` for usage");
        return 2;
    }
    let baseline = simulate_with_policy(&graph, &setup.layout, &platform, policy);
    let crash_frac = args.f64_or("crash-frac", 0.3);
    let crash_at = crash_frac * baseline.makespan;
    let mut plan = match args.get("crash-node") {
        Some(_) => SimFaultPlan::new().crash_node(args.usize_or("crash-node", 0), crash_at),
        None => SimFaultPlan::new().crash_random_node(platform.nodes, seed, crash_at),
    };
    let degrade_bw = args.f64_or("degrade-bw", 1.0);
    let degrade_lat = args.f64_or("degrade-lat", 1.0);
    if degrade_bw != 1.0 || degrade_lat != 1.0 {
        plan = plan.degrade_link(0.0, degrade_bw, degrade_lat);
    }
    let crashed = plan.crashes()[0].node;
    println!("platform     : {} nodes x {} cores", platform.nodes, platform.cores_per_node);
    println!("fault plan   : crash node {crashed} at t = {crash_at:.4} s ({:.0}% of fault-free makespan)",
        100.0 * crash_frac);
    match simulate_with_faults(&graph, &setup.layout, &platform, policy, &plan) {
        Ok(rep) => {
            let o = rep.overhead.expect("faulty run reports overhead");
            println!(
                "makespan     : {:.4} s (fault-free {:.4} s, {:+.1}%)",
                rep.makespan,
                o.baseline_makespan,
                100.0 * o.makespan_inflation
            );
            println!(
                "recovery     : {} tasks re-executed, {} aborted, {} nodes lost",
                o.reexecuted_tasks, o.aborted_tasks, o.nodes_lost
            );
            println!(
                "restaging    : {} messages re-sent ({:.3} MB)",
                o.resent_messages,
                o.resent_bytes / 1e6
            );
        }
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    }

    println!();
    println!("== recovery policy: lineage vs checkpoint/restart ==");
    let interval = args.get("ckpt-interval").map(|_| args.f64_or("ckpt-interval", 0.0));
    if let Some(tau) = interval {
        if let Some(code) = require_positive_f64(&[("ckpt-interval", tau)]) {
            return code;
        }
    }
    let cmp = match compare_recovery_policies(
        &graph,
        &setup.layout,
        &platform,
        policy,
        &plan,
        &model,
        interval,
    ) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    println!(
        "checkpoint   : cost {:.4} s per checkpoint, interval {:.4} s ({})",
        cmp.checkpoint_cost,
        cmp.interval,
        if interval.is_some() { "from --ckpt-interval" } else { "Young/Daly" }
    );
    println!(
        "lineage      : makespan {:.4} s ({:+.1}% over fault-free)",
        cmp.lineage_makespan,
        100.0 * (cmp.lineage_makespan / cmp.baseline_makespan - 1.0)
    );
    println!(
        "ckpt/restart : makespan {:.4} s ({:+.1}% over fault-free; {} checkpoints, {:.4} s ckpt + {:.4} s rework + {:.4} s restart)",
        cmp.checkpoint.makespan,
        100.0 * (cmp.checkpoint.makespan / cmp.baseline_makespan - 1.0),
        cmp.checkpoint.checkpoints_taken,
        cmp.checkpoint.checkpoint_seconds,
        cmp.checkpoint.rework_seconds,
        cmp.checkpoint.restart_seconds
    );
    println!(
        "winner       : {}",
        match cmp.winner() {
            RecoveryPolicy::Lineage => "lineage re-execution",
            RecoveryPolicy::CheckpointRestart => "checkpoint/restart",
        }
    );

    let max_crashes = args.usize_or("crossover-max", 4);
    let points = match recovery_crossover(
        &graph,
        &setup.layout,
        &platform,
        policy,
        &model,
        seed,
        max_crashes,
    ) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    println!();
    println!("crash-rate sweep (seed {seed}):");
    println!("  crashes  rate(1/s)   lineage(s)   ckpt/restart(s)");
    for p in &points {
        println!(
            "  {:>7}  {:>9.4}  {:>11.4}  {:>16.4}",
            p.crashes, p.crash_rate, p.lineage_makespan, p.checkpoint_makespan
        );
    }
    match find_crossover(&points) {
        Some(p) => println!(
            "crossover    : checkpoint/restart first wins at {} crash(es) per run",
            p.crashes
        ),
        None => println!("crossover    : lineage re-execution wins at every tested crash rate"),
    }

    // Price the `hqr serve` daemon's checkpoint-backed suspension against
    // restarting killed jobs from scratch, under the same cost model.
    let sweep = match suspend_vs_scratch_sweep(
        cmp.baseline_makespan,
        cmp.checkpoint_cost,
        model.restart_overhead,
        interval,
        max_crashes,
    ) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    println!();
    println!("service suspend-resume vs restart-from-scratch (per-job kill sweep):");
    println!("  kills  rate(1/s)   resume(s)   scratch(s)   ckpts");
    for p in &sweep {
        println!(
            "  {:>5}  {:>9.4}  {:>10.4}  {:>11.4}  {:>5}",
            p.kills, p.kill_rate, p.resume_makespan, p.scratch_makespan, p.checkpoints_taken
        );
    }
    match find_suspend_crossover(&sweep) {
        Some(p) => println!(
            "crossover    : checkpoint-backed resume first wins at {} kill(s) per job",
            p.kills
        ),
        None => println!("crossover    : restart-from-scratch wins at every tested kill rate"),
    }
    0
}

/// `hqr checkpoint`: factor with durable checkpoints at quiescent panel
/// boundaries; `--stop-after-panel` simulates a mid-run kill.
pub fn checkpoint(args: &Args) -> i32 {
    let rows = args.usize_or("rows", 96);
    let cols = args.usize_or("cols", 48);
    let b = args.usize_or("tile", 8);
    let grid = args.grid_or("grid", (2, 1));
    let threads = args.usize_or("threads", 4);
    let seed = args.usize_or("seed", 42) as u64;
    let ib = args.usize_or("ib", b);
    let fail = args.usize_or("fail", 0);
    let retries = args.usize_or("retries", 1) as u32;
    let every = args.usize_or("every-panels", 1);
    let min_interval_ms = args.usize_or("min-interval-ms", 0);
    if let Some(code) = require_positive(&[
        ("rows", rows),
        ("cols", cols),
        ("tile", b),
        ("threads", threads),
        ("ib", ib),
        ("grid (P)", grid.0),
        ("grid (Q)", grid.1),
        ("retries", retries as usize),
        ("every-panels", every),
    ]) {
        return code;
    }
    if ib > b {
        eprintln!("--ib must not exceed --tile ({ib} > {b})");
        return 2;
    }
    if rows < cols {
        eprintln!("checkpoint expects rows >= cols");
        return 2;
    }
    let (mt, nt) = (rows.div_ceil(b), cols.div_ceil(b));
    let setup = baselines::hqr(mt, nt, ProcessGrid::new(grid.0, grid.1), config_of(args, grid));
    let elims = setup.elims.to_ops();
    let graph = match TaskGraph::try_build(mt, nt, b, &elims) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let n = graph.tasks().len();
    let panels = mt.min(nt);
    let stop_after_panel =
        args.get("stop-after-panel").map(|_| args.usize_or("stop-after-panel", 0));
    if let Some(p) = stop_after_panel {
        if p + 1 >= panels {
            eprintln!("--stop-after-panel {p} must leave work: graph has {panels} panels");
            eprintln!("run `hqr help` for usage");
            return 2;
        }
    }
    let path = args.str_or("ckpt", "hqr.ckpt");
    let spec = CheckpointSpec {
        path: std::path::Path::new(&path),
        elims: &elims,
        policy: CheckpointPolicy {
            every_panels: every,
            min_interval: std::time::Duration::from_millis(min_interval_ms as u64),
        },
        input_seed: seed,
        stop_after_panel,
    };
    let mut a = TiledMatrix::random(mt, nt, b, seed);
    let opts = ExecOptions {
        nthreads: threads,
        ib: Some(ib),
        max_retries: retries,
        plan: (fail > 0).then(|| FaultPlan::new(seed).fail_random_tasks(n, fail, 1)),
        ..Default::default()
    };
    let traced = args.get("out").is_some();
    println!("graph        : {mt} x {nt} tiles of {b} ({n} tasks, {panels} panels)");
    println!("checkpoints  : {path} every {every} panel(s), min interval {min_interval_ms} ms");
    let run = match try_execute_checkpointed(&graph, &mut a, &opts, &spec, traced) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("checkpointed execution failed: {e}");
            return 2;
        }
    };
    println!(
        "progress     : {}/{} tasks completed, {} checkpoint(s) written",
        run.completed_tasks, n, run.checkpoints_written
    );
    println!(
        "status       : {}",
        if run.interrupted {
            "interrupted at a quiescent panel boundary — resume with `hqr resume`"
        } else {
            "factorization complete"
        }
    );
    if let (true, Some(tr)) = (traced, &run.trace) {
        let json = chrome_trace_from_exec(tr, graph.tasks());
        if let Some(code) = write_trace(args, "hqr-checkpoint.trace.json", &json) {
            return code;
        }
    }
    0
}

/// `hqr resume`: reload a checkpoint and finish the factorization.
pub fn resume(args: &Args) -> i32 {
    let path = args.str_or("ckpt", "hqr.ckpt");
    let threads = args.usize_or("threads", 4);
    if let Some(code) = require_positive(&[("threads", threads)]) {
        return code;
    }
    let opts = ExecOptions::with_threads(threads);
    let traced = args.get("out").is_some();
    let resumed = match resume_from_checkpoint(std::path::Path::new(&path), &opts, traced) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("failed to resume from {path}: {e}");
            return 2;
        }
    };
    let n = resumed.graph.tasks().len();
    println!("checkpoint   : {path}");
    println!(
        "resumed      : {}/{} tasks were durable; {} remained",
        resumed.resumed_from,
        n,
        n - resumed.resumed_from
    );
    println!("status       : factorization complete");
    if let (true, Some(tr)) = (traced, &resumed.trace) {
        let json = chrome_trace_from_exec(tr, resumed.graph.tasks());
        if let Some(code) = write_trace(args, "hqr-resume.trace.json", &json) {
            return code;
        }
    }
    if args.flag("verify") {
        let (mt, nt, b) = (resumed.a.mt(), resumed.a.nt(), resumed.a.b());
        let mut a_ref = TiledMatrix::random(mt, nt, b, resumed.input_seed);
        let f_ref = hqr_runtime::execute_serial_ib(&resumed.graph, &mut a_ref, resumed.ib);
        let factors_ok = resumed.factors.bitwise_eq(&f_ref);
        let (d1, d2) = (a_ref.to_dense(), resumed.a.to_dense());
        let tiles_ok = d1.data().iter().zip(d2.data()).all(|(x, y)| x.to_bits() == y.to_bits());
        println!(
            "bitwise check: {}",
            if factors_ok && tiles_ok {
                "identical to an uninterrupted serial run"
            } else {
                "MISMATCH"
            }
        );
        if !(factors_ok && tiles_ok) {
            return 1;
        }
    }
    0
}

/// Print the heaviest steps of a realized critical path, one line per
/// task, labeled with the kernel kind and tile coordinates.
fn print_critical_path(cp: &RealizedPath, graph: &TaskGraph, top: usize) {
    println!(
        "critical path: {:.3} ms realized ({:.3} ms compute + {:.3} ms waiting, {} tasks)",
        cp.length * 1e3,
        cp.task_seconds * 1e3,
        cp.comm_seconds * 1e3,
        cp.steps.len()
    );
    println!("top {} tasks on the path:", top.min(cp.steps.len()));
    for s in cp.top_tasks(top) {
        println!(
            "  {:<22} {:>9.3} ms  [{:.3} .. {:.3} ms]",
            graph.tasks()[s.task as usize].label(),
            (s.end - s.start) * 1e3,
            s.start * 1e3,
            s.end * 1e3
        );
    }
}

/// `hqr trace`: run either the real work-stealing executor or the cluster
/// simulator with timeline recording on, write a Chrome Trace Format JSON
/// (loadable at <https://ui.perfetto.dev> or chrome://tracing), and print
/// a scheduling summary.
pub fn trace(args: &Args) -> i32 {
    let backend = args.str_or("backend", "exec");
    match backend.as_str() {
        "exec" | "runtime" => trace_exec(args),
        "sim" | "simulator" => trace_sim(args),
        other => {
            eprintln!("unknown backend `{other}` (exec|sim)");
            2
        }
    }
}

/// Write `json` to the `--out` path (or `default_name`) and confirm.
fn write_trace(args: &Args, default_name: &str, json: &str) -> Option<i32> {
    let out = args.str_or("out", default_name);
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("failed to write {out}: {e}");
        return Some(2);
    }
    println!("trace        : {out} ({} bytes) — open at https://ui.perfetto.dev", json.len());
    None
}

/// The `exec` backend of [`trace`]: a real parallel factorization.
fn trace_exec(args: &Args) -> i32 {
    let rows = args.usize_or("rows", 96);
    let cols = args.usize_or("cols", 48);
    let b = args.usize_or("tile", 8);
    let grid = args.grid_or("grid", (2, 1));
    let threads = args.usize_or("threads", 4);
    let seed = args.usize_or("seed", 42) as u64;
    let fail = args.usize_or("fail", 0);
    let retries = args.usize_or("retries", 1) as u32;
    // The executor's historical behavior is plain FIFO release order, so
    // that stays the default here; `hqr simulate` keeps panel-first.
    let policy = match policy_of(args, SchedPolicy::Fifo) {
        Ok(p) => p,
        Err(code) => return code,
    };
    if let Some(code) = require_positive(&[
        ("rows", rows),
        ("cols", cols),
        ("tile", b),
        ("threads", threads),
        ("grid (P)", grid.0),
        ("grid (Q)", grid.1),
        ("retries", retries as usize),
    ]) {
        return code;
    }
    if rows < cols {
        eprintln!("trace expects rows >= cols");
        return 2;
    }
    let (sdc_rate, integrity) = match validate_sdc_args(args) {
        Ok(v) => v,
        Err(code) => return code,
    };
    let (mt, nt) = (rows.div_ceil(b), cols.div_ceil(b));
    let setup = baselines::hqr(mt, nt, ProcessGrid::new(grid.0, grid.1), config_of(args, grid));
    let graph = match TaskGraph::try_build(mt, nt, b, &setup.elims.to_ops()) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let n = graph.tasks().len();
    let mut a = TiledMatrix::random(mt, nt, b, seed);
    let mut plan = (fail > 0).then(|| FaultPlan::new(seed).fail_random_tasks(n, fail, 1));
    if sdc_rate > 0.0 {
        let sdc_seed = args.usize_or("sdc-seed", seed as usize) as u64;
        let strikes = ((sdc_rate * n as f64).round() as usize).max(1);
        plan = Some(
            plan.unwrap_or_else(|| FaultPlan::new(seed))
                .corrupt_random_tasks_seeded(sdc_seed, n, strikes),
        );
    }
    // `--resident-budget-kb` turns on the two-tier tile store: at most
    // this many KiB of tiles stay resident, the rest page against a
    // checksummed spill file. 0 (the default) keeps everything resident.
    let resident_budget = match args.usize_or("resident-budget-kb", 0) as u64 {
        0 => None,
        kb => Some(kb << 10),
    };
    let opts = ExecOptions {
        nthreads: threads,
        max_retries: if sdc_rate > 0.0 { retries.max(1) } else { retries },
        plan,
        policy,
        integrity,
        resident_budget,
        ..Default::default()
    };
    println!("backend      : work-stealing executor ({threads} threads)");
    println!("policy       : {policy}");
    println!("graph        : {mt} x {nt} tiles of {b} ({n} tasks, {} edges)", graph.edge_count());
    let (_, stats, tr) = match try_execute_traced(&graph, &mut a, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("execution failed: {e}");
            return 1;
        }
    };
    if let Some(code) =
        write_trace(args, "hqr-exec.trace.json", &chrome_trace_from_exec(&tr, graph.tasks()))
    {
        return code;
    }
    let busy: f64 = tr.records.iter().map(|r| r.end - r.start).sum();
    println!("wall         : {:.3} ms", tr.wall * 1e3);
    println!(
        "utilization  : {:.1}% of {} workers",
        100.0 * busy / (tr.wall * threads as f64).max(f64::MIN_POSITIVE),
        threads
    );
    println!(
        "scheduler    : {} local pops, {} injector pops, {} steals",
        tr.counters.iter().map(|c| c.local_pops).sum::<u64>(),
        tr.total_injector_pops(),
        tr.total_steals()
    );
    if let Some(sp) = &tr.spill {
        println!(
            "spill        : {} KiB resident — {} evictions ({} write-backs), {} demand faults, \
             {} prefetched ({} hits)",
            sp.budget >> 10,
            sp.evictions,
            sp.writebacks,
            sp.demand_faults,
            sp.prefetches,
            sp.prefetch_hits
        );
        let pin: f64 = tr.records.iter().map(|r| r.kernel_start - r.start).sum();
        println!(
            "pin wait     : {:.3} ms of {:.3} ms busy ({:.1}%) spent making tiles resident",
            pin * 1e3,
            busy * 1e3,
            100.0 * pin / busy.max(f64::MIN_POSITIVE)
        );
    }
    if stats.panics_caught > 0 {
        println!(
            "faults       : {} panics caught, {} tasks recovered, {} re-executions",
            stats.panics_caught, stats.tasks_recovered, stats.tasks_reexecuted
        );
    }
    if stats.sdc_injected > 0 || integrity.is_on() {
        println!(
            "integrity    : {} guards — {} corruptions injected, {} detected, {} recomputed",
            integrity, stats.sdc_injected, stats.sdc_detected, stats.sdc_recomputed
        );
    }
    // Realized CP over the wall-clock records; the executor is shared
    // memory, so there is no communication term.
    let mut span: Vec<Option<(f64, f64)>> = vec![None; n];
    for r in &tr.records {
        span[r.task as usize] = Some((r.start, r.end));
    }
    let cp = realized_critical_path(&graph, |t| span[t as usize], |_, _| 0.0);
    print_critical_path(&cp, &graph, 10);
    0
}

/// The `sim` backend of [`trace`]: a traced discrete-event replay.
fn trace_sim(args: &Args) -> i32 {
    let b = args.usize_or("tile", 280);
    let rows = args.usize_or("rows", 8960);
    let cols = args.usize_or("cols", 2240);
    let grid = args.grid_or("grid", (3, 2));
    if let Some(code) = require_positive(&[("tile", b), ("grid (P)", grid.0), ("grid (Q)", grid.1)])
    {
        return code;
    }
    let (mt, nt) = (rows / b, cols / b);
    if mt == 0 || nt == 0 {
        eprintln!("matrix smaller than one tile");
        return 2;
    }
    let rates = match rates_of(args) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let mut platform = Platform {
        nodes: args.usize_or("nodes", grid.0 * grid.1),
        cores_per_node: args.usize_or("cores", 4),
        rates,
        ..Platform::edel()
    };
    if let Some(code) =
        require_positive(&[("nodes", platform.nodes), ("cores", platform.cores_per_node)])
    {
        return code;
    }
    if let Some(code) = validate_sim_fault_args(args, platform.nodes) {
        return code;
    }
    let gpus = args.usize_or("gpus", 0);
    if gpus > 0 {
        platform.accelerators = Some(hqr_sim::Accelerators {
            per_node: gpus,
            update_speedup: args.f64_or("gpu-speedup", 8.0),
        });
    }
    let policy = match policy_of(args, SchedPolicy::PanelFirst) {
        Ok(p) => p,
        Err(code) => return code,
    };
    let setup = baselines::hqr(mt, nt, ProcessGrid::new(grid.0, grid.1), config_of(args, grid));
    let graph = match TaskGraph::try_build(mt, nt, b, &setup.elims.to_ops()) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let mut plan = SimFaultPlan::new();
    if args.get("crash-node").is_some() {
        // The crash instant is a fraction of the fault-free makespan, so
        // run the baseline once to find it.
        let baseline = simulate_with_policy(&graph, &setup.layout, &platform, policy);
        let crash_at = args.f64_or("crash-frac", 0.3) * baseline.makespan;
        plan = plan.crash_node(args.usize_or("crash-node", 0), crash_at);
    }
    let degrade_bw = args.f64_or("degrade-bw", 1.0);
    let degrade_lat = args.f64_or("degrade-lat", 1.0);
    if degrade_bw != 1.0 || degrade_lat != 1.0 {
        plan = plan.degrade_link(0.0, degrade_bw, degrade_lat);
    }
    println!(
        "backend      : cluster simulator ({} nodes x {} cores{})",
        platform.nodes,
        platform.cores_per_node,
        if gpus > 0 { format!(" + {gpus} GPUs/node") } else { String::new() }
    );
    println!(
        "graph        : {mt} x {nt} tiles of {b} ({} tasks, {} edges)",
        graph.tasks().len(),
        graph.edge_count()
    );
    let rep = match simulate_traced(&graph, &setup.layout, &platform, policy, &plan) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let tl = rep.timeline.as_ref().expect("traced run records a timeline");
    if let Some(code) = write_trace(args, "hqr-sim.trace.json", &tl.to_chrome_trace(&graph)) {
        return code;
    }
    println!("makespan     : {:.4} s (simulated)", rep.makespan);
    println!("messages     : {} ({:.3} MB)", rep.messages, rep.bytes / 1e6);
    println!("utilization  : {:.1}%", 100.0 * rep.utilization(&platform));
    if let Some(o) = &rep.overhead {
        println!(
            "recovery     : {} tasks re-executed, {} messages re-sent ({:+.1}% makespan)",
            o.reexecuted_tasks,
            o.resent_messages,
            100.0 * o.makespan_inflation
        );
    }
    let cp = rep.critical_path.as_ref().expect("traced run extracts a CP");
    println!(
        "cp/makespan  : {:.1}% of the makespan is the realized critical path",
        100.0 * cp.length / rep.makespan.max(f64::MIN_POSITIVE)
    );
    print_critical_path(cp, &graph, 10);
    0
}

/// `hqr schedule`: coarse-grain schedule tables.
pub fn schedule(args: &Args) -> i32 {
    let mt = args.usize_or("rows", 12);
    let nt = args.usize_or("cols", 3);
    let panels = args.usize_or("panels", nt.min(3));
    let tree = args.str_or("tree", "greedy");
    let s = match tree.as_str() {
        "flat" => Schedule::flat(mt, nt),
        "binary" => Schedule::binary(mt, nt),
        "greedy" => Schedule::greedy(mt, nt),
        "fibonacci" => Schedule::fibonacci(mt, nt),
        other => {
            eprintln!("unknown tree `{other}`");
            return 2;
        }
    };
    println!("{tree} tree on {mt} x {nt} tiles (unit-time model):");
    println!("{}", s.render(panels));
    println!("makespan: {} steps", s.makespan());
    0
}

/// `hqr trees`: reduction pairings.
pub fn trees(args: &Args) -> i32 {
    let z = args.usize_or("size", 12);
    for kind in TreeKind::ALL {
        print!("{:<10}", kind.name());
        for (v, u) in kind.reduction(z) {
            print!(" ({v}<-{u})");
        }
        println!("   [depth {}]", kind.depth(z));
    }
    0
}

/// `hqr dot`: Graphviz export.
pub fn dot(args: &Args) -> i32 {
    let mt = args.usize_or("rows", 4);
    let nt = args.usize_or("cols", 2);
    let tree = args.str_or("tree", "flat");
    let elims = match tree.as_str() {
        "flat" => Schedule::flat(mt, nt).to_elim_list(true),
        "binary" => Schedule::binary(mt, nt).to_elim_list(false),
        "greedy" => Schedule::greedy(mt, nt).to_elim_list(false),
        "fibonacci" => Schedule::fibonacci(mt, nt).to_elim_list(false),
        other => {
            eprintln!("unknown tree `{other}`");
            return 2;
        }
    };
    let graph = match TaskGraph::try_build(mt, nt, 4, &elims.to_ops()) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    match analysis::to_dot(&graph, 512) {
        Ok(s) => {
            print!("{s}");
            0
        }
        Err(e) => {
            eprintln!("{e}; try a smaller matrix");
            2
        }
    }
}

/// `hqr admission`: sweep the service's admission arms across arrival
/// rates and report where each one saturates.
pub fn admission(args: &Args) -> i32 {
    use hqr_sim::{saturation_sweep, AdmissionConfig, AdmissionPolicy};
    let base = AdmissionConfig {
        servers: args.usize_or("servers", 4),
        queue_cap: args.usize_or("queue-cap", 16),
        mean_service: args.f64_or("mean-service", 2.0),
        jobs: args.usize_or("jobs", 5_000),
        seed: args.usize_or("seed", 42) as u64,
        ..AdmissionConfig::default()
    };
    if let Some(code) = require_positive(&[("servers", base.servers), ("jobs", base.jobs)]) {
        return code;
    }
    let rate_min = args.f64_or("rate-min", 0.25);
    let rate_max = args.f64_or("rate-max", 4.0);
    let points = args.usize_or("points", 7);
    if let Some(code) = require_positive_f64(&[
        ("mean-service", base.mean_service),
        ("rate-min", rate_min),
        ("rate-max", rate_max),
    ]) {
        return code;
    }
    if points < 2 || rate_max <= rate_min {
        eprintln!("--points must be >= 2 and --rate-max > --rate-min");
        return 2;
    }
    // Geometric ramp: equal multiplicative steps resolve both the flat
    // region and the post-knee blow-up.
    let ratio = (rate_max / rate_min).powf(1.0 / (points - 1) as f64);
    let rates: Vec<f64> = (0..points).map(|i| rate_min * ratio.powi(i as i32)).collect();
    println!(
        "admission sweep: {} servers, queue cap {}, mean service {:.2}s, {} arrivals/point",
        base.servers, base.queue_cap, base.mean_service, base.jobs
    );
    println!(
        "{:>7} {:>6}  {:<8} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8}",
        "rate/s", "rho", "arm", "p50(s)", "p99(s)", "p99i(s)", "done", "shed", "refused"
    );
    let sweep = saturation_sweep(&base, &rates);
    for point in &sweep {
        for report in &point.arms {
            println!(
                "{:>7.3} {:>6.2}  {:<8} {:>9.3} {:>9.3} {:>9.3} {:>8} {:>8} {:>8}",
                point.rate,
                report.rho,
                report.policy.name(),
                report.p50,
                report.p99,
                report.p99_interactive,
                report.completed,
                report.shed,
                report.rejected
            );
        }
    }
    // Report each arm's knee: the first rate where it loses jobs or its
    // p99 exceeds 10x the unloaded service demand.
    for (a, policy) in AdmissionPolicy::ALL.iter().enumerate() {
        let knee = sweep.iter().find(|p| {
            let r = &p.arms[a];
            r.shed + r.rejected > 0 || r.p99 > 10.0 * base.mean_service
        });
        match knee {
            Some(p) => println!(
                "{:<8} saturates near {:.3} arrivals/s (rho {:.2})",
                policy.name(),
                p.rate,
                p.arms[a].rho
            ),
            None => println!("{:<8} never saturates in this sweep", policy.name()),
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        Args::parse(&s.iter().map(|x| x.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn factor_small_succeeds() {
        let code = factor(&args(&[
            "--rows",
            "48",
            "--cols",
            "24",
            "--tile",
            "8",
            "--grid",
            "2x1",
            "--a",
            "2",
            "--domino",
            "--threads",
            "2",
        ]));
        assert_eq!(code, 0);
    }

    #[test]
    fn factor_from_matrix_market_file() {
        let m = hqr_tile::DenseMatrix::random(20, 8, 5);
        let path = std::env::temp_dir().join("hqr_cli_input.mtx");
        hqr_tile::io::write_matrix_market(&path, &m).unwrap();
        let code =
            factor(&args(&["--input", path.to_str().unwrap(), "--tile", "4", "--grid", "2x1"]));
        assert_eq!(code, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn factor_reports_missing_file() {
        assert_eq!(factor(&args(&["--input", "/no/such/file.mtx"])), 2);
    }

    #[test]
    fn factor_rejects_wide() {
        assert_eq!(factor(&args(&["--rows", "8", "--cols", "16", "--tile", "4"])), 2);
    }

    #[test]
    fn simulate_all_algorithms() {
        for alg in ["hqr", "hqr-tall", "hqr-square", "bbd10", "slhd10", "scalapack"] {
            let code = simulate(&args(&[
                "--rows",
                "3360",
                "--cols",
                "1120",
                "--tile",
                "280",
                "--grid",
                "3x2",
                "--algorithm",
                alg,
            ]));
            assert_eq!(code, 0, "{alg}");
        }
    }

    #[test]
    fn simulate_with_gpus_and_policies() {
        for policy in ["panel", "fifo", "cp"] {
            let code = simulate(&args(&[
                "--rows", "2240", "--cols", "1120", "--tile", "280", "--grid", "2x2", "--gpus",
                "2", "--policy", policy,
            ]));
            assert_eq!(code, 0, "{policy}");
        }
    }

    #[test]
    fn schedule_and_trees_and_dot() {
        assert_eq!(schedule(&args(&["--rows", "12", "--cols", "3", "--tree", "greedy"])), 0);
        assert_eq!(trees(&args(&["--size", "8"])), 0);
        assert_eq!(dot(&args(&["--rows", "3", "--cols", "2", "--tree", "flat"])), 0);
    }

    #[test]
    fn bad_inputs_rejected() {
        assert_eq!(schedule(&args(&["--tree", "nope"])), 2);
        assert_eq!(simulate(&args(&["--algorithm", "nope"])), 2);
        assert_eq!(simulate(&args(&["--rows", "10", "--tile", "280"])), 2);
    }

    #[test]
    fn zero_valued_inputs_exit_cleanly() {
        // Each of these used to reach an assert/panic deep in the library.
        assert_eq!(factor(&args(&["--tile", "0"])), 2);
        assert_eq!(factor(&args(&["--rows", "0"])), 2);
        assert_eq!(factor(&args(&["--threads", "0"])), 2);
        assert_eq!(factor(&args(&["--grid", "0x2"])), 2);
        assert_eq!(factor(&args(&["--tile", "8", "--ib", "9"])), 2);
        assert_eq!(simulate(&args(&["--tile", "0"])), 2);
        assert_eq!(simulate(&args(&["--nodes", "0"])), 2);
        assert_eq!(fault(&args(&["--tile", "0"])), 2);
        assert_eq!(fault(&args(&["--rows", "8", "--cols", "16"])), 2);
    }

    #[test]
    fn fault_demo_recovers_end_to_end() {
        let code = fault(&args(&[
            "--rows",
            "48",
            "--cols",
            "24",
            "--tile",
            "8",
            "--grid",
            "2x1",
            "--threads",
            "2",
            "--fail",
            "2",
            "--seed",
            "7",
        ]));
        assert_eq!(code, 0);
    }

    #[test]
    fn fault_demo_with_explicit_crash_and_degradation() {
        let code = fault(&args(&[
            "--rows",
            "48",
            "--cols",
            "24",
            "--tile",
            "8",
            "--grid",
            "2x1",
            "--threads",
            "2",
            "--crash-node",
            "1",
            "--crash-frac",
            "0.5",
            "--degrade-bw",
            "0.5",
            "--degrade-lat",
            "2.0",
        ]));
        assert_eq!(code, 0);
    }

    #[test]
    fn fault_rejects_crashing_only_node() {
        // A 1x1 grid has one simulated node; crashing it must be a clean
        // typed rejection, not a hang or panic.
        let code = fault(&args(&[
            "--rows",
            "24",
            "--cols",
            "8",
            "--tile",
            "8",
            "--grid",
            "1x1",
            "--threads",
            "2",
            "--crash-node",
            "0",
        ]));
        assert_eq!(code, 2);
    }

    #[test]
    fn trace_exec_backend_writes_valid_chrome_trace() {
        let out = std::env::temp_dir().join("hqr_cli_trace_exec.trace.json");
        let code = trace(&args(&[
            "--backend",
            "exec",
            "--rows",
            "48",
            "--cols",
            "24",
            "--tile",
            "8",
            "--grid",
            "2x1",
            "--threads",
            "2",
            "--fail",
            "1",
            "--out",
            out.to_str().unwrap(),
        ]));
        assert_eq!(code, 0);
        let json = std::fs::read_to_string(&out).unwrap();
        let events = hqr_runtime::validate_chrome_trace(&json).expect("schema-valid");
        assert!(events > 0);
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn trace_exec_backend_runs_every_policy_and_reports_it() {
        for policy in ["fifo", "panel", "cp"] {
            let out = std::env::temp_dir().join(format!("hqr_cli_trace_{policy}.trace.json"));
            let code = trace(&args(&[
                "--backend",
                "exec",
                "--rows",
                "48",
                "--cols",
                "24",
                "--tile",
                "8",
                "--grid",
                "2x1",
                "--threads",
                "4",
                "--policy",
                policy,
                "--out",
                out.to_str().unwrap(),
            ]));
            assert_eq!(code, 0, "{policy}");
            let json = std::fs::read_to_string(&out).unwrap();
            hqr_runtime::validate_chrome_trace(&json).expect("schema-valid");
            assert!(
                json.contains(&format!("{policy} policy")),
                "{policy}: trace process name should carry the policy"
            );
            let _ = std::fs::remove_file(&out);
        }
    }

    #[test]
    fn fault_accepts_policy_flag() {
        let code = fault(&args(&[
            "--rows",
            "48",
            "--cols",
            "24",
            "--tile",
            "8",
            "--grid",
            "2x1",
            "--threads",
            "2",
            "--fail",
            "1",
            "--policy",
            "cp",
        ]));
        assert_eq!(code, 0);
    }

    #[test]
    fn unknown_policy_is_rejected_everywhere() {
        assert_eq!(trace(&args(&["--backend", "exec", "--policy", "bogus"])), 2);
        assert_eq!(trace(&args(&["--backend", "sim", "--policy", "bogus"])), 2);
        assert_eq!(fault(&args(&["--policy", "bogus"])), 2);
        assert_eq!(simulate(&args(&["--policy", "bogus"])), 2);
    }

    #[test]
    fn trace_sim_backend_writes_valid_chrome_trace() {
        let out = std::env::temp_dir().join("hqr_cli_trace_sim.trace.json");
        let code = trace(&args(&[
            "--backend",
            "sim",
            "--rows",
            "2240",
            "--cols",
            "1120",
            "--tile",
            "280",
            "--grid",
            "2x1",
            "--gpus",
            "1",
            "--out",
            out.to_str().unwrap(),
        ]));
        assert_eq!(code, 0);
        let json = std::fs::read_to_string(&out).unwrap();
        hqr_runtime::validate_chrome_trace(&json).expect("schema-valid");
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn trace_sim_backend_with_crash() {
        let out = std::env::temp_dir().join("hqr_cli_trace_crash.trace.json");
        let code = trace(&args(&[
            "--backend",
            "sim",
            "--rows",
            "2240",
            "--cols",
            "560",
            "--tile",
            "280",
            "--grid",
            "3x1",
            "--crash-node",
            "1",
            "--crash-frac",
            "0.3",
            "--out",
            out.to_str().unwrap(),
        ]));
        assert_eq!(code, 0);
        hqr_runtime::validate_chrome_trace(&std::fs::read_to_string(&out).unwrap()).unwrap();
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn trace_rejects_bad_inputs() {
        assert_eq!(trace(&args(&["--backend", "nope"])), 2);
        assert_eq!(trace(&args(&["--backend", "exec", "--tile", "0"])), 2);
        assert_eq!(trace(&args(&["--backend", "exec", "--rows", "8", "--cols", "16"])), 2);
        assert_eq!(trace(&args(&["--backend", "sim", "--rows", "10", "--tile", "280"])), 2);
        assert_eq!(trace(&args(&["--backend", "exec", "--out", "/no/such/dir/x.trace.json"])), 2);
    }

    #[test]
    fn fault_prints_policy_comparison_with_explicit_interval() {
        let code = fault(&args(&[
            "--rows",
            "48",
            "--cols",
            "24",
            "--tile",
            "8",
            "--grid",
            "2x1",
            "--threads",
            "2",
            "--ckpt-interval",
            "0.05",
            "--crossover-max",
            "1",
        ]));
        assert_eq!(code, 0);
    }

    #[test]
    fn fault_rejects_malformed_fault_arguments() {
        let base = ["--rows", "48", "--cols", "24", "--tile", "8", "--grid", "2x1"];
        let with = |extra: &[&str]| {
            let mut v: Vec<&str> = base.to_vec();
            v.extend_from_slice(extra);
            fault(&args(&v))
        };
        // Node index out of range for the 2-node platform.
        assert_eq!(with(&["--crash-node", "7"]), 2);
        // Negative crash time fraction.
        assert_eq!(with(&["--crash-node", "1", "--crash-frac", "-0.5"]), 2);
        // Zero bandwidth / latency degradation factors.
        assert_eq!(with(&["--degrade-bw", "0"]), 2);
        assert_eq!(with(&["--degrade-lat", "0"]), 2);
        // Checkpoint-model arguments must be positive where required.
        assert_eq!(with(&["--io-bw", "0"]), 2);
        assert_eq!(with(&["--restart-cost", "-1"]), 2);
        assert_eq!(with(&["--ckpt-interval", "0"]), 2);
    }

    #[test]
    fn trace_sim_rejects_malformed_fault_arguments() {
        let base = [
            "--backend",
            "sim",
            "--rows",
            "2240",
            "--cols",
            "560",
            "--tile",
            "280",
            "--grid",
            "3x1",
        ];
        let with = |extra: &[&str]| {
            let mut v: Vec<&str> = base.to_vec();
            v.extend_from_slice(extra);
            trace(&args(&v))
        };
        assert_eq!(with(&["--crash-node", "9"]), 2);
        assert_eq!(with(&["--crash-node", "1", "--crash-frac", "-0.1"]), 2);
        assert_eq!(with(&["--degrade-bw", "0"]), 2);
    }

    #[test]
    fn trace_sim_backend_with_degradation() {
        let out = std::env::temp_dir().join("hqr_cli_trace_degrade.trace.json");
        let code = trace(&args(&[
            "--backend",
            "sim",
            "--rows",
            "2240",
            "--cols",
            "560",
            "--tile",
            "280",
            "--grid",
            "3x1",
            "--degrade-bw",
            "0.5",
            "--degrade-lat",
            "2.0",
            "--out",
            out.to_str().unwrap(),
        ]));
        assert_eq!(code, 0);
        hqr_runtime::validate_chrome_trace(&std::fs::read_to_string(&out).unwrap()).unwrap();
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn checkpoint_then_resume_roundtrip_is_bitwise_verified() {
        let ckpt = std::env::temp_dir().join("hqr_cli_roundtrip.ckpt");
        let code = checkpoint(&args(&[
            "--rows",
            "48",
            "--cols",
            "24",
            "--tile",
            "8",
            "--grid",
            "2x1",
            "--threads",
            "2",
            "--stop-after-panel",
            "0",
            "--ckpt",
            ckpt.to_str().unwrap(),
        ]));
        assert_eq!(code, 0);
        // The `--verify` pass re-runs the whole factorization serially and
        // exits 1 on any bitwise divergence — 0 means the resumed run is
        // indistinguishable from an uninterrupted one.
        let code = resume(&args(&["--ckpt", ckpt.to_str().unwrap(), "--threads", "3", "--verify"]));
        assert_eq!(code, 0);
        let _ = std::fs::remove_file(&ckpt);
    }

    #[test]
    fn checkpoint_and_resume_traces_carry_instants() {
        let ckpt = std::env::temp_dir().join("hqr_cli_traced.ckpt");
        let out1 = std::env::temp_dir().join("hqr_cli_ckpt.trace.json");
        let out2 = std::env::temp_dir().join("hqr_cli_resume.trace.json");
        let code = checkpoint(&args(&[
            "--rows",
            "48",
            "--cols",
            "24",
            "--tile",
            "8",
            "--grid",
            "2x1",
            "--threads",
            "2",
            "--stop-after-panel",
            "1",
            "--ckpt",
            ckpt.to_str().unwrap(),
            "--out",
            out1.to_str().unwrap(),
        ]));
        assert_eq!(code, 0);
        let json = std::fs::read_to_string(&out1).unwrap();
        hqr_runtime::validate_chrome_trace(&json).expect("schema-valid");
        assert!(json.contains("checkpoint written"), "checkpoint instants in the trace");
        let code = resume(&args(&[
            "--ckpt",
            ckpt.to_str().unwrap(),
            "--threads",
            "2",
            "--out",
            out2.to_str().unwrap(),
        ]));
        assert_eq!(code, 0);
        let json = std::fs::read_to_string(&out2).unwrap();
        hqr_runtime::validate_chrome_trace(&json).expect("schema-valid");
        assert!(json.contains("resumed from checkpoint"), "resume instant in the trace");
        for p in [&ckpt, &out1, &out2] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn checkpoint_rejects_bad_inputs() {
        assert_eq!(checkpoint(&args(&["--tile", "0"])), 2);
        assert_eq!(checkpoint(&args(&["--rows", "8", "--cols", "16"])), 2);
        assert_eq!(checkpoint(&args(&["--tile", "8", "--ib", "9"])), 2);
        assert_eq!(checkpoint(&args(&["--every-panels", "0"])), 2);
        // Stopping at or past the last panel leaves nothing to resume.
        assert_eq!(
            checkpoint(&args(&[
                "--rows",
                "48",
                "--cols",
                "24",
                "--tile",
                "8",
                "--stop-after-panel",
                "2"
            ])),
            2
        );
    }

    #[test]
    fn resume_rejects_missing_checkpoint() {
        assert_eq!(resume(&args(&["--ckpt", "/no/such/dir/x.ckpt"])), 2);
        assert_eq!(resume(&args(&["--threads", "0"])), 2);
    }

    #[test]
    fn run_dispatches() {
        assert_eq!(crate::run(&["trees".to_string()]), 0);
        assert_eq!(crate::run(&["resume".to_string(), "--ckpt".into(), "/no/such.ckpt".into()]), 2);
        assert_eq!(crate::run(&["help".to_string()]), 0);
        assert_eq!(crate::run(&["bogus".to_string()]), 2);
        assert_eq!(crate::run(&[]), 0);
    }
}
