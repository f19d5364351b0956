//! The `hqr` subcommands: each parses its flags into a [`Problem`] (and the
//! option families beside it), rejects what it did not read, calls one
//! backend and reports.

use crate::args::{Args, CliError};
use crate::problem::{
    bitwise_vs_serial, coarse_schedule, describe, graph_of, policy_of, sim_platform, Defaults,
    Engine, Problem, Shape, SimFaults,
};
use hqr::baselines;
use hqr::prelude::*;
use hqr_runtime::trace::{chrome_trace_from_exec, realized_critical_path, RealizedPath};
use hqr_runtime::{
    analysis, try_execute_traced, try_execute_with, ExecOptions, ExecTrace, IntegrityMode,
    SchedPolicy, TaskGraph,
};
use hqr_sim::scalapack::ScalapackModel;
use hqr_sim::{simulate_with, SimOptions};
use std::time::Instant;

/// Top-level usage text.
pub const USAGE: &str = "\
hqr — hierarchical tile QR factorization (IPDPS 2012 reproduction)

USAGE:
  hqr factor   [--rows R --cols C --tile B --grid PxQ --a A --low TREE
                --high TREE --domino --ib IB --threads T --seed S
                --input FILE.mtx]
      factor a random (or MatrixMarket) matrix, then check it on the same
      engine: ||Qt (Q [I;0]) - [I;0]|| and ||A - Q [R;0]|| / ||A||, each
      timed against the factorization
  hqr simulate [--rows R --cols C --tile B --grid PxQ --algorithm ALG
                --nodes N --cores C --policy POLICY --rates edel|measured
                --net-calib FILE]
      replay the task DAG on the simulated cluster
      ALG: hqr | hqr-square | bbd10 | slhd10 | scalapack
      RATES: edel = the paper's §V-A kernel rates (default);
             measured = this repo's own kernels (BENCH_7.json)
  hqr fault    [--rows R --cols C --tile B --grid PxQ --threads T --seed S
                --fail K --retries N --policy POLICY --crash-node X
                --crash-frac F --degrade-bw F --degrade-lat F --nodes N
                --cores C --sdc-rate F --integrity off|spot|full
                --rates edel|measured]
      inject a seeded fault schedule: panic K random kernel tasks in a real
      parallel factorization (verifying bitwise recovery), then crash a
      simulated node mid-run and report the lineage-recovery overhead;
      with --sdc-rate, also strike random tasks with silent single-bit flips
      and report detected/recomputed/escaped counts under the chosen
      --integrity mode
  hqr trace    [--backend exec|sim --out FILE.trace.json
                --rows R --cols C --tile B --grid PxQ --a A --low TREE
                --high TREE --domino
                exec: --threads T --seed S --fail K --retries N
                      --policy POLICY --sdc-rate F --integrity off|spot|full
                      --resident-budget-kb KB
                sim:  --nodes N --cores C --policy POLICY --crash-node X
                      --crash-frac F --degrade-bw F --degrade-lat F
                      --rates edel|measured]
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
      writes the stored file: the job's checkpoint with every task
      complete (the format `hqr serve` checkpoints in), otherwise prints a
      summary
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
  hqr worker   [--listen ADDR --die-after-tasks N --die-hard --slow-ms MS]
      run one distributed tile worker: owns a shard of the matrix,
      runs the tasks of the DAG its tiles own and pushes finished
      tiles straight to the workers that consume them over TCP;
      prints its pid and bound address (--listen 127.0.0.1:0 picks a
      free port); --die-after-tasks/--die-hard are deterministic
      kill-points for chaos tests (--die-hard aborts the process)
  hqr dist     [--workers A:P,B:P,... | --spawn N] [--rows R --cols C
                --tile B --ib IB --seed S --grid PxQ --a A --low TREE
                --high TREE --domino --worker-grid PxQ
                --rpc-timeout-ms MS --retries N --stall-timeout-ms MS
                --drop-frac F --delay-frac F --delay-ms MS
                --verify --trace FILE]
      distributed factorization across a worker fleet (external
      addresses, or --spawn N in-process workers): tiles live in 2D
      block-cyclic shards, every worker runs its own share of the
      DAG and pushes tiles to its peers, and the coordinator only
      scatters, supervises and gathers (`relayed` in the report is
      what else passed through it: 0 unless a worker was lost); every
      exchange has a deadline plus jittered retries, a progress poll of
      each worker every few ms is the liveness check (a poll that fails
      through the retries condemns the worker), and a worker lost
      mid-run is recovered by lineage re-execution onto survivors;
      --drop-frac/--delay-frac inject RPC chaos seeded by --seed,
      --verify checks the result is bitwise-identical to a serial run,
      --trace writes the coordinator's account of the run (transfers by
      link, retries, recoveries) for CI artifacts
  hqr calibrate [--sizes B1,B2,... --reps N --out FILE]
      measure real loopback TCP transfers across payload sizes, fit
      LogGP (latency, bandwidth) by least squares, print a
      measured-vs-model table against the paper's InfiniBand link, and
      persist the fit for `hqr simulate --net-calib FILE`
  hqr experiments table|fig6|fig7|fig8|fig9|ablations|scaling|cp|policies|trees|all
                [--quick --gate]
      regenerate the paper's evaluation (§V) as markdown: Tables I-IV,
      Figures 6-9 on the simulated edel cluster, and the extension studies;
      `trees` runs Figs 6-7's tree settings on this host's kernels beside
      the simulator's prediction; --quick shrinks the sweeps, --gate makes
      `policies` exit 1 when the critical-path policy runs past 1.10x FIFO
      on the real executor
  hqr schedule [--rows MT --cols NT --tree TREE --panels P]
      print the coarse-grain unit-time schedule (Tables I-IV)
  hqr trees    [--size Z]
      print the reduction pairings of all four trees
  hqr dot      [--rows MT --cols NT --tree TREE]
      emit the task DAG as Graphviz DOT
  TREE: flat | binary | greedy | fibonacci
  POLICY: fifo | panel | cp   (ready-queue scheduling policy; both backends)
  a flag the subcommand does not take, or a stray argument, is an error (exit 2)
";

/// Write `json` to the `--out` path (or `default_name`) and confirm.
fn write_trace(out: Option<&str>, default_name: &str, json: &str) -> Result<(), CliError> {
    let out = out.unwrap_or(default_name);
    std::fs::write(out, json)
        .map_err(|e| CliError::usage(format!("failed to write {out}: {e}")))?;
    println!("trace        : {out} ({} bytes) — open at https://ui.perfetto.dev", json.len());
    Ok(())
}

/// `hqr factor`: factor a random (or MatrixMarket) matrix and run the
/// paper's checks on the engine.
pub fn factor(args: &Args) -> Result<i32, CliError> {
    let input = match args.get("input") {
        None => None,
        Some(path) => Some((
            path,
            hqr_tile::io::read_matrix_market(std::path::Path::new(path))
                .map_err(|e| CliError::usage(format!("failed to read {path}: {e}")))?,
        )),
    };
    // A MatrixMarket input brings its own dimensions: they stand in for
    // the `--rows/--cols` defaults, and flags that contradict them are an
    // error rather than a second, ignored, description of the matrix.
    let d = Defaults { rows: 384, cols: 160, tile: 16, ..Defaults::EXEC };
    let d = input.as_ref().map_or(d, |(_, m)| Defaults { rows: m.rows(), cols: m.cols(), ..d });
    let s = Shape::from_args(args, d)?;
    args.reject_unknown()?;
    if (s.rows, s.cols) != (d.rows, d.cols) && input.is_some() {
        return Err(CliError::usage("--rows/--cols disagree with the --input matrix"));
    }
    println!("configuration : {}", s.cfg.describe());
    let a0 = match input {
        Some((path, m)) => {
            println!("input         : {path} ({} x {})", m.rows(), m.cols());
            m
        }
        None => DenseMatrix::random(s.rows, s.cols, s.seed),
    };
    let Shape { rows, cols, b, ib, threads, .. } = s;
    let exec = if threads <= 1 { Execution::Serial } else { Execution::Parallel(threads) };
    let t0 = Instant::now();
    let qr = QrFactorization::from_dense(&a0, b, ib, s.cfg, exec);
    let factor_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let check = qr.check(&a0);
    let check_s = t1.elapsed().as_secs_f64();
    let ratio = check_s / factor_s;
    println!("matrix        : {rows} x {cols}, tile {b}, ib {ib}");
    println!("factor time   : {:.1} ms on {threads} threads", factor_s * 1e3);
    println!("check time    : {:.1} ms ({ratio:.2}x the factor time)", check_s * 1e3);
    println!("||QtQ1-[I;0]||: {:.3e}", check.orthogonality);
    println!("||A-QR||/||A||: {:.3e}", check.residual);
    let ok = check.is_satisfactory();
    println!("checks        : {}", if ok { "satisfactory" } else { "FAILED" });
    Ok(i32::from(!ok))
}

/// `hqr simulate`: replay on the modeled cluster.
pub fn simulate(args: &Args) -> Result<i32, CliError> {
    let d = Defaults { rows: 71_680, cols: 4_480, grid: (15, 4), ..Defaults::SIM };
    let shape = Shape::from_args(args, d)?;
    let (platform, link_note) = &sim_platform(args, shape.grid, 8)?;
    let policy = policy_of(args, SchedPolicy::PanelFirst)?;
    let alg = args.str_or("algorithm", "hqr");
    args.reject_unknown()?;
    let Shape { rows, cols, b, mt, nt, grid, .. } = shape;
    let setup = match alg.as_str() {
        "hqr" => shape.hqr(),
        "hqr-tall" => baselines::hqr_tall_skinny(mt, nt, grid),
        "hqr-square" => baselines::hqr_square(mt, nt, grid),
        "bbd10" => baselines::bbd10(mt, nt, grid),
        "slhd10" => baselines::slhd10(mt, nt, platform.nodes),
        "scalapack" => {
            let r = ScalapackModel::default().run(rows, cols, grid.p, grid.q, platform);
            println!("algorithm : ScaLAPACK pdgeqrf (analytic model)");
            println!("makespan  : {:.3} s", r.makespan);
            println!("GFlop/s   : {:.1} ({:.1}% of peak)", r.gflops, 100.0 * r.efficiency);
            return Ok(0);
        }
        other => return Err(CliError::usage(format!("unknown algorithm `{other}`"))),
    };
    println!("algorithm : {}", setup.name);
    println!("matrix    : {rows} x {cols} ({mt} x {nt} tiles of {b})");
    println!("platform  : {}{link_note}", describe(platform));
    let t0 = Instant::now();
    let p = shape.build(setup)?;
    let graph = &p.graph;
    let opts = SimOptions { policy, ..Default::default() };
    let rep = simulate_with(graph, &p.setup.layout, platform, &opts).map_err(CliError::usage)?;
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
    println!("utilization: {:.1}%", 100.0 * rep.utilization(platform));
    Ok(0)
}

/// `hqr fault`: seeded fault-injection demo in three report sections. The
/// first two inject kernel panics, then bit flips, into a real parallel
/// factorization and verify the recovered result is bitwise-identical to a
/// serial one; the third crashes a simulated node mid-run and reports what
/// lineage recovery cost.
pub fn fault(args: &Args) -> Result<i32, CliError> {
    let p = Problem::from_args(args, Defaults { grid: (3, 1), ..Defaults::EXEC })?;
    let engine = Engine::from_args(args, &p, SchedPolicy::PanelFirst, 3)?;
    let (platform, _) = sim_platform(args, p.shape.grid, 4)?;
    let faults = SimFaults::from_args(args, platform.nodes)?;
    args.reject_unknown()?;
    let Shape { b, ib, mt, nt, seed, .. } = p.shape;
    let (graph, layout, policy) = (&p.graph, &p.setup.layout, engine.policy);

    println!("== execution: seeded kernel-panic injection ==");
    let plan = engine.plan(true, false);
    let injected = plan.failing_tasks().count();
    println!("graph        : {mt} x {nt} tiles of {b} ({} tasks)", graph.tasks().len());
    println!("policy       : {policy}");
    println!("fault plan   : seed {seed}, {injected} tasks panic on first attempt");
    let input = p.input();
    let mut a = input.clone();
    // This section shows recovery by retry alone; the guards belong to the
    // SDC section, whatever `--integrity` says.
    let opts = ExecOptions { integrity: IntegrityMode::Off, ..engine.options(&p.shape, plan) };
    let (factors, stats) = try_execute_with(graph, &mut a, &opts)
        .map_err(|e| CliError::failed(format!("execution failed to recover: {e}")))?;
    let bitwise = bitwise_vs_serial(graph, &input, ib, &a, &factors);
    println!("recovery     : {} panics caught, {} tasks recovered, {} re-executions, {} tiles rolled back",
        stats.panics_caught, stats.tasks_recovered, stats.tasks_reexecuted, stats.tiles_rolled_back);
    println!("bitwise check: {}", if bitwise { "identical to fault-free run" } else { "MISMATCH" });
    if !bitwise {
        return Ok(1);
    }

    if engine.strikes > 0 {
        let integrity = engine.integrity;
        let plan = engine.plan(false, true);
        println!();
        println!("== execution: seeded bit-flip (SDC) injection ==");
        println!(
            "fault plan   : seed {seed}, {} tasks struck by a single bit flip",
            plan.planned_corruptions()
        );
        println!("integrity    : {integrity}");
        let mut a = input.clone();
        match try_execute_with(graph, &mut a, &engine.options(&p.shape, plan)) {
            Ok((factors, stats)) => {
                let clean = bitwise_vs_serial(graph, &input, ib, &a, &factors);
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
                if integrity.is_on() && !clean {
                    return Ok(1);
                }
            }
            Err(e) if integrity.is_on() => {
                return Err(CliError::failed(format!("execution failed under SDC injection: {e}")));
            }
            // An unprotected run is allowed to die of its corruption.
            Err(e) => eprintln!("execution failed under SDC injection: {e}"),
        }
    }

    println!();
    println!("== simulation: node crash with lineage recovery ==");
    let opts = SimOptions { policy, ..Default::default() };
    let baseline = simulate_with(graph, layout, &platform, &opts).map_err(CliError::usage)?;
    let plan = faults.plan(baseline.makespan, Some((platform.nodes, seed)));
    let crash = &plan.crashes()[0];
    println!("platform     : {}", describe(&platform));
    println!(
        "fault plan   : crash node {} at t = {:.4} s ({:.0}% of fault-free makespan)",
        crash.node,
        crash.at,
        100.0 * faults.crash_frac
    );
    let opts = SimOptions { plan, ..opts };
    let rep = simulate_with(graph, layout, &platform, &opts).map_err(CliError::usage)?;
    let o = rep.overhead.expect("faulty run reports overhead");
    println!(
        "makespan     : {:.4} s (fault-free {:.4} s, {:+.1}%)",
        rep.makespan,
        baseline.makespan,
        100.0 * inflation(rep.makespan, baseline.makespan)
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
    Ok(0)
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
pub fn trace(args: &Args) -> Result<i32, CliError> {
    match args.str_or("backend", "exec").as_str() {
        "exec" | "runtime" => trace_exec(args),
        "sim" | "simulator" => trace_sim(args),
        other => Err(CliError::usage(format!("unknown backend `{other}` (exec|sim)"))),
    }
}

/// The `exec` backend of [`trace`]: a real parallel factorization.
fn trace_exec(args: &Args) -> Result<i32, CliError> {
    let p = Problem::from_args(args, Defaults::EXEC)?;
    // The executor's historical behavior is plain FIFO release order, so
    // that stays the default here; `hqr simulate` keeps panel-first.
    let engine = Engine::from_args(args, &p, SchedPolicy::Fifo, 0)?;
    let out = args.get("out");
    args.reject_unknown()?;
    let Shape { b, mt, nt, threads, .. } = p.shape;
    let (graph, n) = (&p.graph, p.graph.tasks().len());
    let opts = engine.options(&p.shape, engine.plan(true, true));
    println!("backend      : work-stealing executor ({threads} threads)");
    println!("policy       : {}", engine.policy);
    println!("graph        : {mt} x {nt} tiles of {b} ({n} tasks, {} edges)", graph.edge_count());
    let (_, stats, tr) = try_execute_traced(graph, &mut p.input(), &opts)
        .map_err(|e| CliError::failed(format!("execution failed: {e}")))?;
    write_trace(out, "hqr-exec.trace.json", &chrome_trace_from_exec(&tr, graph.tasks()))?;
    println!("wall         : {:.3} ms", tr.wall * 1e3);
    println!("utilization  : {:.1}% of {threads} workers", 100.0 * tr.utilization());
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
        let busy: f64 = tr.per_worker_busy().iter().sum();
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
    if stats.sdc_injected > 0 || engine.integrity.is_on() {
        println!(
            "integrity    : {} guards — {} corruptions injected, {} detected, {} recomputed",
            engine.integrity, stats.sdc_injected, stats.sdc_detected, stats.sdc_recomputed
        );
    }
    print_critical_path(&exec_critical_path(graph, &tr), graph, 10);
    Ok(0)
}

/// The realized critical path of an executor trace. The executor is shared
/// memory, so a chain task waits only on its own pin pass (paged runs):
/// each step's span is its kernel time and its pin wait is its waiting.
fn exec_critical_path(graph: &TaskGraph, tr: &ExecTrace) -> RealizedPath {
    let n = graph.tasks().len();
    let mut span: Vec<Option<(f64, f64)>> = vec![None; n];
    let mut pin = vec![0.0; n];
    for r in &tr.records {
        span[r.task as usize] = Some((r.kernel_start, r.end));
        pin[r.task as usize] = r.kernel_start - r.start;
    }
    let mut cp = realized_critical_path(graph, |t| span[t as usize], |_, s| pin[s as usize]);
    // The entry task has no incoming edge to carry its pin wait.
    if let Some(entry) = cp.steps.first_mut() {
        entry.comm = pin[entry.task as usize];
        cp.comm_seconds += entry.comm;
        cp.length += entry.comm;
    }
    cp
}

/// A faulty run's makespan over the fault-free `baseline`, less one.
fn inflation(makespan: f64, baseline: f64) -> f64 {
    if baseline > 0.0 {
        makespan / baseline - 1.0
    } else {
        0.0
    }
}

/// The `sim` backend of [`trace`]: a traced discrete-event replay.
fn trace_sim(args: &Args) -> Result<i32, CliError> {
    let p = Problem::from_args(args, Defaults::SIM)?;
    let (platform, _) = &sim_platform(args, p.shape.grid, 4)?;
    let faults = SimFaults::from_args(args, platform.nodes)?;
    let policy = policy_of(args, SchedPolicy::PanelFirst)?;
    let out = args.get("out");
    args.reject_unknown()?;
    let Shape { b, mt, nt, .. } = p.shape;
    let (graph, layout) = (&p.graph, &p.setup.layout);
    // A crash instant is a fraction of the fault-free makespan, and a
    // faulty run's inflation is over it, so a run with any fault runs the
    // baseline once.
    let baseline = if faults.plan(0.0, None).is_empty() {
        0.0
    } else {
        let opts = SimOptions { policy, ..Default::default() };
        simulate_with(graph, layout, platform, &opts).map_err(CliError::usage)?.makespan
    };
    let plan = faults.plan(baseline, None);
    println!("backend      : cluster simulator ({})", describe(platform));
    println!(
        "graph        : {mt} x {nt} tiles of {b} ({} tasks, {} edges)",
        graph.tasks().len(),
        graph.edge_count()
    );
    let opts = SimOptions { policy, plan, trace: true };
    let rep = simulate_with(graph, layout, platform, &opts).map_err(CliError::usage)?;
    let tl = rep.timeline.as_ref().expect("traced run records a timeline");
    write_trace(out, "hqr-sim.trace.json", &chrome_trace_from_exec(tl, graph.tasks()))?;
    println!("makespan     : {:.4} s (simulated)", rep.makespan);
    println!("messages     : {} ({:.3} MB)", rep.messages, rep.bytes / 1e6);
    println!("utilization  : {:.1}%", 100.0 * rep.utilization(platform));
    if let Some(o) = &rep.overhead {
        println!(
            "recovery     : {} tasks re-executed, {} messages re-sent ({:+.1}% makespan)",
            o.reexecuted_tasks,
            o.resent_messages,
            100.0 * inflation(rep.makespan, baseline)
        );
    }
    let cp = rep.critical_path.as_ref().expect("traced run extracts a CP");
    println!(
        "cp/makespan  : {:.1}% of the makespan is the realized critical path",
        100.0 * cp.length / rep.makespan.max(f64::MIN_POSITIVE)
    );
    print_critical_path(cp, graph, 10);
    Ok(0)
}

/// `hqr schedule`: coarse-grain schedule tables.
pub fn schedule(args: &Args) -> Result<i32, CliError> {
    let (s, tree) = coarse_schedule(args, (12, 3), TreeKind::Greedy)?;
    let panels = args.usize_or("panels", s.nt().min(3))?;
    args.reject_unknown()?;
    println!("{} tree on {} x {} tiles (unit-time model):", tree.name(), s.mt(), s.nt());
    println!("{}", s.render(panels));
    println!("makespan: {} steps", s.makespan());
    Ok(0)
}

/// `hqr trees`: reduction pairings.
pub fn trees(args: &Args) -> Result<i32, CliError> {
    let z = args.usize_or("size", 12)?;
    args.reject_unknown()?;
    for kind in TreeKind::ALL {
        print!("{:<10}", kind.name());
        for (v, u) in kind.reduction(z) {
            print!(" ({v}<-{u})");
        }
        println!("   [depth {}]", kind.depth(z));
    }
    Ok(0)
}

/// `hqr dot`: Graphviz export.
pub fn dot(args: &Args) -> Result<i32, CliError> {
    let (s, tree) = coarse_schedule(args, (4, 2), TreeKind::Flat)?;
    args.reject_unknown()?;
    // Only the flat tree's eliminations are TS-kernel ones.
    let graph = graph_of(s.mt(), s.nt(), 4, &s.to_elim_list(tree == TreeKind::Flat))?;
    let dot = analysis::to_dot(&graph, 512)
        .map_err(|e| CliError::usage(format!("{e}; try a smaller matrix")))?;
    print!("{dot}");
    Ok(0)
}

#[cfg(test)]
mod tests {
    /// Run one subcommand in-process, through the same door as the binary.
    fn hqr(argv: &[&str]) -> i32 {
        crate::run(&argv.iter().map(|x| x.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn paged_critical_path_counts_pin_waits_as_waiting() {
        use hqr_runtime::{try_execute_traced, ElimOp, ExecOptions, TaskGraph};
        let (mt, nt, b) = (8, 4, 8);
        let elims: Vec<ElimOp> = (0..nt as u32)
            .flat_map(|k| (k + 1..mt as u32).map(move |i| ElimOp::new(k, i, k, true)))
            .collect();
        let graph = TaskGraph::build(mt, nt, b, &elims);
        let mut a = hqr_tile::TiledMatrix::random(mt, nt, b, 3);
        let tile = (b * b * std::mem::size_of::<f64>()) as u64;
        let opts =
            ExecOptions { nthreads: 1, resident_budget: Some(2 * tile), ..Default::default() };
        let (_, _, tr) = try_execute_traced(&graph, &mut a, &opts).unwrap();
        let cp = super::exec_critical_path(&graph, &tr);
        let record = |t: u32| tr.records.iter().rev().find(|r| r.task == t).unwrap();
        let kernel: f64 =
            cp.steps.iter().map(|s| record(s.task).end - record(s.task).kernel_start).sum();
        let pin: f64 =
            cp.steps.iter().map(|s| record(s.task).kernel_start - record(s.task).start).sum();
        assert!(pin > 0.0, "a two-tile budget makes some chain task wait on a pin");
        assert!((cp.task_seconds - kernel).abs() <= 1e-12, "{} vs {kernel}", cp.task_seconds);
        assert!((cp.comm_seconds - pin).abs() <= 1e-12, "{} vs {pin}", cp.comm_seconds);
        assert!((cp.length - kernel - pin).abs() <= 1e-9);
    }

    #[test]
    fn factor_small_succeeds() {
        let code = hqr(&[
            "factor",
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
        ]);
        assert_eq!(code, 0);
    }

    #[test]
    fn factor_from_matrix_market_file() {
        let m = hqr_tile::DenseMatrix::random(20, 8, 5);
        let path = std::env::temp_dir().join("hqr_cli_input.mtx");
        hqr_tile::io::write_matrix_market(&path, &m).unwrap();
        let code =
            hqr(&["factor", "--input", path.to_str().unwrap(), "--tile", "4", "--grid", "2x1"]);
        assert_eq!(code, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn factor_reports_missing_file() {
        assert_eq!(hqr(&["factor", "--input", "/no/such/file.mtx"]), 2);
    }

    #[test]
    fn factor_rejects_wide() {
        assert_eq!(hqr(&["factor", "--rows", "8", "--cols", "16", "--tile", "4"]), 2);
    }

    #[test]
    fn simulate_all_algorithms() {
        for alg in ["hqr", "hqr-tall", "hqr-square", "bbd10", "slhd10", "scalapack"] {
            let code = hqr(&[
                "simulate",
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
            ]);
            assert_eq!(code, 0, "{alg}");
        }
    }

    #[test]
    fn simulate_with_policies() {
        for policy in ["panel", "fifo", "cp"] {
            let code = hqr(&[
                "simulate", "--rows", "2240", "--cols", "1120", "--tile", "280", "--grid", "2x2",
                "--policy", policy,
            ]);
            assert_eq!(code, 0, "{policy}");
        }
    }

    #[test]
    fn schedule_and_trees_and_dot() {
        assert_eq!(hqr(&["schedule", "--rows", "12", "--cols", "3", "--tree", "greedy"]), 0);
        assert_eq!(hqr(&["trees", "--size", "8"]), 0);
        assert_eq!(hqr(&["dot", "--rows", "3", "--cols", "2", "--tree", "flat"]), 0);
    }

    #[test]
    fn bad_inputs_rejected() {
        assert_eq!(hqr(&["schedule", "--tree", "nope"]), 2);
        assert_eq!(hqr(&["simulate", "--algorithm", "nope"]), 2);
        assert_eq!(hqr(&["simulate", "--rows", "10", "--tile", "280"]), 2);
    }

    #[test]
    fn zero_valued_inputs_exit_cleanly() {
        // Each of these used to reach an assert/panic deep in the library.
        assert_eq!(hqr(&["factor", "--tile", "0"]), 2);
        assert_eq!(hqr(&["factor", "--rows", "0"]), 2);
        assert_eq!(hqr(&["factor", "--threads", "0"]), 2);
        assert_eq!(hqr(&["factor", "--grid", "0x2"]), 2);
        assert_eq!(hqr(&["factor", "--tile", "8", "--ib", "9"]), 2);
        assert_eq!(hqr(&["simulate", "--tile", "0"]), 2);
        assert_eq!(hqr(&["simulate", "--nodes", "0"]), 2);
        assert_eq!(hqr(&["fault", "--tile", "0"]), 2);
        assert_eq!(hqr(&["fault", "--rows", "8", "--cols", "16"]), 2);
        // A platform with fewer nodes than the grid has ranks.
        let sim = ["simulate", "--rows", "4480", "--cols", "1120", "--grid", "4x2", "--nodes", "2"];
        assert_eq!(hqr(&sim), 2);
        assert_eq!(hqr(&["fault", "--grid", "4x1", "--nodes", "2"]), 2);
        let trace =
            ["trace", "--backend", "sim", "--grid", "4x1", "--nodes", "2", "--crash-node", "1"];
        assert_eq!(hqr(&trace), 2);
    }

    #[test]
    fn fault_demo_recovers_end_to_end() {
        let code = hqr(&[
            "fault",
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
        ]);
        assert_eq!(code, 0);
    }

    #[test]
    fn fault_demo_with_explicit_crash_and_degradation() {
        let code = hqr(&[
            "fault",
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
        ]);
        assert_eq!(code, 0);
    }

    #[test]
    fn fault_rejects_crashing_only_node() {
        // A 1x1 grid has one simulated node; crashing it must be a clean
        // typed rejection, not a hang or panic.
        let code = hqr(&[
            "fault",
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
        ]);
        assert_eq!(code, 2);
    }

    #[test]
    fn trace_exec_backend_writes_valid_chrome_trace() {
        let out = std::env::temp_dir().join("hqr_cli_trace_exec.trace.json");
        let code = hqr(&[
            "trace",
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
        ]);
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
            let code = hqr(&[
                "trace",
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
            ]);
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
        let code = hqr(&[
            "fault",
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
        ]);
        assert_eq!(code, 0);
    }

    #[test]
    fn unknown_policy_is_rejected_everywhere() {
        assert_eq!(hqr(&["trace", "--backend", "exec", "--policy", "bogus"]), 2);
        assert_eq!(hqr(&["trace", "--backend", "sim", "--policy", "bogus"]), 2);
        assert_eq!(hqr(&["fault", "--policy", "bogus"]), 2);
        assert_eq!(hqr(&["simulate", "--policy", "bogus"]), 2);
    }

    #[test]
    fn trace_sim_backend_writes_valid_chrome_trace() {
        let out = std::env::temp_dir().join("hqr_cli_trace_sim.trace.json");
        let code = hqr(&[
            "trace",
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
            "--out",
            out.to_str().unwrap(),
        ]);
        assert_eq!(code, 0);
        let json = std::fs::read_to_string(&out).unwrap();
        hqr_runtime::validate_chrome_trace(&json).expect("schema-valid");
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn trace_sim_backend_with_crash() {
        let out = std::env::temp_dir().join("hqr_cli_trace_crash.trace.json");
        let code = hqr(&[
            "trace",
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
        ]);
        assert_eq!(code, 0);
        hqr_runtime::validate_chrome_trace(&std::fs::read_to_string(&out).unwrap()).unwrap();
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn trace_rejects_bad_inputs() {
        assert_eq!(hqr(&["trace", "--backend", "nope"]), 2);
        assert_eq!(hqr(&["trace", "--backend", "exec", "--tile", "0"]), 2);
        assert_eq!(hqr(&["trace", "--backend", "exec", "--rows", "8", "--cols", "16"]), 2);
        assert_eq!(hqr(&["trace", "--backend", "sim", "--rows", "10", "--tile", "280"]), 2);
        assert_eq!(hqr(&["trace", "--backend", "exec", "--out", "/no/such/dir/x.trace.json"]), 2);
    }

    #[test]
    fn fault_rejects_malformed_fault_arguments() {
        let base = ["fault", "--rows", "48", "--cols", "24", "--tile", "8", "--grid", "2x1"];
        let with = |extra: &[&str]| {
            let mut v: Vec<&str> = base.to_vec();
            v.extend_from_slice(extra);
            hqr(&v)
        };
        // Node index out of range for the 2-node platform.
        assert_eq!(with(&["--crash-node", "7"]), 2);
        // Negative crash time fraction.
        assert_eq!(with(&["--crash-node", "1", "--crash-frac", "-0.5"]), 2);
        // Zero bandwidth / latency degradation factors.
        assert_eq!(with(&["--degrade-bw", "0"]), 2);
        assert_eq!(with(&["--degrade-lat", "0"]), 2);
    }

    #[test]
    fn trace_sim_rejects_malformed_fault_arguments() {
        let base = [
            "trace",
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
            hqr(&v)
        };
        assert_eq!(with(&["--crash-node", "9"]), 2);
        assert_eq!(with(&["--crash-node", "1", "--crash-frac", "-0.1"]), 2);
        assert_eq!(with(&["--degrade-bw", "0"]), 2);
    }

    #[test]
    fn trace_sim_backend_with_degradation() {
        let out = std::env::temp_dir().join("hqr_cli_trace_degrade.trace.json");
        let code = hqr(&[
            "trace",
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
        ]);
        assert_eq!(code, 0);
        hqr_runtime::validate_chrome_trace(&std::fs::read_to_string(&out).unwrap()).unwrap();
        let _ = std::fs::remove_file(&out);
    }

    /// Garbage reaches the caller as exit code 2; nothing in the library
    /// may end the host process (the benchmark runs `run` in-process).
    #[test]
    fn garbage_and_unknown_flags_return_2_in_process() {
        assert_eq!(hqr(&["factor", "--rows", "abc"]), 2);
        assert_eq!(hqr(&["factor", "--grid", "3by2"]), 2);
        assert_eq!(hqr(&["factor", "--low", "nonsense"]), 2);
        assert_eq!(hqr(&["factor", "--a", "0"]), 2);
        assert_eq!(hqr(&["fault", "--crash-frac", "soon"]), 2);
        for cmd in ["factor", "fault", "trace", "simulate", "schedule", "dot", "trees"] {
            assert_eq!(hqr(&[cmd, "--no-such-flag", "1"]), 2, "{cmd}");
            assert_eq!(hqr(&[cmd, "stray"]), 2, "{cmd}");
        }
        assert_eq!(hqr(&["experiments"]), 2);
        assert_eq!(hqr(&["experiments", "fig10"]), 2);
        assert_eq!(hqr(&["experiments", "table", "--no-such-flag"]), 2);
        assert_eq!(hqr(&["experiments", "table", "stray"]), 2);
        #[cfg(unix)]
        for cmd in ["serve", "submit", "jobs", "cancel", "result", "drain", "ping"] {
            assert_eq!(hqr(&[cmd, "--id", "1", "--thread", "2"]), 2, "{cmd}");
        }
    }

    #[test]
    fn run_dispatches() {
        assert_eq!(crate::run(&["trees".to_string()]), 0);
        assert_eq!(crate::run(&["factor".to_string(), "--rows".into(), "0".into()]), 2);
        assert_eq!(crate::run(&["help".to_string()]), 0);
        assert_eq!(crate::run(&["bogus".to_string()]), 2);
        assert_eq!(crate::run(&[]), 0);
    }
}
