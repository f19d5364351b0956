//! Workloads `square`, `tall_skinny` and `paged`: one factorization per
//! operation through `hqr_runtime::exec`, in process, on two threads.
//!
//! The traced pass alternates untraced and traced operations in one timed
//! loop, so `exec.trace_overhead_frac` compares medians taken under the
//! same conditions, and derives the executor's per-layer metrics from the
//! `ExecTrace` of the traced operation with the median wall.

use crate::guards::{TempDir, OP_DEADLINE};
use crate::kernels::record_kernel_metrics;
use crate::metrics::{Metrics, KERNEL_NAMES, PAGED};
use crate::problem::{copy_tiles, Problem, THREADS};
use crate::run::{
    record_stage_metrics, repeat_setup, serial_reference, timed_loop, Ctx, Effort, OpLog, Report,
};
use crate::spans::{Spans, PID_WORKERS};
use crate::stats::median;
use crate::sysinfo;
use crate::verify::{verify, Factored};
use hqr_runtime::analysis::kind_index;
use hqr_runtime::{
    realized_critical_path, try_execute_traced, try_execute_with, ExecOptions, ExecTrace,
    SpillSummary, TFactors,
};
use hqr_sim::{simulate, KernelRates, Platform};
use hqr_tile::{Layout, TiledMatrix};

const LAYER: &str = "hqr-runtime::exec";

/// What the harness keeps of one traced operation.
#[derive(Clone, Copy, Debug)]
struct TracedOp {
    /// Wall seconds as the harness timed the call.
    wall: f64,
    /// `ExecTrace::wall`: the executor's own span of the same call.
    trace_wall: f64,
    /// Busy seconds per kernel kind (`kind_index` order).
    busy: [f64; 6],
    /// Realized critical path with zero communication cost.
    critical_path: f64,
    utilization: f64,
    steals: u64,
    injector_pops: u64,
    local_pops: u64,
    spill: Option<SpillSummary>,
}

/// Reduce an `ExecTrace` to the numbers the metrics need, and fold its
/// task records into the span tree as children of the operation's span,
/// one lane per worker.
fn digest_trace(
    p: &Problem,
    trace: &ExecTrace,
    wall: f64,
    op_start: f64,
    spans: &mut Spans,
) -> TracedOp {
    let tasks = p.graph.tasks();
    let mut span_of = vec![None; tasks.len()];
    for r in &trace.records {
        span_of[r.task as usize] = Some((r.start, r.end));
    }
    let path = realized_critical_path(&p.graph, |t| span_of[t as usize], |_, _| 0.0);
    if spans.enabled() {
        // Called right after the operation's span closed.
        let parent = spans.last_closed();
        for r in &trace.records {
            let name = KERNEL_NAMES[kind_index(tasks[r.task as usize].kind)];
            let (start, end) = (op_start + r.start, op_start + r.end);
            spans.child(parent, name, "hqr-kernels", start, end, PID_WORKERS, r.worker as u32);
        }
    }
    TracedOp {
        wall,
        trace_wall: trace.wall,
        busy: trace.kernel_seconds(tasks),
        critical_path: path.length,
        utilization: trace.utilization(),
        steals: trace.total_steals(),
        injector_pops: trace.total_injector_pops(),
        local_pops: trace.counters.iter().map(|c| c.local_pops).sum(),
        spill: trace.spill,
    }
}

/// The run's state between operations.
struct Bench<'a> {
    p: &'a Problem,
    opts: ExecOptions,
    /// The working matrix every operation factors in place.
    work: TiledMatrix,
    /// Factors of the last completed operation.
    factors: Option<TFactors>,
}

impl Bench<'_> {
    /// One untraced operation; returns its wall seconds.
    fn op(&mut self, id: u64, spans: &mut Spans) -> Result<f64, String> {
        copy_tiles(&mut self.work, &self.p.input);
        let (res, wall) = spans.time("op", LAYER, Some(id), |_| {
            try_execute_with(&self.p.graph, &mut self.work, &self.opts)
        });
        let (factors, _) = res.map_err(|e| format!("op {id}: {e}"))?;
        self.factors = Some(factors);
        Ok(wall)
    }

    /// One traced operation.
    fn traced_op(&mut self, id: u64, spans: &mut Spans) -> Result<TracedOp, String> {
        copy_tiles(&mut self.work, &self.p.input);
        let op_start = spans.now();
        let (res, wall) = spans.time("op (traced)", LAYER, Some(id), |_| {
            try_execute_traced(&self.p.graph, &mut self.work, &self.opts)
        });
        let (factors, _, trace) = res.map_err(|e| format!("traced op {id}: {e}"))?;
        self.factors = Some(factors);
        Ok(digest_trace(self.p, &trace, wall, op_start, spans))
    }

    /// Verify the output of the last operation against `reference`.
    fn verify_last(
        &self,
        reference: &Factored,
        seed: u64,
        spans: &mut Spans,
    ) -> Result<(), String> {
        let factors = self.factors.as_ref().ok_or("no operation completed")?;
        let out = Factored { a: &self.work, factors };
        spans.time("verify", "bench", None, |_| verify(&self.p.input, &out, reference, seed)).0
    }
}

/// A paged operation must really have paged, under the configured budget:
/// a run that silently stays resident measures the wrong thing.
fn check_paged(spill: Option<SpillSummary>, budget: u64) -> Result<(), String> {
    match spill {
        None => Err("paged run reported no spill summary: it stayed resident".into()),
        Some(s) if s.budget != budget => {
            Err(format!("paged run echoed budget {} but {budget} was configured", s.budget))
        }
        Some(s) if s.demand_faults == 0 => Err("paged run took no demand fault".into()),
        Some(_) => Ok(()),
    }
}

pub fn run(ctx: &mut Ctx) -> Result<Report, String> {
    let (args, effort, shape) = (ctx.args, ctx.args.effort(), ctx.args.shape());
    let paged = args.workload.name == PAGED;
    let budget = (shape.rows * shape.cols * 8 / 4) as u64;
    let setup =
        repeat_setup(ctx, |_| if paged { TempDir::new("spill").map(Some) } else { Ok(None) })?;
    let (p, spill_dir, spans) = (&setup.problem, &setup.backend, &mut ctx.spans);
    let opts = ExecOptions {
        nthreads: THREADS,
        ib: shape.ib,
        watchdog: Some(OP_DEADLINE),
        resident_budget: paged.then_some(budget),
        spill_dir: spill_dir.as_ref().map(|t| t.path().to_path_buf()),
        ..ExecOptions::default()
    };
    let mut bench = Bench { p, opts, work: p.input.clone(), factors: None };

    for i in 0..effort.warm_ops {
        spans.time("warm-up", "bench", None, |s| bench.op(i as u64, s)).0?;
    }

    // Timed region. The traced pass alternates untraced and traced ops and
    // needs enough of each for a median.
    let mut log = OpLog::default();
    let mut traced_ops: Vec<TracedOp> = Vec::new();
    let mut untraced_walls = Vec::new();
    let min_timed_ops =
        if args.traced { 2 * effort.min_timed_ops.min(3) } else { effort.min_timed_ops };
    timed_loop(&Effort { min_timed_ops, ..effort }, &mut log, |i| {
        if args.traced && i % 2 == 1 {
            let t = bench.traced_op(i, spans)?;
            traced_ops.push(t);
            Ok(t.wall)
        } else {
            let wall = bench.op(i, spans)?;
            untraced_walls.push(wall);
            Ok(wall)
        }
    });
    // Traced operations are not end-to-end samples.
    log.walls = untraced_walls;
    let traced_walls: Vec<f64> = traced_ops.iter().map(|t| t.wall).collect();
    let timed_wall: f64 = log.walls.iter().sum();
    let peak_rss_mb = sysinfo::peak_rss_mb(std::process::id()).unwrap_or(0.0);

    let reference_reps = if args.traced { effort.reference_reps } else { 1 };
    let (a_ref, f_ref, serial_seconds) = serial_reference(p, reference_reps, spans);
    let reference = Factored { a: &a_ref, factors: &f_ref };
    if log.failed == 0 {
        let mut check = bench.verify_last(&reference, args.seed, spans);
        if paged && check.is_ok() {
            // The untraced executor reports no spill traffic, so an
            // untraced pass runs one traced operation just for this check.
            check = match traced_ops.last() {
                Some(t) => check_paged(t.spill, budget),
                None => bench.traced_op(u64::MAX, spans).and_then(|t| {
                    check_paged(t.spill, budget)?;
                    bench.verify_last(&reference, args.seed, spans)
                }),
            };
        }
        if let Err(why) = check {
            log.fail_verification(why);
        }
    }

    let mut layers = Metrics::default();
    let mut samples = vec![("serial_s".to_string(), serial_seconds.clone())];
    if args.traced && log.failed == 0 {
        record_stage_metrics(&mut layers, &setup.stages, p);
        let rates = record_kernel_metrics(&mut layers, &shape, effort.kernel_calls, spans);

        let op_p50 = median(&log.walls);
        let serial_s = median(&serial_seconds);
        // The traced operation with the median wall stands for all of them.
        let mut by_wall = traced_ops.clone();
        by_wall.sort_by(|x, y| x.wall.total_cmp(&y.wall));
        let t = *by_wall.get(by_wall.len() / 2).ok_or("no traced operation ran")?;
        let busy: f64 = t.busy.iter().sum();
        let bound_work = busy / THREADS as f64;
        // Seconds the same tasks would take at the isolated kernel rates.
        let isolated: f64 = p
            .graph
            .tasks()
            .iter()
            .map(|task| task.kind.flops(shape.b) / (rates[kind_index(task.kind)] * 1e9))
            .sum();
        layers.set("exec.serial_s", serial_s);
        layers.set(
            "exec.parallel_efficiency",
            serial_s * log.walls.len() as f64 / (THREADS as f64 * timed_wall),
        );
        layers.set("exec.traced_wall_s", t.trace_wall);
        layers.set("exec.trace_overhead_frac", median(&traced_walls) / op_p50 - 1.0);
        layers.set("exec.busy_s", busy);
        for (name, secs) in KERNEL_NAMES.iter().zip(t.busy) {
            layers.set(format!("exec.busy_s.{name}"), secs);
        }
        layers.set("exec.bound_work_s", bound_work);
        layers.set("exec.bound_cp_s", t.critical_path);
        layers.set("exec.overhead_s", t.trace_wall - bound_work.max(t.critical_path));
        layers.set("exec.utilization", t.utilization);
        layers.set("exec.kernel_inflation", busy / isolated);
        layers.set("exec.steals", t.steals as f64);
        layers.set("exec.injector_pops", t.injector_pops as f64);
        layers.set("exec.local_pops", t.local_pops as f64);
        samples.push(("traced_op_s".to_string(), traced_walls));

        if paged {
            let s = t.spill.unwrap_or_default();
            let tile_bytes = (shape.b * shape.b * 8) as f64;
            layers.set("spill.evictions", s.evictions as f64);
            layers.set("spill.writebacks", s.writebacks as f64);
            layers.set("spill.demand_faults", s.demand_faults as f64);
            layers.set("spill.prefetches", s.prefetches as f64);
            layers.set("spill.prefetch_hits", s.prefetch_hits as f64);
            layers.set(
                "spill.prefetch_useful_ratio",
                s.prefetch_hits as f64 / s.prefetches.max(1) as f64,
            );
            layers.set(
                "spill.bytes_moved_computed",
                (s.writebacks + s.demand_faults + s.prefetches) as f64 * tile_bytes,
            );
            // The same problem fully resident, in the same run.
            bench.opts.resident_budget = None;
            let mut resident = Vec::new();
            for i in 0..effort.reference_reps {
                resident
                    .push(spans.time("resident op", "bench", None, |s| bench.op(i as u64, s)).0?);
            }
            layers.set("spill.slowdown", op_p50 / median(&resident));
            samples.push(("resident_op_s".to_string(), resident));
        } else {
            // hqr-sim on the same graph, fed this run's isolated rates. Its
            // rate model has three numbers: the two update-kernel classes
            // and one factor-to-update ratio, here the mean of both classes'.
            let [_, _, tsqrt, tsmqr, ttqrt, ttmqr] = rates;
            let platform = Platform {
                rates: KernelRates {
                    ts_gflops: tsmqr,
                    tt_gflops: ttmqr,
                    factor_efficiency: 0.5 * (tsqrt / tsmqr + ttqrt / ttmqr),
                },
                ..Platform::single_node(THREADS)
            };
            let (sim, simulate_s) = spans.time("simulate", "hqr-sim", None, |_| {
                simulate(&p.graph, &Layout::Single, &platform)
            });
            layers.set("sim.predicted_s", sim.makespan);
            layers.set("sim.residual", sim.makespan / op_p50);
            layers.set("sim.simulate_s", simulate_s);
        }
    }

    Ok(Report {
        log,
        timed_wall,
        setup_seconds: setup.seconds.clone(),
        peak_rss_mb,
        layers,
        samples,
        warm_ops: effort.warm_ops,
        tmp_fs: spill_dir.as_ref().map(|t| sysinfo::fs_kind(t.path())),
    })
}
