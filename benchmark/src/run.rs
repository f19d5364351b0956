//! One run of one workload: the shared bookkeeping (effort, operation log,
//! samples) and the result it is reduced to.

use crate::json::Json;
use crate::metrics::{Metrics, DIST, END_TO_END, PER_LAYER, SERVE};
use crate::problem::{build, Problem, Shape, StageSeconds, Workload, THREADS};
use crate::spans::Spans;
use crate::stats::median;
use crate::{dist, exec, serve, sysinfo};
use hqr_runtime::{execute_serial_ib, TFactors};
use hqr_tile::TiledMatrix;
use std::time::Instant;

/// Schema tag of results files.
pub const SCHEMA: &str = "hqr-benchmark/1";

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Length of the timed region.
    pub seconds: f64,
    /// The traced pass: record spans, use the traced executor, run the
    /// layer probes and report per-layer metrics.
    pub traced: bool,
    /// Smoke mode: tiny sizes, one timed operation.
    pub quick: bool,
}

/// How much work a run does around its timed region.
#[derive(Clone, Copy, Debug)]
pub struct Effort {
    pub setup_repeats: usize,
    pub warm_ops: usize,
    pub min_timed_ops: usize,
    pub seconds: f64,
    /// Run exactly this many timed operations instead of timing out.
    pub fixed_ops: Option<usize>,
    /// Individually timed calls per isolated kernel.
    pub kernel_calls: usize,
    /// Repeats of the serial reference (and of other medians-of-3).
    pub reference_reps: usize,
    /// Jobs per in-process pool probe.
    pub pool_jobs: usize,
    /// `Ping` exchanges for `serve.ping_rtt_p50_us`.
    pub pings: usize,
}

impl RunArgs {
    pub fn shape(&self) -> Shape {
        if self.quick {
            self.workload.quick_shape
        } else {
            self.workload.shape
        }
    }

    pub fn effort(&self) -> Effort {
        let w = self.workload;
        if self.quick {
            Effort {
                setup_repeats: 1,
                warm_ops: 1,
                min_timed_ops: 1,
                seconds: 0.0,
                fixed_ops: w.ops_per_second.map(|_| 1),
                kernel_calls: 3,
                reference_reps: 1,
                pool_jobs: 4,
                pings: 5,
            }
        } else {
            Effort {
                setup_repeats: 5,
                warm_ops: w.warm_ops,
                min_timed_ops: w.min_timed_ops,
                seconds: self.seconds,
                fixed_ops: w
                    .ops_per_second
                    .map(|rate| ((rate * self.seconds).round() as usize).max(w.min_timed_ops)),
                kernel_calls: crate::kernels::TIMED_CALLS,
                reference_reps: 3,
                pool_jobs: 300,
                pings: 200,
            }
        }
    }
}

/// Timed operations of a run: their walls, and how many failed and why.
#[derive(Default, Debug)]
pub struct OpLog {
    /// Wall seconds of each operation that completed.
    pub walls: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl OpLog {
    pub fn ok(&mut self, wall: f64) {
        self.attempted += 1;
        self.walls.push(wall);
    }

    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.failures.push(why);
    }

    /// A completed operation whose output failed verification.
    pub fn fail_verification(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    pub fn absorb(&mut self, other: OpLog) {
        self.walls.extend(other.walls);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

/// Run `op` until `effort.seconds` have passed and `effort.min_timed_ops`
/// operations were attempted. Stops at the first failure: the inputs are
/// deterministic, so the next attempt would fail the same way, and a run
/// with a failed operation is already a failed run.
pub fn timed_loop(
    effort: &Effort,
    log: &mut OpLog,
    mut op: impl FnMut(u64) -> Result<f64, String>,
) {
    let t0 = Instant::now();
    while (log.attempted as usize) < effort.min_timed_ops
        || t0.elapsed().as_secs_f64() < effort.seconds
    {
        match op(log.attempted) {
            Ok(wall) => log.ok(wall),
            Err(why) => return log.fail(why),
        }
    }
}

/// Everything a workload reports back.
pub struct Report {
    pub log: OpLog,
    /// Wall seconds of the timed region (for overlapping clients this is
    /// less than the sum of the operation walls).
    pub timed_wall: f64,
    pub setup_seconds: Vec<f64>,
    pub peak_rss_mb: f64,
    /// Per-layer metrics (traced pass only).
    pub layers: Metrics,
    /// Named raw sample lists for the results file.
    pub samples: Vec<(String, Vec<f64>)>,
    pub warm_ops: usize,
    /// Filesystem kind of the spill/state directory, where one is used.
    pub tmp_fs: Option<String>,
}

/// Shared state of a run, handed to the workload.
pub struct Ctx {
    pub args: RunArgs,
    pub spans: Spans,
}

/// A problem with its backend (spill directory, worker fleet, daemon)
/// started, and what the repeats of that set-up cost.
pub struct Setup<B> {
    pub problem: Problem,
    pub backend: B,
    /// Wall seconds of each repeat.
    pub seconds: Vec<f64>,
    pub stages: Vec<StageSeconds>,
}

/// Set up `effort.setup_repeats` times — generate the input, build the
/// plan, start the backend — tearing each repeat down before the next,
/// and keep the last one for the run.
pub fn repeat_setup<B>(
    ctx: &mut Ctx,
    mut start_backend: impl FnMut(&mut Spans) -> Result<B, String>,
) -> Result<Setup<B>, String> {
    let (shape, seed) = (ctx.args.shape(), ctx.args.seed);
    let (mut seconds, mut stages, mut kept) = (Vec::new(), Vec::new(), None);
    for _ in 0..ctx.args.effort().setup_repeats {
        drop(kept.take());
        let (res, secs) = ctx.spans.time("setup", "bench", None, |s| {
            let (problem, stage) = build(shape, seed, s)?;
            Ok::<_, String>((problem, stage, start_backend(s)?))
        });
        let (problem, stage, backend) = res?;
        seconds.push(secs);
        stages.push(stage);
        kept = Some((problem, backend));
    }
    let (problem, backend) = kept.ok_or("no set-up repeat ran")?;
    Ok(Setup { problem, backend, seconds, stages })
}

/// The serial reference executor on the problem's own graph and input:
/// the verification oracle. Returns the last of `reps` factorizations
/// and the seconds of each.
pub fn serial_reference(
    p: &Problem,
    reps: usize,
    spans: &mut Spans,
) -> (TiledMatrix, TFactors, Vec<f64>) {
    let mut seconds = Vec::new();
    loop {
        let mut a = p.input.clone();
        let (factors, secs) = spans.time("execute_serial_ib", "hqr-runtime::exec", None, |_| {
            execute_serial_ib(&p.graph, &mut a, p.shape.ib_or_b())
        });
        seconds.push(secs);
        if seconds.len() >= reps {
            return (a, factors, seconds);
        }
    }
}

/// Median per stage over the set-up repeats, recorded as the set-up
/// layers' metrics, with the graph's exact counts.
pub fn record_stage_metrics(layers: &mut Metrics, stages: &[StageSeconds], problem: &Problem) {
    let med = |f: fn(&StageSeconds) -> f64| median(&stages.iter().map(f).collect::<Vec<_>>());
    layers.set("tile.generate_s", med(|s| s.generate));
    layers.set("core.elim_list_s", med(|s| s.elim_list));
    layers.set("graph.build_s", med(|s| s.graph_build));
    let stats = hqr_runtime::analysis::dag_stats(&problem.graph);
    layers.set("graph.tasks", problem.graph.tasks().len() as f64);
    layers.set("graph.edges", problem.graph.edge_count() as f64);
    layers.set("graph.total_weight", stats.total_weight as f64);
    layers.set("graph.cp_weight", stats.critical_path_weight as f64);
}

/// The outcome of a run, as written to results files and printed.
pub struct Outcome {
    pub args: RunArgs,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// The contract's `metrics` object: end-to-end metrics for an
    /// untraced run, per-layer metrics for a traced one.
    pub metrics: Json,
    pub record: Json,
    pub samples: Json,
    pub trace_file: Option<String>,
    pub wall_s: f64,
}

/// Run one workload and reduce it to its [`Outcome`].
pub fn run(args: RunArgs) -> Result<Outcome, String> {
    let t0 = Instant::now();
    let mut ctx = Ctx { args, spans: Spans::new(args.traced) };
    let shape = args.shape();
    let name = args.workload.name;
    let report = match name {
        DIST => dist::run(&mut ctx),
        SERVE => serve::run(&mut ctx),
        _ => exec::run(&mut ctx),
    }?;

    let log = &report.log;
    if log.walls.is_empty() {
        return Err(format!("no operation completed: {}", log.failures.join("; ")));
    }
    let metrics = if args.traced {
        report.layers.to_json(name, PER_LAYER.iter())?
    } else {
        let ops_done = log.walls.len() as f64;
        let mut m = Metrics::default();
        m.set("gflops", shape.useful_flops() * ops_done / report.timed_wall / 1e9);
        m.set("op_p50_s", median(&log.walls));
        m.set("peak_rss_mb", report.peak_rss_mb);
        m.set("setup_s", median(&report.setup_seconds));
        m.to_json(name, END_TO_END.iter().map(|(d, _)| d))?
    };

    let trace_file = if args.traced {
        let text = ctx.spans.to_chrome_trace(name);
        ctx.spans
            .validate_chrome_trace(name, &text)
            .map_err(|e| format!("trace does not validate: {e}"))?;
        let path = sysinfo::out_dir().join(format!("{name}.trace.json"));
        std::fs::create_dir_all(sysinfo::out_dir()).map_err(|e| e.to_string())?;
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
        Some(path.display().to_string())
    } else {
        None
    };

    let record = Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("git_commit", Json::str(sysinfo::git_commit())),
        ("nproc", Json::Num(sysinfo::nproc() as f64)),
        ("threads", Json::Num(THREADS as f64)),
        ("simd", Json::str(hqr_kernels::simd_description())),
        ("tmp_fs", report.tmp_fs.clone().map_or(Json::Null, Json::Str)),
        ("rows", Json::Num(shape.rows as f64)),
        ("cols", Json::Num(shape.cols as f64)),
        ("tile", Json::Num(shape.b as f64)),
        ("ib", shape.ib.map_or(Json::Null, |ib| Json::Num(ib as f64))),
        ("seconds", Json::Num(args.seconds)),
        ("setup_repeats", Json::Num(report.setup_seconds.len() as f64)),
        ("warm_ops", Json::Num(report.warm_ops as f64)),
        ("timed_ops", Json::Num(log.walls.len() as f64)),
        ("timed_wall_s", Json::Num(report.timed_wall)),
    ]);
    let mut samples = vec![
        ("op_s".to_string(), Json::nums(&log.walls)),
        ("setup_s".to_string(), Json::nums(&report.setup_seconds)),
    ];
    samples.extend(report.samples.iter().map(|(k, v)| (k.clone(), Json::nums(v))));

    Ok(Outcome {
        args,
        correct: log.failed == 0 && log.attempted > 0,
        attempted: log.attempted,
        failed: log.failed,
        failures: log.failures.clone(),
        metrics,
        record,
        samples: Json::Obj(samples),
        trace_file,
        wall_s: t0.elapsed().as_secs_f64(),
    })
}

impl Outcome {
    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics.clone()),
        ])
        .render()
    }

    /// One entry of a results file's `runs` array.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.args.workload.name)),
            ("traced", Json::Bool(self.args.traced)),
            ("quick", Json::Bool(self.args.quick)),
            ("record", self.record.clone()),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("failed_frac", Json::Num(self.failed as f64 / self.attempted.max(1) as f64)),
            ("failures", Json::Arr(self.failures.iter().map(Json::str).collect())),
            ("metrics", self.metrics.clone()),
            ("samples", self.samples.clone()),
            ("trace_file", self.trace_file.clone().map_or(Json::Null, Json::Str)),
            ("wall_s", Json::Num(self.wall_s)),
        ])
    }

    /// Every metric by name with its unit, for people.
    pub fn table(&self) -> String {
        let a = &self.args;
        let mut out = format!(
            "workload {} (seed {}, {} pass{}): {} attempted, {} failed, {:.1} s\n",
            a.workload.name,
            a.seed,
            if a.traced { "traced" } else { "untraced" },
            if a.quick { ", quick" } else { "" },
            self.attempted,
            self.failed,
            self.wall_s,
        );
        for why in &self.failures {
            out.push_str(&format!("  FAILED: {why}\n"));
        }
        for (name, m) in self.metrics.as_obj().unwrap_or_default() {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            out.push_str(&format!("  {name:<36} {value:>16.6} {unit}\n"));
        }
        out
    }
}

/// Wrap runs into a results document.
pub fn results_document(runs: Vec<Json>) -> Json {
    Json::obj([("schema", Json::str(SCHEMA)), ("runs", Json::Arr(runs))])
}
