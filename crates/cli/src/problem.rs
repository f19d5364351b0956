//! What a run is, parsed once.
//!
//! A tile QR run "is entirely characterized by its elimination list"
//! (paper §II), so every subcommand that drives an engine starts from the
//! same three things: a shape in tiles, an elimination list with its data
//! layout, and the task graph they unfold to. [`Problem::from_args`] is the
//! only reader of the flags that describe them; beside it sit the three
//! other flag families more than one subcommand takes — engine options
//! ([`Engine`]), the simulated platform ([`sim_platform`]) and simulated
//! faults ([`SimFaults`]) — and the one bitwise oracle,
//! [`bitwise_vs_serial`]. A subcommand is then parse → call → report.

use crate::args::{Args, CliError};
use hqr::baselines::{self, AlgorithmSetup};
use hqr::prelude::*;
use hqr_runtime::{
    execute_serial_ib, ExecOptions, FaultPlan, IntegrityMode, SchedPolicy, TFactors, TaskGraph,
};
use hqr_sim::{KernelRates, LinkModel, Platform};

/// A flag whose value is one of a few names (`names` lists them for the
/// error); `default` applies when the flag is absent.
pub(crate) fn choice<T>(
    args: &Args,
    key: &str,
    default: T,
    parse: impl Fn(&str) -> Option<T>,
    names: &str,
) -> Result<T, CliError> {
    match args.get(key) {
        None => Ok(default),
        Some(v) => parse(v)
            .ok_or_else(|| CliError::usage(format!("--{key}: unknown value `{v}` ({names})"))),
    }
}

fn tree_of(args: &Args, key: &str, default: TreeKind) -> Result<TreeKind, CliError> {
    choice(args, key, default, TreeKind::parse, "flat|binary|greedy|fibonacci")
}

/// `--policy`: the ready-queue scheduling policy (both backends).
pub(crate) fn policy_of(args: &Args, default: SchedPolicy) -> Result<SchedPolicy, CliError> {
    choice(args, "policy", default, SchedPolicy::parse, "fifo|panel|cp")
}

pub(crate) fn integrity_of(args: &Args, default: IntegrityMode) -> Result<IntegrityMode, CliError> {
    choice(args, "integrity", default, IntegrityMode::parse, "off|spot|full")
}

/// `--threads`: worker threads of an in-process pool (4 everywhere).
pub(crate) fn threads_of(args: &Args) -> Result<usize, CliError> {
    args.positive_or("threads", 4)
}

/// `--resident-budget-kb`: at most this many KiB of tiles stay resident,
/// the rest page against a checksummed spill file. 0 (the default) keeps
/// everything resident.
pub(crate) fn resident_budget_of(args: &Args) -> Result<Option<u64>, CliError> {
    Ok(match args.usize_or("resident-budget-kb", 0)? as u64 {
        0 => None,
        kb => Some(kb << 10),
    })
}

fn dims(args: &Args, rows: usize, cols: usize) -> Result<(usize, usize), CliError> {
    Ok((args.positive_or("rows", rows)?, args.positive_or("cols", cols)?))
}

/// `hqr schedule` and `hqr dot` work in the coarse-grain model of §III:
/// `--rows`/`--cols` count tiles and one `--tree` reduces every panel.
pub fn coarse_schedule(
    args: &Args,
    (mt, nt): (usize, usize),
    tree: TreeKind,
) -> Result<(Schedule, TreeKind), CliError> {
    let (mt, nt) = dims(args, mt, nt)?;
    let kind = tree_of(args, "tree", tree)?;
    let schedule = match kind {
        TreeKind::Greedy => Schedule::greedy(mt, nt),
        per_panel => Schedule::from_panel_trees(mt, nt, per_panel),
    };
    Ok((schedule, kind))
}

/// Unfold an elimination list into its task graph; a list the graph
/// builder refuses is a usage error, not a panic.
pub fn graph_of(mt: usize, nt: usize, b: usize, elims: &ElimList) -> Result<TaskGraph, CliError> {
    TaskGraph::try_build(mt, nt, b, &elims.to_ops()).map_err(CliError::usage)
}

/// The shape a subcommand runs when no flag says otherwise.
#[derive(Clone, Copy, Debug)]
pub struct Defaults {
    pub rows: usize,
    pub cols: usize,
    pub tile: usize,
    pub grid: (usize, usize),
    /// Only whole tiles exist, as in the paper's experiments (M = m·b): the
    /// simulator and the fleet. Otherwise edge tiles are padded up and
    /// rows >= cols is required (the executors' least-squares orientation).
    pub whole_tiles: bool,
}

impl Defaults {
    /// The in-process executor at the size the fault and trace demos
    /// share.
    pub const EXEC: Defaults =
        Defaults { rows: 96, cols: 48, tile: 8, grid: (2, 1), whole_tiles: false };
    /// The cluster simulator at the paper's tile size.
    pub const SIM: Defaults =
        Defaults { rows: 8960, cols: 2240, tile: 280, grid: (3, 2), whole_tiles: true };
}

/// The validated numbers of a run and its HQR configuration.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub rows: usize,
    pub cols: usize,
    /// Tile size `b`.
    pub b: usize,
    /// Inner block size, `b` unless `--ib` says otherwise.
    pub ib: usize,
    pub mt: usize,
    pub nt: usize,
    pub grid: ProcessGrid,
    pub seed: u64,
    pub threads: usize,
    pub cfg: HqrConfig,
}

impl Shape {
    /// Read and validate `--rows --cols --tile --ib --grid --a --low --high
    /// --domino --seed --threads`.
    pub fn from_args(args: &Args, d: Defaults) -> Result<Shape, CliError> {
        let (rows, cols) = dims(args, d.rows, d.cols)?;
        let b = args.positive_or("tile", d.tile)?;
        let (p, q) = args.grid_or("grid", d.grid)?;
        let (mt, nt) =
            if d.whole_tiles { (rows / b, cols / b) } else { (rows.div_ceil(b), cols.div_ceil(b)) };
        if mt == 0 || nt == 0 {
            return Err(CliError::usage("matrix smaller than one tile"));
        }
        if !d.whole_tiles && rows < cols {
            return Err(CliError::usage(format!("expected rows >= cols, got {rows} x {cols}")));
        }
        let ib = args.positive_or("ib", b)?;
        if ib > b {
            return Err(CliError::usage(format!("--ib must not exceed --tile ({ib} > {b})")));
        }
        let cfg = HqrConfig::new(p, q)
            .with_a(args.positive_or("a", 1)?)
            .with_low(tree_of(args, "low", TreeKind::Greedy)?)
            .with_high(tree_of(args, "high", TreeKind::Fibonacci)?)
            .with_domino(args.flag("domino"));
        let grid = ProcessGrid::new(p, q);
        let (seed, threads) = (args.usize_or("seed", 42)? as u64, threads_of(args)?);
        Ok(Shape { rows, cols, b, ib, mt, nt, grid, seed, threads, cfg })
    }

    /// HQR under the parsed configuration, its virtual grid mapped onto the
    /// process grid.
    pub fn hqr(&self) -> AlgorithmSetup {
        baselines::hqr(self.mt, self.nt, self.grid, self.cfg)
    }

    /// Pair the shape with an elimination list and unfold the task graph.
    pub fn build(self, setup: AlgorithmSetup) -> Result<Problem, CliError> {
        let graph = graph_of(self.mt, self.nt, self.b, &setup.elims)?;
        Ok(Problem { shape: self, setup, graph })
    }
}

/// A run, described once: shape, elimination list + layout, task graph.
pub struct Problem {
    pub shape: Shape,
    pub setup: AlgorithmSetup,
    pub graph: TaskGraph,
}

impl Problem {
    /// The HQR problem the flags describe ([`Shape::from_args`], then the
    /// elimination list and task graph built once).
    pub fn from_args(args: &Args, d: Defaults) -> Result<Problem, CliError> {
        let shape = Shape::from_args(args, d)?;
        shape.build(shape.hqr())
    }

    /// The seeded random input every executor backend factors.
    pub fn input(&self) -> TiledMatrix {
        TiledMatrix::random(self.shape.mt, self.shape.nt, self.shape.b, self.shape.seed)
    }
}

/// Engine options and the seeded fault schedule of an executor run.
#[derive(Clone, Debug)]
pub struct Engine {
    pub policy: SchedPolicy,
    /// Per-task retry budget, at least 1: every demo here injects faults.
    pub retries: u32,
    pub integrity: IntegrityMode,
    pub resident_budget: Option<u64>,
    /// Single-bit strikes `--sdc-rate` asks for over this graph; 0 = none.
    pub strikes: usize,
    fail: usize,
    seed: u64,
    tasks: usize,
}

impl Engine {
    /// Read and validate `--policy --retries --fail --sdc-rate --integrity
    /// --resident-budget-kb` for a run of `p`; `policy` and
    /// `fail` are the subcommand's defaults for their flags.
    pub fn from_args(
        args: &Args,
        p: &Problem,
        policy: SchedPolicy,
        fail: usize,
    ) -> Result<Engine, CliError> {
        let (tasks, seed) = (p.graph.tasks().len(), p.shape.seed);
        let rate = args.f64_or("sdc-rate", 0.0)?;
        if !(0.0..=1.0).contains(&rate) {
            let msg = format!("--sdc-rate must be a probability in [0, 1], got {rate}");
            return Err(CliError::usage(msg));
        }
        // When corruption is being injected the guards default to `full`.
        let guards = if rate > 0.0 { IntegrityMode::Full } else { IntegrityMode::Off };
        Ok(Engine {
            policy: policy_of(args, policy)?,
            retries: args.positive_or("retries", 1)? as u32,
            integrity: integrity_of(args, guards)?,
            resident_budget: resident_budget_of(args)?,
            strikes: if rate > 0.0 { ((rate * tasks as f64).round() as usize).max(1) } else { 0 },
            fail: args.usize_or("fail", fail)?,
            seed,
            tasks,
        })
    }

    /// The schedule seeded by `--seed`: `--fail` random tasks panic on their
    /// first attempt and/or the `--sdc-rate` strikes flip one bit each.
    pub fn plan(&self, panics: bool, sdc: bool) -> FaultPlan {
        let mut plan = FaultPlan::new(self.seed);
        if panics {
            plan = plan.fail_random_tasks(self.tasks, self.fail, 1);
        }
        if sdc && self.strikes > 0 {
            plan = plan.corrupt_random_tasks(self.tasks, self.strikes);
        }
        plan
    }

    /// Executor options for a run of `shape` under `plan`.
    pub fn options(&self, shape: &Shape, plan: FaultPlan) -> ExecOptions {
        ExecOptions {
            nthreads: shape.threads,
            ib: Some(shape.ib),
            max_retries: self.retries,
            plan: (!plan.is_empty()).then_some(plan),
            policy: self.policy,
            integrity: self.integrity,
            resident_budget: self.resident_budget,
            ..Default::default()
        }
    }
}

/// The simulated cluster from `--nodes --cores --rates --net-calib`: edel
/// (§V-A) with one node per grid position unless the flags say otherwise.
/// The string is `", link calibrated from FILE (…)"` when `--net-calib`
/// replaced the paper's link, else empty.
pub fn sim_platform(
    args: &Args,
    grid: ProcessGrid,
    cores: usize,
) -> Result<(Platform, String), CliError> {
    // `edel` = the paper's §V-A kernel rates; `measured` = this repo's
    // own kernels (BENCH_7.json).
    let rate_of = |v: &str| match v {
        "edel" => Some(KernelRates::edel()),
        "measured" => Some(KernelRates::measured()),
        _ => None,
    };
    let mut platform = Platform {
        nodes: args.positive_or("nodes", grid.p * grid.q)?,
        cores_per_node: args.positive_or("cores", cores)?,
        rates: choice(args, "rates", KernelRates::edel(), rate_of, "edel|measured")?,
        ..Platform::edel()
    };
    let mut link_note = String::new();
    if let Some(path) = args.get("net-calib") {
        let (link, _) = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| LinkModel::parse_calibration(&text))
            .map_err(|e| CliError::usage(format!("--net-calib {path}: {e}")))?;
        link_note = format!(
            ", link calibrated from {path} ({:.2} us, {:.2} GB/s)",
            link.latency * 1e6,
            link.bandwidth / 1e9
        );
        platform.link = link;
    }
    Ok((platform, link_note))
}

/// `N nodes x C cores`, as every report prints a platform.
pub fn describe(platform: &Platform) -> String {
    format!("{} nodes x {} cores", platform.nodes, platform.cores_per_node)
}

/// Simulated faults: one node crash and a degraded link.
#[derive(Clone, Copy, Debug)]
pub struct SimFaults {
    pub crash_node: Option<usize>,
    /// The crash instant as a fraction of the fault-free makespan.
    pub crash_frac: f64,
    degrade: Option<(f64, f64)>,
}

impl SimFaults {
    /// Read and validate `--crash-node --crash-frac --degrade-bw
    /// --degrade-lat` against a platform of `nodes`: node index in range,
    /// time non-negative, degradation factors positive.
    pub fn from_args(args: &Args, nodes: usize) -> Result<Self, CliError> {
        let crash_node = args.parsed::<usize>("crash-node", "an integer")?;
        if let Some(node) = crash_node.filter(|&n| n >= nodes) {
            return Err(CliError::usage(format!(
                "--crash-node {node} is out of range: platform has {nodes} nodes (0..{})",
                nodes - 1
            )));
        }
        let crash_frac = args.f64_or("crash-frac", 0.3)?;
        if !crash_frac.is_finite() || crash_frac < 0.0 {
            return Err(CliError::usage(format!(
                "--crash-frac must be a non-negative finite fraction, got {crash_frac}"
            )));
        }
        let bw = args.positive_f64_or("degrade-bw", 1.0)?;
        let lat = args.positive_f64_or("degrade-lat", 1.0)?;
        let degrade = (bw != 1.0 || lat != 1.0).then_some((bw, lat));
        Ok(SimFaults { crash_node, crash_frac, degrade })
    }

    /// The plan against a fault-free makespan of `baseline` seconds. With no
    /// `--crash-node`, `or_random = Some((nodes, seed))` crashes a seeded
    /// random node instead and `None` crashes nothing.
    pub fn plan(&self, baseline: f64, or_random: Option<(usize, u64)>) -> FaultPlan {
        let at = self.crash_frac * baseline;
        let mut plan = match (self.crash_node, or_random) {
            (Some(node), _) => FaultPlan::default().crash_node(node, at),
            (None, Some((nodes, seed))) => FaultPlan::new(seed).crash_random_node(nodes, at),
            (None, None) => FaultPlan::default(),
        };
        if let Some((bw, lat)) = self.degrade {
            plan = plan.degrade_link(0.0, bw, lat);
        }
        plan
    }
}

/// The bitwise oracle behind every "identical to a serial run" line: factor
/// `input` again with the serial reference executor and compare bit
/// patterns (so −0.0 ≠ +0.0 and NaNs compare by payload) of the factored
/// tiles and of all three factor families (V of GEQRT, T of the factor
/// kernels, T of the eliminations).
pub fn bitwise_vs_serial(
    graph: &TaskGraph,
    input: &TiledMatrix,
    ib: usize,
    a: &TiledMatrix,
    factors: &TFactors,
) -> bool {
    let mut reference = input.clone();
    let f_ref = execute_serial_ib(graph, &mut reference, ib);
    let (want, got) = (reference.to_dense(), a.to_dense());
    f_ref.bitwise_eq(factors)
        && want.data().len() == got.data().len()
        && want.data().iter().zip(got.data()).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        Args::parse(&s.iter().map(|x| x.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_fill_what_the_flags_leave_out() {
        let a = args(&["--threads", "3", "--seed", "9", "--ib", "4"]);
        let s = Shape::from_args(&a, Defaults::EXEC).unwrap();
        assert_eq!((s.threads, s.seed, s.ib, s.mt, s.nt), (3, 9, 4, 12, 6));
        assert_eq!(a.reject_unknown(), Ok(()));
        let a = args(&["--thread", "3"]);
        let s = Shape::from_args(&a, Defaults::SIM).unwrap();
        assert_eq!((s.mt, s.nt, s.ib, s.threads), (32, 8, 280, 4));
        assert!(a.reject_unknown().unwrap_err().message.contains("--thread"));
    }

    #[test]
    fn tiling_pads_for_executors_and_truncates_for_models() {
        let a = args(&["--rows", "100", "--cols", "50", "--tile", "8"]);
        let padded = Shape::from_args(&a, Defaults::EXEC).unwrap();
        assert_eq!((padded.mt, padded.nt), (13, 7));
        let whole = Shape::from_args(&a, Defaults::SIM).unwrap();
        assert_eq!((whole.mt, whole.nt), (12, 6));
        assert!(Shape::from_args(&args(&["--rows", "100"]), Defaults::SIM).is_err());
        assert!(Shape::from_args(&args(&["--rows", "8", "--cols", "16"]), Defaults::EXEC).is_err());
    }

    #[test]
    fn garbage_values_are_errors() {
        for bad in [
            &["--rows", "abc"][..],
            &["--grid", "3by2"],
            &["--low", "nonsense"],
            &["--a", "0"],
            &["--tile", "0"],
            &["--grid", "0x2"],
        ] {
            assert_eq!(
                Shape::from_args(&args(bad), Defaults::EXEC).unwrap_err().code,
                2,
                "{bad:?}"
            );
        }
    }

    #[test]
    fn bitwise_oracle_sees_a_flipped_sign_of_zero_and_the_t_factors() {
        let p =
            Problem::from_args(&args(&["--rows", "32", "--cols", "16"]), Defaults::EXEC).unwrap();
        // A zero last column factors to exact zeros in R, which `==` on
        // f64 could not tell from their negation.
        let mut dense = p.input().to_dense();
        for i in 0..dense.rows() {
            dense.set(i, dense.cols() - 1, 0.0);
        }
        let input = TiledMatrix::from_dense(&dense, p.shape.b);
        let mut a = input.clone();
        let f = execute_serial_ib(&p.graph, &mut a, p.shape.ib);
        assert!(bitwise_vs_serial(&p.graph, &input, p.shape.ib, &a, &f));
        let mut negated = a.to_dense();
        let last = negated.cols() - 1;
        let i = (0..negated.rows()).find(|&i| negated.get(i, last) == 0.0).expect("a zero in R");
        negated.set(i, last, -negated.get(i, last));
        let negated = TiledMatrix::from_dense(&negated, p.shape.b);
        assert!(!bitwise_vs_serial(&p.graph, &input, p.shape.ib, &negated, &f));
        // The same tiles with factors of another inner blocking.
        let f2 = execute_serial_ib(&p.graph, &mut input.clone(), 2);
        assert!(!bitwise_vs_serial(&p.graph, &input, p.shape.ib, &a, &f2));
    }
}
