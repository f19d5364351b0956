//! The paper's evaluation (§V) as functions: one per table, figure and
//! extension study, each returning its rows. `hqr experiments <study>`
//! prints them at the paper's scale ([`Setting::paper`], [`M_SWEEP`],
//! [`N_SWEEP`]); `tests/paper_claims.rs` asserts the paper's rankings on
//! the same functions at a mini platform.

use crate::baselines::AlgorithmSetup;
use crate::baselines::{self, bbd10, hqr_adaptive, hqr_square, hqr_tall_skinny, slhd10};
use crate::elim::{ElimList, Elimination};
use crate::hier::HqrConfig;
use crate::model;
use crate::schedule::Schedule;
use crate::trees::TreeKind;
use hqr_kernels::{run_kernel, KernelKind, Trans};
use hqr_runtime::task::{SlotFamily, Task};
use hqr_runtime::{
    analysis, execute_serial, try_execute_traced, try_execute_with, ExecOptions, Slot, TaskGraph,
};
use hqr_sim::scalapack::ScalapackModel;
use hqr_sim::{simulate, simulate_with, KernelRates, Platform, SchedPolicy, SimOptions, SimReport};
use hqr_tile::{DenseMatrix, Layout, ProcessGrid, TiledMatrix};
use std::time::Instant;

/// Figure 6/7/8 row sweep (elements): 4480 → 286720, i.e. square 16×16
/// tiles to tall-skinny 1024×16 tiles.
pub const M_SWEEP: [usize; 7] = [4480, 8960, 17920, 35840, 71680, 143360, 286720];
/// Figure 9 column sweep (elements) at fixed M = 67200.
pub const N_SWEEP: [usize; 7] = [1120, 2240, 4480, 8960, 16800, 33600, 67200];

fn graph_of(setup: &AlgorithmSetup, b: usize) -> TaskGraph {
    TaskGraph::build(setup.elims.mt(), setup.elims.nt(), b, &setup.elims.to_ops())
}

/// Build the task DAG of a setup and replay it on `platform` with tile
/// size `b`. Returns the simulator's report (GFlop/s, messages, ...).
pub fn simulate_setup(setup: &AlgorithmSetup, b: usize, platform: &Platform) -> SimReport {
    simulate(&graph_of(setup, b), &setup.layout, platform)
}

/// One simulated run: a row of a figure or of an extension study.
#[derive(Clone, Debug)]
pub struct FigurePoint {
    /// Matrix rows in elements.
    pub m: usize,
    /// Matrix columns in elements.
    pub n: usize,
    /// What tells the row from its neighbours (algorithm, tree, `a`, ...).
    pub label: String,
    /// Achieved GFlop/s under the simulator.
    pub gflops: f64,
    /// Fraction of the platform's peak.
    pub efficiency: f64,
    /// Inter-node messages; `None` for the analytic ScaLAPACK model.
    pub messages: Option<usize>,
    /// Nodes of the platform it ran on.
    pub nodes: usize,
}

/// HQR's knobs: TS-level size `a`, low-level tree, high-level tree, domino.
pub type Tuning = (usize, TreeKind, TreeKind, bool);

/// How a study runs: the platform, the process grid (which HQR's virtual
/// grid maps one to one), the tile size and the ready-queue policy.
#[derive(Clone, Copy, Debug)]
pub struct Setting {
    pub platform: Platform,
    pub grid: ProcessGrid,
    pub b: usize,
    pub policy: SchedPolicy,
}

impl Setting {
    /// §V-A: the 60 edel nodes, "b = 280 and a process grid p × q of
    /// 15 × 4 leads to values that consistently provide good performance",
    /// scheduled panel-first as DAGuE does.
    pub fn paper() -> Self {
        let (platform, grid) = (Platform::edel(), ProcessGrid::new(15, 4));
        Setting { platform, grid, b: 280, policy: SchedPolicy::PanelFirst }
    }

    /// HQR on this grid under an explicit tuning.
    pub fn hqr(&self, mt: usize, nt: usize, (a, low, high, domino): Tuning) -> AlgorithmSetup {
        let cfg = HqrConfig::new(self.grid.p, self.grid.q);
        let cfg = cfg.with_a(a).with_low(low).with_high(high).with_domino(domino);
        baselines::hqr(mt, nt, self.grid, cfg)
    }

    /// Replay `graph`, the DAG of `setup` at this tile size.
    fn run(&self, graph: &TaskGraph, setup: &AlgorithmSetup, label: String) -> FigurePoint {
        let opts = SimOptions { policy: self.policy, ..Default::default() };
        let rep = simulate_with(graph, &setup.layout, &self.platform, &opts)
            .unwrap_or_else(|e| panic!("{e}"));
        let (m, n) = (setup.elims.mt() * self.b, setup.elims.nt() * self.b);
        let (messages, nodes) = (Some(rep.messages), self.platform.nodes);
        FigurePoint { m, n, label, gflops: rep.gflops, efficiency: rep.efficiency, messages, nodes }
    }

    /// Simulate `setup` into a labelled row.
    pub fn point(&self, setup: &AlgorithmSetup, label: impl Into<String>) -> FigurePoint {
        self.run(&graph_of(setup, self.b), setup, label.into())
    }

    /// Figures 8 and 9: HQR (tuned by `hqr`) against \[BBD+10\], \[SLHD10\]
    /// and the ScaLAPACK model, four rows per shape (elements).
    fn compare(
        &self,
        shapes: impl Iterator<Item = (usize, usize)>,
        hqr: fn(usize, usize, ProcessGrid) -> AlgorithmSetup,
        label: &str,
    ) -> Vec<FigurePoint> {
        let (grid, nodes) = (self.grid, self.platform.nodes);
        let mut rows = Vec::new();
        for (m, n) in shapes {
            let (mt, nt) = (m / self.b, n / self.b);
            rows.push(self.point(&hqr(mt, nt, grid), label));
            rows.push(self.point(&bbd10(mt, nt, grid), "[BBD+10] flat tree"));
            rows.push(self.point(&slhd10(mt, nt, nodes), "[SLHD10] 1D block + binary"));
            let r = ScalapackModel::default().run(m, n, grid.p, grid.q, &self.platform);
            let label = "ScaLAPACK (model)".to_string();
            let (gflops, efficiency) = (r.gflops, r.efficiency);
            rows.push(FigurePoint { m, n, label, gflops, efficiency, messages: None, nodes });
        }
        rows
    }
}

/// Tables I–IV and the reduction trees of Figures 1–4 (§III-A/B): the
/// coarse-grain unit-time schedules of the flat, binary and greedy
/// algorithms on 12 tile rows, and the hierarchical single-panel examples
/// over 3 clusters. One `(heading, body)` per table.
pub fn table() -> Vec<(&'static str, String)> {
    use TreeKind::{Binary, Flat};
    let (flat, binary, greedy) = (Schedule::flat, Schedule::binary, Schedule::greedy);
    let tree = |a, low| {
        let cfg = HqrConfig::new(3, 1).with_a(a).with_low(low).with_high(Binary);
        let line = |e: &Elimination| {
            let kernel = if e.ts { "TS" } else { "TT" };
            format!("  elim({}, {}, 0)  level={:?} kernel={kernel}", e.victim, e.killer, e.level)
        };
        cfg.elimination_list(12, 1).elims().iter().map(line).collect::<Vec<_>>().join("\n")
    };
    let makespans = [
        ("flat", flat(12, 3)),
        ("binary", binary(12, 3)),
        ("greedy", greedy(12, 3)),
        ("fibonacci", Schedule::fibonacci(12, 3)),
    ]
    .map(|(name, s)| format!("  {name:<10} {:>3} steps", s.makespan()));
    vec![
        ("Table I / Figure 1: flat tree, panel 0, m = 12", flat(12, 1).render(1)),
        ("Figure 2: binary tree, panel 0, m = 12", binary(12, 1).render(1)),
        ("Figure 3: flat/binary hierarchical tree, p = 3 clusters (cyclic)", tree(4, Flat)),
        ("Figure 4: domain tree, two domains of 2 per cluster", tree(2, Binary)),
        ("Table II: flat tree, first 3 panels, m = 12", flat(12, 3).render(3)),
        (
            "Table III: binary tree, first 3 panels, m = 12\n\
             (earliest *consistent* steps; see EXPERIMENTS.md for the two\n \
             paper entries that violate the Sec. II aliveness conditions)",
            binary(12, 3).render(3),
        ),
        ("Table IV: greedy, first 3 panels, m = 12", greedy(12, 3).render(3)),
        ("Coarse-grain makespans (m = 12, n = 3)", makespans.join("\n")),
    ]
}

/// Figure 6: the TS-level size `a` ∈ {1, 4, 8} against the high-level tree
/// on M × `n`, domino off; subfigure (a) beneath a GREEDY low-level tree,
/// (b) beneath FLATTREE.
pub fn fig6(s: &Setting, ms: &[usize], n: usize) -> [Vec<FigurePoint>; 2] {
    let sub = |low, highs: [TreeKind; 2]| {
        let mut rows = Vec::new();
        for &m in ms {
            for high in highs {
                for a in [1, 4, 8] {
                    let setup = s.hqr(m / s.b, n / s.b, (a, low, high, false));
                    rows.push(s.point(&setup, format!("a={a}, high={}", high.name())));
                }
            }
        }
        rows
    };
    [
        sub(TreeKind::Greedy, [TreeKind::Greedy, TreeKind::Binary]),
        sub(TreeKind::Flat, [TreeKind::Flat, TreeKind::Fibonacci]),
    ]
}

/// Figure 7: every low-level tree with the domino coupling off and on, on
/// M × `n`; a = 4, high-level tree FIBONACCI.
pub fn fig7(s: &Setting, ms: &[usize], n: usize) -> Vec<FigurePoint> {
    let mut rows = Vec::new();
    for &m in ms {
        for domino in [false, true] {
            for low in TreeKind::ALL {
                let setup = s.hqr(m / s.b, n / s.b, (4, low, TreeKind::Fibonacci, domino));
                let with = if domino { "w/ " } else { "w/o" };
                rows.push(s.point(&setup, format!("{with} domino, low={}", low.name())));
            }
        }
    }
    rows
}

/// Figure 8: HQR (both trees FIBONACCI, a = 4, domino) against the three
/// baselines on M × `n`, from square to tall and skinny.
pub fn fig8(s: &Setting, ms: &[usize], n: usize) -> Vec<FigurePoint> {
    s.compare(ms.iter().map(|&m| (m, n)), hqr_tall_skinny, "HQR (fib/fib, a=4, domino)")
}

/// Figure 9: HQR under [`hqr_adaptive`] against the three baselines on
/// `m` × N, from tall and skinny to square: Figure 8's tuning while
/// `m ≥ 4N`, then a flat high tree without the domino, on a = 4 domains or
/// one TS domain per cluster where that list has parallelism to spare
/// (never on the paper's 15 × 4 grid).
pub fn fig9(s: &Setting, m: usize, ns: &[usize]) -> Vec<FigurePoint> {
    s.compare(ns.iter().map(|&n| (m, n)), hqr_adaptive, "HQR (adaptive a/trees/domino)")
}

/// Ablations at the paper's scale, one table each: (1) ready-queue policy,
/// (2) every p × q shape of the 60 nodes, (3) tile size b, (4) the domino
/// on large square matrices, (5) LogGP per-message overhead, four rows per
/// value (HQR and \[SLHD10\] tall, HQR and \[BBD+10\] square).
pub fn ablations(quick: bool) -> [Vec<FigurePoint>; 5] {
    use SchedPolicy::{CriticalPath, Fifo, PanelFirst};
    let s = Setting::paper();
    let shapes = [(1024, 16), (240, 240)];

    let mut by_policy = Vec::new();
    for (mt, nt) in shapes {
        let setup = hqr_adaptive(mt, nt, s.grid);
        let graph = graph_of(&setup, s.b);
        for policy in [PanelFirst, Fifo, CriticalPath] {
            by_policy.push(Setting { policy, ..s }.run(&graph, &setup, format!("{policy:?}")));
        }
    }

    let all = [(60, 1), (30, 2), (20, 3), (15, 4), (12, 5), (10, 6), (6, 10), (5, 12), (4, 15)];
    let grids = if quick {
        vec![(60, 1), (15, 4), (4, 15)]
    } else {
        [&all[..], &[(2, 30), (1, 60)]].concat()
    };
    let mut shape = Vec::new();
    for (mt, nt) in shapes {
        for &(p, q) in &grids {
            let s = Setting { grid: ProcessGrid::new(p, q), ..s };
            shape.push(s.point(&hqr_adaptive(mt, nt, s.grid), format!("{p}x{q}")));
        }
    }

    let tile = [140, 280, 560].map(|b| {
        let s = Setting { b, ..s };
        s.point(&hqr_tall_skinny(71_680 / b, 4_480 / b, s.grid), b.to_string())
    });

    let nsq = if quick { 120 } else { 240 };
    let domino = [(false, "off"), (true, "on")].map(|(domino, label)| {
        s.point(&s.hqr(nsq, nsq, (4, TreeKind::Fibonacci, TreeKind::Flat, domino)), label)
    });

    let cases = [
        hqr_tall_skinny(1024, 16, s.grid),
        slhd10(1024, 16, 60),
        hqr_square(nsq, nsq, s.grid),
        bbd10(nsq, nsq, s.grid),
    ];
    let graphs = cases.each_ref().map(|c| graph_of(c, s.b));
    let mut overhead = Vec::new();
    for us in [0.0f64, 50.0, 200.0, 500.0] {
        let link = s.platform.link.with_overhead(us * 1e-6);
        let s = Setting { platform: Platform { link, ..s.platform }, ..s };
        for (c, g) in cases.iter().zip(&graphs) {
            overhead.push(s.run(g, c, format!("{us:>4.0} µs")));
        }
    }

    [by_policy, shape, tile.to_vec(), domino.to_vec(), overhead]
}

/// Strong scaling (a fixed 143360 × 4480 matrix) and weak scaling (~17 tile
/// rows per node, the paper's largest per-node footprint) of tall-skinny
/// HQR over row-heavy grids, labelled `PxQ`. Not a paper figure.
pub fn scaling(quick: bool) -> [Vec<FigurePoint>; 2] {
    let all = [(1, 1), (2, 2), (4, 1), (15, 1), (15, 2), (15, 4)];
    let grids = if quick { vec![(1, 1), (4, 1), (15, 4)] } else { all.to_vec() };
    let at = |(p, q), mt| {
        let platform = Platform { nodes: p * q, ..Platform::edel() };
        let s = Setting { platform, grid: ProcessGrid::new(p, q), ..Setting::paper() };
        s.point(&hqr_tall_skinny(mt, 16, s.grid), format!("{p}x{q}"))
    };
    [
        grids.iter().map(|&g| at(g, 512)).collect(),
        grids.iter().map(|&(p, q)| at((p, q), 17 * p * q)).collect(),
    ]
}

/// Size of one real task DAG and its work and weighted critical path, in
/// b³/3 flop units (so the tile size does not matter).
#[derive(Clone, Debug)]
pub struct CpRow {
    pub name: &'static str,
    pub mt: usize,
    pub nt: usize,
    pub tasks: usize,
    pub stats: analysis::DagStats,
}

fn cp_row(name: &'static str, elims: &ElimList) -> CpRow {
    let (mt, nt) = (elims.mt(), elims.nt());
    let graph = TaskGraph::build(mt, nt, 1, &elims.to_ops());
    CpRow { name, mt, nt, tasks: graph.tasks().len(), stats: analysis::dag_stats(&graph) }
}

/// Critical paths of real task DAGs, per shape in tiles: the four
/// whole-matrix trees in the order flat (TS), binary, greedy, fibonacci (TT)
/// over `trees`, and four hierarchical configurations on the virtual 15 × 4
/// grid over `hier`. On the 68 × 16 local matrix of §V-B the paper's model
/// puts flat at ≈ 2.6× greedy.
pub fn cp(trees: &[(usize, usize)], hier: &[(usize, usize)]) -> [Vec<CpRow>; 2] {
    use TreeKind::{Fibonacci, Flat, Greedy};
    let mut rows = [Vec::new(), Vec::new()];
    for &(mt, nt) in trees {
        rows[0].push(cp_row("flat (TS)", &Schedule::flat(mt, nt).to_elim_list(true)));
        rows[0].push(cp_row("binary (TT)", &Schedule::binary(mt, nt).to_elim_list(false)));
        rows[0].push(cp_row("greedy (TT)", &Schedule::greedy(mt, nt).to_elim_list(false)));
        rows[0].push(cp_row("fibonacci (TT)", &Schedule::fibonacci(mt, nt).to_elim_list(false)));
    }
    for &(mt, nt) in hier {
        for (name, tuning) in [
            ("a=1, greedy/fib, no domino", (1, Greedy, Fibonacci, false)),
            ("a=4, fib/fib, domino", (4, Fibonacci, Fibonacci, true)),
            ("a=4, flat/flat, no domino", (4, Flat, Flat, false)),
            ("a=4, flat/flat, domino", (4, Flat, Flat, true)),
        ] {
            rows[1].push(cp_row(name, &Setting::paper().hqr(mt, nt, tuning).elims));
        }
    }
    rows
}

/// The [`trees`] study's tile size, inner block size, worker threads and
/// grid: the benchmark's in-process workloads.
pub const TREES: (usize, usize, usize, ProcessGrid) = (128, 32, 2, ProcessGrid { p: 2, q: 1 });

/// The [`trees`] study's shapes in tiles: the benchmark's `square` and
/// `tall_skinny`, or with `quick` smaller ones on the same kernels.
pub fn tree_shapes(quick: bool) -> [(&'static str, usize, usize); 2] {
    if quick {
        [("square", 8, 8), ("tall_skinny", 32, 4)]
    } else {
        [("square", 24, 24), ("tall_skinny", 256, 4)]
    }
}

/// One tree setting run on this host's kernels, beside the simulator's
/// prediction for the same DAG.
#[derive(Clone, Debug)]
pub struct TreeRow {
    /// The shape's name in [`tree_shapes`].
    pub shape: &'static str,
    pub mt: usize,
    pub nt: usize,
    pub tuning: Tuning,
    /// Whether [`hqr_adaptive`] returns this list for the shape.
    pub adaptive: bool,
    /// Useful GF/s of the real executor, median over the study's rounds.
    pub measured: f64,
    /// Useful GF/s `hqr-sim` predicts on one node of as many cores, fed
    /// the kernel rates measured in the same process.
    pub predicted: f64,
    /// [`baselines::coarse_parallelism`] of the list.
    pub coarse_parallelism: f64,
    /// MiB of T factors a run of the list holds, one per GEQRT and per
    /// kill (a factorization keeps only their τ). GEQRT's V copies are the
    /// run's scratch too, and V stays in the factored tiles.
    pub factor_mib: f64,
    pub stats: analysis::DagStats,
}

/// [`TreeRow::factor_mib`] of `graph` at inner block size `ib`.
fn factor_mib(graph: &TaskGraph, ib: usize) -> f64 {
    let t_slot = |s: &Slot| matches!(s.0, SlotFamily::Tg | SlotFamily::Tk);
    let slots = graph.tasks().iter().flat_map(Task::writes).filter(t_slot);
    let doubles: usize = slots.map(|(fam, ..)| fam.slot_len(graph.b(), ib)).sum();
    (doubles * std::mem::size_of::<f64>()) as f64 / (1u64 << 20) as f64
}

/// Untimed calls per kernel before [`kernel_rates`] times any.
const WARM_CALLS: usize = 3;

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Isolated GF/s of the six tile kernels at tile size `b` and inner block
/// `ib`, in [`analysis::kind_index`] order: the median of `calls` calls on
/// one thread after `WARM_CALLS` untimed ones, each on operands restored
/// outside its timed span.
pub fn kernel_rates(b: usize, ib: usize, calls: usize) -> [f64; 6] {
    use hqr_kernels::KernelKind::{Geqrt, Tsmqr, Tsqrt, Ttmqr, Ttqrt, Unmqr};
    let tile = |seed| DenseMatrix::random(b, b, seed).data().to_vec();
    let upper = |mut a: Vec<f64>| {
        (0..b).for_each(|j| a[j * b + j + 1..(j + 1) * b].fill(0.0));
        a
    };
    let t = || vec![0.0; hqr_kernels::t_len(b, ib)];
    let run = |kind, reads: &[&[f64]], writes: &mut [Vec<f64>]| {
        let mut writes: Vec<&mut [f64]> = writes.iter_mut().map(Vec::as_mut_slice).collect();
        run_kernel(kind, b, ib, Trans::Trans, reads, &mut writes);
    };
    // The factored operands the update kernels apply.
    let v = || vec![0.0; hqr_kernels::v_len(b)];
    let mut geqrt = [tile(1), v(), t()];
    run(Geqrt, &[], &mut geqrt);
    let r = upper(geqrt[0].clone());
    let kill = |kind, a2| {
        let mut w = [r.clone(), a2, t()];
        run(kind, &[], &mut w);
        let [_, v2, tk] = w;
        (v2, tk)
    };
    let ((v_ts, t_ts), (v_tt, t_tt)) = (kill(Tsqrt, tile(2)), kill(Ttqrt, upper(tile(2))));
    let (c1, c2) = (tile(3), tile(4));
    // Each kernel with its read operands and the writes it starts from.
    type Case<'a> = (KernelKind, Vec<&'a [f64]>, Vec<Vec<f64>>);
    let cases: [Case; 6] = [
        (Geqrt, vec![], vec![c1.clone(), v(), t()]),
        (Unmqr, vec![&geqrt[1], &geqrt[2]], vec![c1.clone()]),
        (Tsqrt, vec![], vec![r.clone(), c2.clone(), t()]),
        (Tsmqr, vec![&v_ts, &t_ts], vec![c1.clone(), c2.clone()]),
        (Ttqrt, vec![], vec![r.clone(), upper(c2.clone()), t()]),
        (Ttmqr, vec![&v_tt, &t_tt], vec![c1, c2]),
    ];
    cases.map(|(kind, reads, init)| {
        let mut work = init.clone();
        let mut call = || {
            work.iter_mut().zip(&init).for_each(|(w, i)| w.copy_from_slice(i));
            let t0 = Instant::now();
            run(kind, &reads, &mut work);
            t0.elapsed().as_secs_f64()
        };
        (0..WARM_CALLS).for_each(|_| _ = call());
        let mut secs: Vec<f64> = (0..calls).map(|_| call()).collect();
        kind.flops(b) / median(&mut secs) / 1e9
    })
}

/// Figures 6–7 on this host's kernels (PAPER.md §V): every distinct
/// elimination list of a ∈ {1, 2, 4, 8, 16, one domain per cluster} × low
/// tree ∈ {flat, greedy, Fibonacci} × domino off/on, under the high tree
/// [`hqr_adaptive`] takes for the shape, on each of [`tree_shapes`]. Each
/// list is factored by `try_execute_with` at [`TREES`]' threads (rounds
/// outermost, so the host's drift falls on every setting alike) and
/// replayed by `hqr-sim` at the kernel rates measured first in the same
/// process. Settings that give an earlier row's list are skipped. Also
/// returns those rates, in [`analysis::kind_index`] order.
pub fn trees(quick: bool) -> Result<([f64; 6], Vec<TreeRow>), String> {
    use TreeKind::{Fibonacci, Flat, Greedy};
    let (b, ib, threads, grid) = TREES;
    let rates = kernel_rates(b, ib, if quick { 5 } else { 31 });
    let [_, _, tsqrt, tsmqr, ttqrt, ttmqr] = rates;
    // hqr-sim's three-number rate model, fed as the benchmark feeds it.
    let factor_efficiency = 0.5 * (tsqrt / tsmqr + ttqrt / ttmqr);
    let rates_model = KernelRates { ts_gflops: tsmqr, tt_gflops: ttmqr, factor_efficiency };
    let platform = Platform { rates: rates_model, ..Platform::single_node(threads) };
    let (mut rows, mut graphs) = (Vec::new(), Vec::new());
    for (shape, mt, nt) in tree_shapes(quick) {
        let high = baselines::adaptive_config(mt, nt, grid).high;
        let flops = model::qr_flops(mt * b, nt * b);
        let adaptive = hqr_adaptive(mt, nt, grid).elims.to_ops();
        let all = mt.div_ceil(grid.p);
        let mut seen = Vec::new();
        for a in [1, 2, 4, 8, 16].into_iter().filter(|&a| a < all).chain([all]) {
            for domino in [false, true] {
                for low in [Flat, Greedy, Fibonacci] {
                    let tuning = (a, low, high, domino);
                    let setup = Setting { grid, ..Setting::paper() }.hqr(mt, nt, tuning);
                    let ops = setup.elims.to_ops();
                    if seen.contains(&ops) {
                        continue;
                    }
                    let graph = TaskGraph::build(mt, nt, b, &ops);
                    let predicted = flops / simulate(&graph, &Layout::Single, &platform).makespan;
                    rows.push(TreeRow {
                        shape,
                        mt,
                        nt,
                        tuning,
                        adaptive: ops == adaptive,
                        measured: 0.0,
                        predicted: predicted / 1e9,
                        coarse_parallelism: baselines::coarse_parallelism(&setup.elims, grid),
                        factor_mib: factor_mib(&graph, ib),
                        stats: analysis::dag_stats(&graph),
                    });
                    graphs.push(graph);
                    seen.push(ops);
                }
            }
        }
    }
    let opts = ExecOptions { nthreads: threads, ib: Some(ib), ..Default::default() };
    let mut walls = vec![Vec::new(); rows.len()];
    for _ in 0..if quick { 1 } else { 3 } {
        for ((row, graph), walls) in rows.iter().zip(&graphs).zip(&mut walls) {
            let mut a = TiledMatrix::random(row.mt, row.nt, b, 42);
            let t0 = Instant::now();
            try_execute_with(graph, &mut a, &opts).map_err(|e| e.to_string())?;
            walls.push(t0.elapsed().as_secs_f64());
        }
    }
    for (row, walls) in rows.iter_mut().zip(&mut walls) {
        row.measured = model::qr_flops(row.mt * b, row.nt * b) / median(walls) / 1e9;
    }
    Ok((rates, rows))
}

/// One shape on the simulated cluster, for [`hqr_adaptive`]'s parallelism
/// guard: its family's a = 4 list ([`hqr_square`] or [`hqr_tall_skinny`])
/// beside one TS domain per cluster under the same trees.
#[derive(Clone, Debug)]
pub struct ScaleRow {
    pub mt: usize,
    pub nt: usize,
    pub grid: ProcessGrid,
    /// [`baselines::coarse_parallelism`] of the one-domain list.
    pub coarse_parallelism: f64,
    /// Simulated GF/s of the a = 4 list, then of the one-domain list.
    pub gflops: [f64; 2],
    /// Whether [`hqr_adaptive`] takes the one-domain list here.
    pub adaptive: bool,
}

/// The [`trees`] study's check at the paper's scale: on the edel platform
/// at b = 280, Figure 9's two tallest and two squarest shapes on the
/// 15 × 4 grid and the 240 × 240 tiles of `ablations` on its other 60-node
/// grids; with `quick`, the 3 × 2 grid of six edel nodes at b = 40 that
/// `tests/paper_claims.rs` uses. Also returns the setting's tile size.
pub fn trees_at_scale(quick: bool) -> (usize, Vec<ScaleRow>) {
    let paper = Setting::paper();
    let (s, shapes) = if quick {
        let platform = Platform { nodes: 6, cores_per_node: 4, ..Platform::edel() };
        let s = Setting { platform, grid: ProcessGrid::new(3, 2), b: 40, ..paper };
        (s, vec![(36, 36, s.grid), (48, 48, s.grid)])
    } else {
        let grids =
            [(30, 2), (20, 3), (12, 5), (10, 6), (6, 10), (5, 12), (4, 15), (2, 30), (1, 60)];
        let g = paper.grid;
        let mut shapes = vec![(240, 4, g), (240, 8, g), (240, 120, g), (240, 240, g)];
        shapes.extend(grids.map(|(p, q)| (240, 240, ProcessGrid::new(p, q))));
        (paper, shapes)
    };
    let rows = shapes.into_iter().map(|(mt, nt, grid)| {
        let s = Setting { grid, ..s };
        let (a4, high, domino) = match mt >= 4 * nt {
            true => (hqr_tall_skinny(mt, nt, grid), TreeKind::Fibonacci, true),
            false => (hqr_square(mt, nt, grid), TreeKind::Flat, false),
        };
        let one_domain = s.hqr(mt, nt, (mt.div_ceil(grid.p), TreeKind::Fibonacci, high, domino));
        let gflops = [&a4, &one_domain].map(|setup| s.point(setup, "").gflops);
        ScaleRow {
            mt,
            nt,
            grid,
            coarse_parallelism: baselines::coarse_parallelism(&one_domain.elims, grid),
            gflops,
            adaptive: hqr_adaptive(mt, nt, grid).elims.to_ops() == one_domain.elims.to_ops(),
        }
    });
    (s.b, rows.collect())
}

/// One ready-queue policy on both backends.
#[derive(Clone, Copy, Debug)]
pub struct PolicyRow {
    pub policy: SchedPolicy,
    /// Best wall time of the real executor, seconds.
    pub wall: f64,
    /// Busy fraction of the workers in that best run.
    pub utilization: f64,
    pub steals: u64,
    /// The simulator's makespan for the same DAG, seconds.
    pub sim: f64,
}

/// The scheduling-policy smoke's problem: 16 × 4 tiles of 64 (tall and
/// skinny, the latency-bound shape where ready-queue order matters most)
/// on 8 threads.
pub const SMOKE: (usize, usize, usize, usize) = (16, 4, 64, 8);

/// The [`SMOKE`] problem's flat-tree DAG under every policy, in
/// [`SchedPolicy::ALL`] order: best of `reps` real runs, each checked
/// bitwise against the serial executor, with the simulator's makespan
/// beside it. Also returns the DAG's task count.
pub fn policies(reps: usize) -> Result<(usize, Vec<PolicyRow>), String> {
    let (mt, nt, b, threads) = SMOKE;
    // Grid 1x1 with a=1 gives a single domain, so the low tree *is* the
    // whole reduction tree: a pure flat (TS) tall-skinny factorization.
    let cfg = HqrConfig::new(1, 1).with_a(1).with_low(TreeKind::Flat);
    let setup = baselines::hqr(mt, nt, ProcessGrid::new(1, 1), cfg);
    let graph = graph_of(&setup, b);
    let a0 = TiledMatrix::random(mt, nt, b, 42);
    let mut serial = a0.clone();
    let _ = execute_serial(&graph, &mut serial);
    let reference = serial.to_dense();
    let mut rows = Vec::new();
    for policy in SchedPolicy::ALL {
        let opts = SimOptions { policy, ..Default::default() };
        let sim = simulate_with(&graph, &setup.layout, &Platform::edel(), &opts)
            .map_err(|e| e.to_string())?
            .makespan;
        let mut row = PolicyRow { policy, wall: f64::INFINITY, utilization: 0.0, steals: 0, sim };
        let opts = ExecOptions { nthreads: threads, policy, ..Default::default() };
        for _ in 0..reps {
            let mut a = a0.clone();
            let (_, _, tr) =
                try_execute_traced(&graph, &mut a, &opts).map_err(|e| e.to_string())?;
            if reference.data() != a.to_dense().data() {
                return Err(format!("{policy} diverged from the serial executor"));
            }
            if tr.wall < row.wall {
                row.wall = tr.wall;
                row.utilization = tr.utilization();
                row.steals = tr.total_steals();
            }
        }
        rows.push(row);
    }
    Ok((graph.tasks().len(), rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_point_carries_dimensions() {
        let platform = Platform { nodes: 6, cores_per_node: 4, ..Platform::edel() };
        let s = Setting { platform, grid: ProcessGrid::new(3, 2), b: 10, ..Setting::paper() };
        let pt = s.point(&bbd10(8, 4, s.grid), "flat");
        assert_eq!((pt.m, pt.n, pt.nodes, pt.label.as_str()), (80, 40, 6, "flat"));
        assert!(pt.gflops > 0.0 && pt.messages.is_some());
    }
}
