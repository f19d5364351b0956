//! `hqr experiments <study>`: print the paper's tables and figures (§V) and
//! the extension studies as markdown, from the rows `hqr::experiments`
//! produces.

use crate::args::{Args, CliError};
use hqr::experiments::{self as ex, CpRow, FigurePoint, Setting, TreeRow, M_SWEEP, N_SWEEP};
use hqr_runtime::SchedPolicy;

/// Every study, in the order `all` runs them.
const STUDIES: [&str; 10] =
    ["table", "fig6", "fig7", "fig8", "fig9", "ablations", "scaling", "cp", "policies", "trees"];

/// `--gate`: the critical-path policy's wall time on the real executor may
/// be at most this much of FIFO's.
const TOLERANCE: f64 = 1.10;

/// `hqr experiments <study> [--quick] [--gate]`: the one subcommand with a
/// positional, the study's name — the argument that is not a flag, so flags
/// may come before or after it (every flag here is boolean, none takes a
/// value).
pub fn experiments(argv: &[String]) -> Result<i32, CliError> {
    let (flags, names): (Vec<String>, Vec<String>) =
        argv.iter().cloned().partition(|a| a.starts_with("--"));
    if let Some(extra) = names.get(1) {
        return Err(CliError::usage(format!("unexpected argument `{extra}`")));
    }
    let study = names.first().map_or("", String::as_str);
    let args = Args::parse(&flags);
    let (quick, gate) = (args.flag("quick"), args.flag("gate"));
    args.reject_unknown()?;
    let names = match study {
        "all" => STUDIES.to_vec(),
        name if STUDIES.contains(&name) => vec![name],
        other => {
            let all = STUDIES.join("|");
            return Err(CliError::usage(format!("unknown study `{other}` ({all}|all)")));
        }
    };
    // `--quick` keeps the first four points of the M and N sweeps.
    let points = if quick { 4 } else { M_SWEEP.len() };
    let (s, ms) = (Setting::paper(), &M_SWEEP[..points]);
    for (i, name) in names.into_iter().enumerate() {
        if i > 0 {
            println!();
        }
        match name {
            "table" => {
                println!("# Tables I-IV and Figures 1-4 (coarse-grain unit-time model)");
                ex::table().iter().for_each(|(heading, body)| println!("\n## {heading}\n{body}"));
            }
            "fig6" => {
                println!("# Figure 6: influence of the TS level (a) and the high-level tree");
                println!("# matrix: M x 4480, b = 280, grid 15x4, domino off");
                let [greedy, flat] = ex::fig6(&s, ms, 4480);
                figure("Figure 6(a): low-level tree = GREEDY", &greedy);
                figure("Figure 6(b): low-level tree = FLATTREE", &flat);
            }
            "fig7" => {
                println!("# Figure 7: low-level tree x domino optimization");
                println!("# matrix: M x 4480, b = 280, grid 15x4, a = 4, high = fibonacci");
                // The paper starts this figure at M = 17920.
                figure("Figure 7", &ex::fig7(&s, &ms[2..], 4480));
            }
            "fig8" => {
                println!("# Figure 8: algorithm comparison on M x 4480 (b = 280, 60 nodes)");
                figure("Figure 8", &ex::fig8(&s, ms, 4480));
            }
            "fig9" => {
                println!("# Figure 9: algorithm comparison on 67200 x N (b = 280, 60 nodes)");
                figure("Figure 9", &ex::fig9(&s, 67_200, &N_SWEEP[..points]));
            }
            "ablations" => ablations(quick),
            "scaling" => scaling(quick),
            "cp" => critical_paths(),
            "policies" => policies(quick, gate)?,
            "trees" => trees(quick)?,
            _ => unreachable!("`names` holds STUDIES entries only"),
        }
    }
    Ok(0)
}

/// A study table: its heading (with any notes), the column names, one
/// line per row.
fn study<R>(heading: &str, columns: &str, rows: &[R], line: impl Fn(&R) -> String) {
    println!("{heading}\n| {columns} |");
    println!("|{}", "---|".repeat(columns.split('|').count()));
    for r in rows {
        println!("| {} |", line(r));
    }
}

/// `GFlop/s | % peak`, as most study tables end.
fn perf(p: &FigurePoint) -> String {
    format!("{:.1} | {:.1}%", p.gflops, 100.0 * p.efficiency)
}

/// One figure as the markdown table every figure study shares.
fn figure(title: &str, points: &[FigurePoint]) {
    let columns = "M | N | algorithm | GFlop/s | % peak | messages";
    study(&format!("\n## {title}"), columns, points, |p| {
        let messages = p.messages.map_or("-".into(), |m| m.to_string());
        let perf = format!("{:>8.1} | {:>5.1}%", p.gflops, 100.0 * p.efficiency);
        format!("{:>7} | {:>6} | {:<34} | {perf} | {messages:>9}", p.m, p.n, p.label)
    });
}

fn ablations(quick: bool) {
    let [policy, grid, tile, domino, overhead] = ex::ablations(quick);
    let shape = |p: &FigurePoint| if p.m > p.n { "tall-skinny" } else { "square" };
    let messages = |p: &FigurePoint| p.messages.unwrap_or(0);
    study(
        "# Ablation 1: scheduling policy (HQR, 15x4 grid, b = 280)",
        "matrix | policy | GFlop/s | % peak",
        &policy,
        |p| format!("{} {}x{} | {} | {}", shape(p), p.m, p.n, p.label, perf(p)),
    );
    study(
        "\n# Ablation 2: virtual/process grid shape (60 nodes, b = 280)",
        "matrix | grid p x q | GFlop/s | % peak | messages",
        &grid,
        |p| format!("{} | {} | {} | {}", shape(p), p.label, perf(p), messages(p)),
    );
    study(
        "\n# Ablation 3: tile size b (71680 x 4480, 15x4 grid)",
        "b | tiles | GFlop/s | % peak | messages",
        &tile,
        |p| {
            let b: usize = p.label.parse().expect("labelled by tile size");
            format!("{b} | {}x{} | {} | {}", p.m / b, p.n / b, perf(p), messages(p))
        },
    );
    study(
        "\n# Ablation 4: the domino's cost on large square matrices\n\
         (§V-B: \"domino optimization [has] a negative impact when the matrix\n \
         becomes large and square\")",
        "matrix | domino | GFlop/s | % peak",
        &domino,
        |p| format!("{0}x{0} tiles | {1} | {2}", p.n / Setting::paper().b, p.label, perf(p)),
    );
    let by_overhead: Vec<&[FigurePoint]> = overhead.chunks(4).collect();
    study(
        "\n# Ablation 5: sensitivity to per-message software overhead\n\
         (the LogGP 'o' term the baseline calibration sets to zero; rising\n \
         overhead penalizes the message-heavy algorithms first and probes\n \
         the [SLHD10]/[BBD+10] deviations recorded in EXPERIMENTS.md)",
        "overhead | HQR tall | SLHD10 tall | HQR square | BBD+10 square",
        &by_overhead,
        |r| {
            let gf: Vec<String> = r.iter().map(|p| format!("{:.0}", p.gflops)).collect();
            format!("{} | {}", r[0].label, gf.join(" | "))
        },
    );
}

fn scaling(quick: bool) {
    let [strong, weak] = ex::scaling(quick);
    let base = strong[0].gflops;
    study(
        "# Strong scaling: fixed 143360 x 4480 matrix, nodes vary",
        "nodes | grid | GFlop/s | speedup | parallel eff",
        &strong,
        |p| {
            let (speedup, nodes) = (p.gflops / base, p.nodes);
            let eff = 100.0 * speedup / nodes as f64;
            format!("{nodes} | {} | {:.1} | {speedup:.2}x | {eff:.1}%", p.label, p.gflops)
        },
    );
    study(
        "\n# Weak scaling: rows grow with the node count (tall-skinny)",
        "nodes | matrix | GFlop/s | GFlop/s per node",
        &weak,
        |p| {
            let per_node = p.gflops / p.nodes as f64;
            format!("{} | {}x{} | {:.1} | {per_node:.1}", p.nodes, p.m, p.n, p.gflops)
        },
    );
}

fn critical_paths() {
    let line = |r: &CpRow| {
        let (total, cp) = (r.stats.total_weight, r.stats.critical_path_weight);
        let parallelism = total as f64 / cp as f64;
        format!(
            "{:<34} | {}x{} | {} | {total} | {cp} | {parallelism:.1}",
            r.name, r.mt, r.nt, r.tasks
        )
    };
    println!("# Weighted critical paths of the real task DAGs");
    println!("(weights in b³/3 flop units; parallelism = total/CP)");
    let [trees, hier] = ex::cp(&[(68, 16), (64, 64), (256, 16)], &[(256, 16), (120, 120)]);
    let columns = "tiles | tasks | total weight | CP weight | parallelism";
    study("\n## Whole-matrix trees", &format!("tree | {columns}"), &trees, line);
    let heading = "\n## Hierarchical configurations (virtual 15x4 grid)";
    study(heading, &format!("configuration | {columns}"), &hier, line);
    println!("\n## §V-B anchor: 68x16 local matrix, flat vs greedy CP ratio");
    let [flat, greedy] = [0, 2].map(|i| trees[i].stats.critical_path_weight);
    let ratio = flat as f64 / greedy as f64;
    println!("flat CP = {flat}, greedy CP = {greedy}, ratio = {ratio:.2} (paper model: 2.6)");
}

/// The policy smoke: report-only unless `gate`, because single-run wall
/// clocks on shared machines are noisy.
fn policies(quick: bool, gate: bool) -> Result<(), CliError> {
    let ((mt, nt, b, threads), reps) = (ex::SMOKE, if quick { 3 } else { 5 });
    let (tasks, rows) = ex::policies(reps).map_err(CliError::failed)?;
    println!("# Scheduling-policy smoke: {mt}x{nt} tiles of {b}, flat tree, {threads} threads");
    println!("({tasks} tasks, best of {reps} runs per policy)\n");
    println!("| policy | best wall (ms) | utilization | steals | sim makespan (s) |");
    println!("|---|---|---|---|---|");
    for r in &rows {
        let (ms, busy) = (r.wall * 1e3, 100.0 * r.utilization);
        println!("| {} | {ms:.3} | {busy:.1}% | {} | {:.4} |", r.policy, r.steals, r.sim);
    }
    let wall_of = |p: SchedPolicy| rows.iter().find(|r| r.policy == p).map_or(0.0, |r| r.wall);
    let (fifo, cp) = (wall_of(SchedPolicy::Fifo), wall_of(SchedPolicy::CriticalPath));
    println!("\ncp/fifo wall ratio: {:.3} (gate: <= {TOLERANCE})", cp / fifo);
    if cp > fifo * TOLERANCE {
        if gate {
            let msg = format!("FAIL: critical-path policy regressed past {TOLERANCE}x FIFO");
            return Err(CliError::failed(msg));
        }
        println!("(report-only run: pass --gate to fail on regression)");
    }
    Ok(())
}

/// Figs 6-7 on this host's kernels: one table per shape, measured beside
/// predicted, with both rankings and how far their top threes agree.
fn trees(quick: bool) -> Result<(), CliError> {
    let (b, ib, threads, grid) = ex::TREES;
    let (rates, rows) = ex::trees(quick).map_err(CliError::failed)?;
    println!("# Figs 6-7 on real kernels: a x low tree x domino, measured and simulated");
    println!("# try_execute_with at t = {threads}, b = {b}, ib = {ib}, grid {}x{}", grid.p, grid.q);
    let names = ["GEQRT", "UNMQR", "TSQRT", "TSMQR", "TTQRT", "TTMQR"];
    let rates: Vec<String> = names.iter().zip(rates).map(|(n, r)| format!("{n} {r:.1}")).collect();
    println!("isolated kernel GF/s (the simulator's input): {}", rates.join(", "));
    for (shape, mt, nt) in ex::tree_shapes(quick) {
        let rows: Vec<&TreeRow> = rows.iter().filter(|r| r.shape == shape).collect();
        let rank = |key: fn(&TreeRow) -> f64| {
            let mut order: Vec<usize> = (0..rows.len()).collect();
            order.sort_by(|&i, &j| key(rows[j]).total_cmp(&key(rows[i])));
            let mut rank = vec![0; rows.len()];
            order.iter().enumerate().for_each(|(r, &i)| rank[i] = r + 1);
            rank
        };
        let (measured, predicted) = (rank(|r| r.measured), rank(|r| r.predicted));
        let high = rows[0].tuning.2.name();
        let heading = format!(
            "\n## {shape}: {mt}x{nt} tiles ({}x{}), high = {high}; * = hqr_adaptive's list",
            mt * b,
            nt * b
        );
        let columns = "a | low | domino | GF/s | rank | sim GF/s | sim rank | CP weight | \
                       total/CP | coarse elims in flight/node";
        let lines: Vec<usize> = (0..rows.len()).collect();
        study(&heading, columns, &lines, |&i| {
            let r = rows[i];
            let (a, low, _, domino) = r.tuning;
            let (total, cp) = (r.stats.total_weight, r.stats.critical_path_weight);
            format!(
                "{a}{} | {} | {} | {:.1} | {} | {:.1} | {} | {cp} | {:.1} | {:.2}",
                if r.adaptive { " *" } else { "" },
                low.name(),
                if domino { "on" } else { "off" },
                r.measured,
                measured[i],
                r.predicted,
                predicted[i],
                total as f64 / cp as f64,
                r.coarse_parallelism
            )
        });
        let top3 = |rank: &[usize]| (0..rows.len()).filter(|&i| rank[i] <= 3).collect::<Vec<_>>();
        let overlap = top3(&measured).iter().filter(|i| top3(&predicted).contains(i)).count();
        let best = |rank: &[usize]| {
            let i = rank.iter().position(|&r| r == 1).expect("rows are ranked");
            let (a, low, _, domino) = rows[i].tuning;
            format!("a={a} low={} domino={}", low.name(), if domino { "on" } else { "off" })
        };
        println!(
            "measured best: {}; simulated best: {}; top-3 overlap: {overlap} of 3",
            best(&measured),
            best(&predicted)
        );
    }
    let (b, rows) = ex::trees_at_scale(quick);
    let heading = format!(
        "\n## On the simulated cluster (b = {b}): a = 4 against one TS domain per cluster; \
         * = hqr_adaptive's list"
    );
    let columns = "tiles | grid | coarse elims in flight/node | a=4 GF/s | one domain GF/s | ratio";
    study(&heading, columns, &rows, |r| {
        let [a4, one] = r.gflops;
        format!(
            "{}x{} | {}x{} | {:.2} | {a4:.1}{} | {one:.1}{} | {:.3}",
            r.mt,
            r.nt,
            r.grid.p,
            r.grid.q,
            r.coarse_parallelism,
            if r.adaptive { "" } else { " *" },
            if r.adaptive { " *" } else { "" },
            one / a4
        )
    });
    Ok(())
}
