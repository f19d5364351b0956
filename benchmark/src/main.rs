//! Command line of the benchmark.
//!
//! ```text
//! hqr-benchmark run [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1 | --traced]
//!                   [--quick] [--runs N] [--out FILE]
//! hqr-benchmark compare A.json B.json
//! ```
//!
//! One workload, one run executes in this process and ends with the
//! contract's result line. Anything more (`--workload all`, `--runs N`)
//! runs each (workload, seed) in a child process of its own, so that no
//! run inherits another's memory high-water mark, caches or threads, and
//! gathers the children's results into one file.

use hqr_benchmark::compare::{compare, render, Verdict};
use hqr_benchmark::guards::die_with_parent;
use hqr_benchmark::json::Json;
use hqr_benchmark::metrics::WORKLOADS;
use hqr_benchmark::problem::workload;
use hqr_benchmark::run::{results_document, run, RunArgs};
use hqr_benchmark::sysinfo::out_dir;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  hqr-benchmark run [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1 | --traced]
                    [--quick] [--runs N] [--out FILE]
      workloads: square, tall_skinny, paged, dist, serve (default: all)
      --seed N      inputs are generated from N (default 42); run r of --runs uses N + r
      --seconds S   length of the timed region (default 10)
      --trace 1     the traced pass: spans, traced executor, per-layer metrics (--traced is the same)
      --quick       smoke mode: tiny sizes, one timed operation
      --runs N      repeat each workload N times with consecutive seeds (default 1)
      --out FILE    results file (default benchmark/out/...)
  hqr-benchmark compare A.json B.json
      medians, quartile spreads and relative change per (workload, end-to-end metric);
      exits 1 if any change is out of its bound
";

/// Default length of the timed region; `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

struct RunCli {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    runs: u64,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunCli, String> {
    let mut cli = RunCli {
        workload: "all".into(),
        seed: 42,
        seconds: DEFAULT_SECONDS,
        traced: false,
        quick: false,
        runs: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: `{v}` is not a valid number"))
        }
        match flag.as_str() {
            "--workload" => cli.workload = value()?.clone(),
            "--seed" => cli.seed = num(flag, value()?)?,
            "--seconds" => cli.seconds = num(flag, value()?)?,
            "--runs" => cli.runs = num(flag, value()?)?,
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "--traced" => cli.traced = true,
            "--quick" => cli.quick = true,
            "--trace" => {
                cli.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(cli.seconds >= 0.0 && cli.seconds <= 600.0) {
        return Err("--seconds must be between 0 and 600".into());
    }
    if cli.runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    if cli.workload != "all" && workload(&cli.workload).is_none() {
        return Err(format!(
            "unknown workload `{}` (one of {}, all)",
            cli.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(cli)
}

fn write_results(path: &Path, runs: Vec<Json>) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, results_document(runs).render_pretty())
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// One workload, once, in this process.
fn run_here(cli: &RunCli) -> Result<ExitCode, String> {
    let w = workload(&cli.workload).ok_or("unknown workload")?;
    let outcome = run(RunArgs {
        workload: w,
        seed: cli.seed,
        seconds: cli.seconds,
        traced: cli.traced,
        quick: cli.quick,
    })?;
    let default =
        out_dir().join(format!("{}{}.json", w.name, if cli.traced { ".traced" } else { "" }));
    write_results(cli.out.as_deref().unwrap_or(&default), vec![outcome.to_json()])?;
    print!("{}", outcome.table());
    if let Some(file) = &outcome.trace_file {
        println!("  trace: {file}");
    }
    println!("{}", outcome.result_line());
    Ok(ExitCode::SUCCESS)
}

/// Several runs: each in a child process, results gathered into one file.
fn run_children(cli: &RunCli) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let names: Vec<&str> =
        if cli.workload == "all" { WORKLOADS.to_vec() } else { vec![&cli.workload] };
    let pass = if cli.traced { "traced" } else { "untraced" };
    let (mut runs, mut bad) = (Vec::new(), Vec::new());
    for r in 0..cli.runs {
        for name in &names {
            let seed = cli.seed.wrapping_add(r);
            let part = out_dir().join(format!("part-{}-{name}-{seed}.json", std::process::id()));
            let mut child = Command::new(&exe);
            die_with_parent(&mut child);
            child.args(["run", "--workload", name, "--seed", &seed.to_string()]);
            child.args([
                "--seconds",
                &cli.seconds.to_string(),
                "--trace",
                if cli.traced { "1" } else { "0" },
            ]);
            child.args(cli.quick.then_some("--quick")).arg("--out").arg(&part);
            let status = child.status().map_err(|e| format!("spawn {name}: {e}"))?;
            let doc = std::fs::read_to_string(&part).ok().and_then(|t| Json::parse(&t).ok());
            let _ = std::fs::remove_file(&part);
            let run = doc.as_ref().and_then(|d| d.get("runs")?.as_arr()?.first());
            match run {
                Some(run) if status.success() => {
                    if run.get("correct").and_then(Json::as_bool) != Some(true) {
                        bad.push(format!("{name} (seed {seed}): incorrect"));
                    }
                    runs.push(run.clone());
                }
                _ => bad.push(format!("{name} (seed {seed}): {status}")),
            }
        }
    }
    let default = out_dir().join(format!("results.{pass}.json"));
    let out = cli.out.as_deref().unwrap_or(&default);
    write_results(out, runs)?;
    println!(
        "{} {pass} runs written to {}",
        cli.runs as usize * names.len() - bad.len(),
        out.display()
    );
    for b in &bad {
        println!("FAILED: {b}");
    }
    Ok(if bad.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes exactly two results files".into());
    };
    let load = |p: &String| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let rows = compare(&load(a)?, &load(b)?);
    if rows.is_empty() {
        return Err("the two files share no (workload, end-to-end metric) pair".into());
    }
    print!("{}", render(&rows));
    let out = rows.iter().filter(|r| r.verdict == Verdict::OutOfBound).count();
    let unresolved = rows.iter().filter(|r| r.verdict == Verdict::Unresolved).count();
    println!("{} pairs: {out} out of bound, {unresolved} unresolved", rows.len());
    Ok(if out == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).and_then(|cli| {
            if cli.workload != "all" && cli.runs == 1 {
                run_here(&cli)
            } else {
                run_children(&cli)
            }
        }),
        Some((cmd, rest)) if cmd == "compare" => compare_files(rest),
        // The daemon child of the `serve` workload: the program under test,
        // started through its own command-line entry point.
        Some((cmd, rest)) if cmd == "daemon" => {
            let mut serve = vec!["serve".to_string()];
            serve.extend_from_slice(rest);
            return ExitCode::from(hqr_cli::run(&serve) as u8);
        }
        _ => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("hqr-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
