//! Runs the whole suite in `--quick` smoke mode, both passes, through the
//! real binary, and checks what it emits against the metric catalogue and
//! against `BENCHMARK.json` at the repo root.

use hqr_benchmark::json::Json;
use hqr_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use hqr_benchmark::problem::WORKLOAD_TABLE;
use hqr_benchmark::sysinfo::{bench_dir, out_dir};
use std::process::Command;
use std::time::Instant;

fn str_of<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("no string `{key}` in {j:?}"))
}

fn num_of(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).unwrap_or_else(|| panic!("no number `{key}` in {j:?}"))
}

fn metric(run: &Json, name: &str) -> f64 {
    num_of(
        run.get("metrics").unwrap().get(name).unwrap_or_else(|| panic!("no metric {name}")),
        "value",
    )
}

/// Run one quick pass over all workloads; returns the results document
/// and the result lines the children printed.
fn quick_pass(traced: bool) -> (Json, Vec<Json>) {
    let out = out_dir().join(format!("quick-test-{}-{traced}.json", std::process::id()));
    let t0 = Instant::now();
    let output = Command::new(env!("CARGO_BIN_EXE_hqr-benchmark"))
        .args([
            "run",
            "--workload",
            "all",
            "--quick",
            "--trace",
            if traced { "1" } else { "0" },
            "--out",
        ])
        .arg(&out)
        .output()
        .expect("spawn the benchmark");
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(output.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&output.stderr));
    assert!(t0.elapsed().as_secs_f64() < 10.0, "a quick pass must stay under 10 s");
    let doc = Json::parse(&std::fs::read_to_string(&out).unwrap()).expect("results file parses");
    std::fs::remove_file(&out).unwrap();
    let lines =
        stdout.lines().filter(|l| l.starts_with("{\"correct\"")).map(|l| Json::parse(l).unwrap());
    (doc, lines.collect())
}

/// `metrics` holds exactly `defs`, once each, in order, each with its unit.
fn assert_metrics(metrics: &Json, defs: &[&MetricDef], workload: &str, traced: bool) {
    let members = metrics.as_obj().expect("metrics is an object");
    let names: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, defs.iter().map(|d| d.name).collect::<Vec<_>>(), "{workload}");
    for ((name, m), def) in members.iter().zip(defs) {
        assert!(
            !name.is_empty()
                && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        );
        assert_eq!(str_of(m, "unit"), def.unit, "{workload} {name}");
        let value = num_of(m, "value");
        assert!(value.is_finite(), "{workload} {name}");
        if !traced {
            assert!(value > 0.0, "end-to-end metric {name} of {workload} must never be 0");
        } else if !def.on.contains(&workload) {
            assert_eq!(value, 0.0, "{name} does not apply to {workload}");
        }
    }
}

#[test]
fn quick_suite_emits_the_catalogue() {
    let e2e: Vec<&MetricDef> = END_TO_END.iter().map(|(d, _)| d).collect();
    let layers: Vec<&MetricDef> = PER_LAYER.iter().collect();
    for (traced, defs) in [(false, &e2e), (true, &layers)] {
        let (doc, lines) = quick_pass(traced);
        assert_eq!(str_of(&doc, "schema"), "hqr-benchmark/1");
        let runs = doc.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs.iter().map(|r| str_of(r, "workload")).collect::<Vec<_>>(), WORKLOADS);
        assert_eq!(lines.len(), WORKLOADS.len());
        for (run, line) in runs.iter().zip(&lines) {
            let workload = str_of(run, "workload");
            assert_eq!(run.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(num_of(run, "failed"), 0.0);
            assert_eq!(num_of(run, "failed_frac"), 0.0);
            assert!(num_of(run, "attempted") >= 1.0);
            assert_metrics(run.get("metrics").unwrap(), defs, workload, traced);

            // The contract's result line: exactly these four keys.
            let keys: Vec<&str> = line.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("metrics"), run.get("metrics"));

            // The like-for-like record and the raw samples.
            let record = run.get("record").unwrap();
            for key in [
                "seed",
                "git_commit",
                "nproc",
                "threads",
                "simd",
                "tmp_fs",
                "warm_ops",
                "timed_ops",
            ] {
                assert!(record.get(key).is_some(), "{workload}: record lacks {key}");
            }
            assert_eq!(num_of(record, "threads"), 2.0);
            let ops = run.get("samples").unwrap().get("op_s").and_then(Json::as_arr).unwrap();
            assert_eq!(ops.len() as f64, num_of(record, "timed_ops"));
            assert!(!ops.is_empty());

            if traced {
                let trace = std::fs::read_to_string(str_of(run, "trace_file")).unwrap();
                assert!(hqr_runtime::validate_chrome_trace(&trace).unwrap() > 0, "{workload}");
                if ["square", "tall_skinny", "paged"].contains(&workload) {
                    let by_kind: f64 = ["geqrt", "unmqr", "tsqrt", "tsmqr", "ttqrt", "ttmqr"]
                        .iter()
                        .map(|k| metric(run, &format!("exec.busy_s.{k}")))
                        .sum();
                    let busy = metric(run, "exec.busy_s");
                    assert!(
                        (busy - by_kind).abs() <= 1e-9 * busy,
                        "{workload}: {busy} vs {by_kind}"
                    );
                    assert!(metric(run, "exec.bound_work_s") <= metric(run, "exec.traced_wall_s"));
                    assert!(metric(run, "exec.trace_overhead_frac").is_finite());
                }
                if workload == "paged" {
                    assert!(metric(run, "spill.demand_faults") > 0.0);
                }
            }
        }
    }
}

#[test]
fn benchmark_json_agrees_with_the_catalogue() {
    let path = bench_dir().join("../BENCHMARK.json");
    let doc =
        Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root"))
            .unwrap();
    let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);

    let strings = |key: &str| -> Vec<&str> {
        doc.get(key).and_then(Json::as_arr).unwrap().iter().map(|s| s.as_str().unwrap()).collect()
    };
    assert_eq!(strings("paths"), ["benchmark"]);
    let command = strings("command");
    assert_eq!(command[0], "cargo");
    assert!(command.contains(&"benchmark/Cargo.toml") && command.ends_with(&["--", "run"]));
    assert_eq!(num_of(&doc, "run_seconds"), 10.0, "the CLI's default --seconds");

    let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(workloads.len(), WORKLOAD_TABLE.len());
    for (w, def) in workloads.iter().zip(&WORKLOAD_TABLE) {
        assert_eq!(w.as_obj().unwrap().len(), 2);
        assert_eq!((str_of(w, "name"), str_of(w, "why")), (def.name, def.why));
    }

    let end_to_end = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (m, (def, bound)) in end_to_end.iter().zip(END_TO_END) {
        assert_eq!(m.as_obj().unwrap().len(), 4);
        assert_eq!(
            (str_of(m, "name"), str_of(m, "unit"), str_of(m, "better")),
            (def.name, def.unit, def.better)
        );
        assert_eq!(num_of(m, "bound"), *bound, "{}", def.name);
    }
    assert!(end_to_end.iter().any(|m| {
        (str_of(m, "name"), str_of(m, "unit"), str_of(m, "better")) == ("setup_s", "s", "lower")
    }));

    let per_layer = doc.get("per_layer").and_then(Json::as_arr).unwrap();
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (m, def) in per_layer.iter().zip(PER_LAYER) {
        assert_eq!(m.as_obj().unwrap().len(), 3);
        assert_eq!(
            (str_of(m, "name"), str_of(m, "unit"), str_of(m, "better")),
            (def.name, def.unit, def.better)
        );
    }
}
