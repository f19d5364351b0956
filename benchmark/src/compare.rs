//! `compare A.json B.json`: for every (workload, end-to-end metric), the
//! medians of two sets of runs, their quartile spreads, the relative
//! change and the metric's bound. This is the agreement test for two sets
//! of the same commit and the regression test for a parent and a change.

use crate::json::Json;
use crate::metrics::{END_TO_END, WORKLOADS};
use crate::stats::{median, relative_spread};

/// The verdict on one (workload, metric) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Within,
    /// B's median is worse than A's by more than the bound.
    OutOfBound,
    /// A spread exceeds the bound, so the runs cannot resolve a change of
    /// the bound's size: neither "unchanged" nor "regressed".
    Unresolved,
}

/// One row of the comparison.
#[derive(Clone, Debug)]
pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub unit: &'static str,
    pub runs: (usize, usize),
    pub medians: (f64, f64),
    pub spreads: (f64, f64),
    /// Relative change of B against A, signed so that positive is worse.
    pub worsening: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Values of end-to-end metric `metric` over the untraced, full-size runs
/// of `workload` in a results document.
fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    let runs = doc.get("runs").and_then(Json::as_arr).unwrap_or_default();
    runs.iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|r| r.get("traced").and_then(Json::as_bool) == Some(false))
        .filter(|r| r.get("quick").and_then(Json::as_bool) != Some(true))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Compare two results documents. Pairs absent from either are skipped.
pub fn compare(a: &Json, b: &Json) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in WORKLOADS {
        for &(def, bound) in END_TO_END {
            let (va, vb) = (values(a, workload, def.name), values(b, workload, def.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let medians = (median(&va), median(&vb));
            let spreads = (relative_spread(&va), relative_spread(&vb));
            let change = (medians.1 - medians.0) / medians.0;
            let worsening = if def.better == "higher" { -change } else { change };
            // `setup_s` is held to its bound on medians only: its spread is
            // exempt from the acceptance rule, being a handful of repeats.
            let noisy = def.name != "setup_s" && spreads.0.max(spreads.1) > bound;
            let verdict = match (worsening > bound, noisy) {
                (true, _) => Verdict::OutOfBound,
                (false, true) => Verdict::Unresolved,
                (false, false) => Verdict::Within,
            };
            rows.push(Row {
                workload,
                metric: def.name,
                unit: def.unit,
                runs: (va.len(), vb.len()),
                medians,
                spreads,
                worsening,
                bound,
                verdict,
            });
        }
    }
    rows
}

/// The comparison as a table, one row per (workload, metric).
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<12} {:<12} {:>5} {:>14} {:>14} {:>8} {:>8} {:>9} {:>7}  {}\n",
        "workload",
        "metric",
        "runs",
        "median A",
        "median B",
        "IQR A",
        "IQR B",
        "worsening",
        "bound",
        "verdict"
    );
    for r in rows {
        let verdict = match r.verdict {
            Verdict::Within => "ok",
            Verdict::OutOfBound => "OUT OF BOUND",
            Verdict::Unresolved => "unresolved (spread > bound)",
        };
        out.push_str(&format!(
            "{:<12} {:<12} {:>2}/{:<2} {:>14.6} {:>14.6} {:>7.2}% {:>7.2}% {:>+8.2}% {:>6.0}%  {} [{}]\n",
            r.workload,
            r.metric,
            r.runs.0,
            r.runs.1,
            r.medians.0,
            r.medians.1,
            100.0 * r.spreads.0,
            100.0 * r.spreads.1,
            100.0 * r.worsening,
            100.0 * r.bound,
            verdict,
            r.unit,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(workload: &str, gflops: &[f64]) -> Json {
        let runs = gflops.iter().map(|&g| {
            let metric = |v: f64, unit: &str| {
                Json::obj([("value", Json::Num(v)), ("unit", Json::str(unit))])
            };
            Json::obj([
                ("workload", Json::str(workload)),
                ("traced", Json::Bool(false)),
                (
                    "metrics",
                    Json::obj([("gflops", metric(g, "GF/s")), ("op_p50_s", metric(10.0 / g, "s"))]),
                ),
            ])
        });
        Json::obj([("runs", Json::Arr(runs.collect()))])
    }

    #[test]
    fn verdicts() {
        let bound = END_TO_END[0].1;
        assert_eq!((END_TO_END[0].0.name, END_TO_END[1].0.name), ("gflops", "op_p50_s"));
        let scaled = |f: f64| doc("square", &[40.0 * f, 40.4 * f, 39.8 * f, 40.1 * f]);
        let base = scaled(1.0);
        let same = compare(&base, &doc("square", &[40.2, 39.9, 40.0, 40.3]));
        assert_eq!(same.len(), 2, "only the metrics present in both");
        assert!(same.iter().all(|r| r.verdict == Verdict::Within), "{same:?}");

        // gflops is better higher: a drop beyond the bound is out of it, and
        // op_p50_s (better lower) rises by even more.
        let drop = bound + 0.05;
        let slower = compare(&base, &scaled(1.0 - drop));
        assert!(slower.iter().all(|r| r.verdict == Verdict::OutOfBound), "{slower:?}");
        assert!((slower[0].worsening - drop).abs() < 0.01);
        assert!(slower[1].worsening > drop);

        // An improvement is never out of bound.
        let faster = compare(&base, &scaled(1.5));
        assert!(faster.iter().all(|r| r.verdict == Verdict::Within));
        assert!(faster[0].worsening < 0.0);

        // Same median, but B's spread is wider than the bound.
        let noisy =
            compare(&base, &doc("square", &[40.0 * (1.0 - drop), 40.0, 40.2, 40.0 * (1.0 + drop)]));
        assert_eq!(noisy[0].verdict, Verdict::Unresolved);
        assert!(render(&noisy).contains("unresolved"));

        assert!(compare(&base, &doc("dist", &[1.0])).is_empty());
    }
}
