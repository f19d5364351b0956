//! The benchmark's metric catalogue: every end-to-end and per-layer metric
//! with its unit, direction and the workloads whose path includes its
//! layer. `BENCHMARK.json` at the repo root states the same names, and the
//! package's test checks that the two agree.
//!
//! The contract prints every per-layer metric for every workload. A
//! metric whose layer is not on a workload's path reads 0 there (for the
//! counters that is also the literal truth: a resident run evicts nothing,
//! an in-process run moves nothing over the wire).

use crate::json::Json;

pub const SQUARE: &str = "square";
pub const TALL_SKINNY: &str = "tall_skinny";
pub const PAGED: &str = "paged";
pub const DIST: &str = "dist";
pub const SERVE: &str = "serve";

/// Workloads in the order they run.
pub const WORKLOADS: [&str; 5] = [SQUARE, TALL_SKINNY, PAGED, DIST, SERVE];

const ALL: &[&str] = &WORKLOADS;
/// The workloads that run the inner-blocked (`ib = 32`, `b = 128`) kernels.
const IB: &[&str] = &[SQUARE, TALL_SKINNY, PAGED, DIST];
/// The workloads that go through `hqr_runtime::exec`.
const EXEC: &[&str] = &[SQUARE, TALL_SKINNY, PAGED];
const SIM: &[&str] = &[SQUARE, TALL_SKINNY];

/// One metric of the catalogue.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Workloads on which the metric is measured.
    pub on: &'static [&'static str],
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    on: &'static [&'static str],
) -> MetricDef {
    MetricDef { name, unit, better, on }
}

/// End-to-end metrics with the share of the parent's median by which each
/// may worsen. Measured with tracing off, on every workload.
///
/// One metric has one bound for all workloads, so the timing bounds are
/// set by the noisiest: over ten runs on this sandbox the quartile spread
/// of `gflops` was 7-11 % on the in-process workloads and up to 18 % on
/// `dist` and 21 % on `serve`, whose blocking socket exchanges follow the
/// host's load. Memory repeats within 2.5 %.
pub const END_TO_END: &[(MetricDef, f64)] = &[
    (m("gflops", "GF/s", "higher", ALL), 0.25),
    (m("op_p50_s", "s", "lower", ALL), 0.25),
    (m("peak_rss_mb", "MB", "lower", ALL), 0.10),
    (m("setup_s", "s", "lower", ALL), 0.25),
];

/// Per-layer metrics; layer names are module names. No bounds.
pub const PER_LAYER: &[MetricDef] = &[
    // hqr-kernels: direct calls, isolated, one thread.
    m("kernels.gemm_b128_gflops", "GF/s", "higher", IB),
    m("kernels.geqrt_ib32_b128_gflops", "GF/s", "higher", IB),
    m("kernels.unmqr_ib32_b128_gflops", "GF/s", "higher", IB),
    m("kernels.tsqrt_ib32_b128_gflops", "GF/s", "higher", IB),
    m("kernels.tsmqr_ib32_b128_gflops", "GF/s", "higher", IB),
    m("kernels.ttqrt_ib32_b128_gflops", "GF/s", "higher", IB),
    m("kernels.ttmqr_ib32_b128_gflops", "GF/s", "higher", IB),
    m("kernels.geqrt_plain_b64_gflops", "GF/s", "higher", &[SERVE]),
    m("kernels.unmqr_plain_b64_gflops", "GF/s", "higher", &[SERVE]),
    m("kernels.tsqrt_plain_b64_gflops", "GF/s", "higher", &[SERVE]),
    m("kernels.tsmqr_plain_b64_gflops", "GF/s", "higher", &[SERVE]),
    m("kernels.ttqrt_plain_b64_gflops", "GF/s", "higher", &[SERVE]),
    m("kernels.ttmqr_plain_b64_gflops", "GF/s", "higher", &[SERVE]),
    // hqr-tile, hqr-core, hqr-runtime::graph: the set-up stages.
    m("tile.generate_s", "s", "lower", ALL),
    m("core.elim_list_s", "s", "lower", ALL),
    m("graph.build_s", "s", "lower", ALL),
    m("graph.tasks", "count", "lower", ALL),
    m("graph.edges", "count", "lower", ALL),
    m("graph.total_weight", "count", "lower", ALL),
    m("graph.cp_weight", "count", "lower", ALL),
    // hqr-runtime::exec.
    m("exec.serial_s", "s", "lower", EXEC),
    m("exec.parallel_efficiency", "ratio", "higher", EXEC),
    m("exec.traced_wall_s", "s", "lower", EXEC),
    m("exec.trace_overhead_frac", "ratio", "lower", EXEC),
    m("exec.busy_s", "s", "lower", EXEC),
    m("exec.busy_s.geqrt", "s", "lower", EXEC),
    m("exec.busy_s.unmqr", "s", "lower", EXEC),
    m("exec.busy_s.tsqrt", "s", "lower", EXEC),
    m("exec.busy_s.tsmqr", "s", "lower", EXEC),
    m("exec.busy_s.ttqrt", "s", "lower", EXEC),
    m("exec.busy_s.ttmqr", "s", "lower", EXEC),
    m("exec.bound_work_s", "s", "lower", EXEC),
    m("exec.bound_cp_s", "s", "lower", EXEC),
    m("exec.overhead_s", "s", "lower", EXEC),
    m("exec.utilization", "ratio", "higher", EXEC),
    m("exec.kernel_inflation", "ratio", "lower", EXEC),
    m("exec.steals", "count", "lower", EXEC),
    m("exec.injector_pops", "count", "lower", EXEC),
    m("exec.local_pops", "count", "higher", EXEC),
    // hqr-runtime::spill.
    m("spill.evictions", "count", "lower", &[PAGED]),
    m("spill.writebacks", "count", "lower", &[PAGED]),
    m("spill.demand_faults", "count", "lower", &[PAGED]),
    m("spill.prefetches", "count", "higher", &[PAGED]),
    m("spill.prefetch_hits", "count", "higher", &[PAGED]),
    m("spill.prefetch_useful_ratio", "ratio", "higher", &[PAGED]),
    m("spill.bytes_moved_computed", "B", "lower", &[PAGED]),
    m("spill.slowdown", "ratio", "lower", &[PAGED]),
    // hqr-net.
    m("net.transfers", "count", "lower", &[DIST]),
    m("net.floats_moved", "count", "lower", &[DIST]),
    m("net.rpc_retries", "count", "lower", &[DIST]),
    m("net.task_imbalance", "ratio", "lower", &[DIST]),
    m("net.link_latency_us", "us", "lower", &[DIST]),
    m("net.link_bandwidth_mbs", "MB/s", "higher", &[DIST]),
    m("net.wire_bound_s", "s", "lower", &[DIST]),
    m("net.bound_work_s", "s", "lower", &[DIST]),
    m("net.overhead_s", "s", "lower", &[DIST]),
    m("net.single_worker_s", "s", "lower", &[DIST]),
    // hqr-runtime::pool and hqr-runtime::journal, in-process.
    m("pool.bare_exec_jobs_per_s", "jobs/s", "higher", &[SERVE]),
    m("pool.volatile_jobs_per_s", "jobs/s", "higher", &[SERVE]),
    m("pool.overhead_frac", "ratio", "lower", &[SERVE]),
    m("pool.job_wall_p50_s", "s", "lower", &[SERVE]),
    m("journal.durable_jobs_per_s", "jobs/s", "higher", &[SERVE]),
    m("journal.overhead_frac", "ratio", "lower", &[SERVE]),
    // hqr-cli::service, through the socket.
    m("serve.jobs_per_s", "jobs/s", "higher", &[SERVE]),
    m("serve.op_p90_s", "s", "lower", &[SERVE]),
    m("serve.overhead_frac", "ratio", "lower", &[SERVE]),
    m("serve.ping_rtt_p50_us", "us", "lower", &[SERVE]),
    m("serve.submit_rtt_p50_ms", "ms", "lower", &[SERVE]),
    m("serve.result_fetch_p50_ms", "ms", "lower", &[SERVE]),
    m("serve.polls_per_job", "count", "lower", &[SERVE]),
    m("serve.spec_bytes", "B", "lower", &[SERVE]),
    m("serve.result_bytes", "B", "lower", &[SERVE]),
    // hqr-sim: the tracked sim-vs-real residual (1 is a perfect model).
    m("sim.predicted_s", "s", "lower", SIM),
    m("sim.residual", "ratio", "higher", SIM),
    m("sim.simulate_s", "s", "lower", SIM),
];

/// Kernel names in `hqr_runtime::analysis::kind_index` order.
pub const KERNEL_NAMES: [&str; 6] = ["geqrt", "unmqr", "tsqrt", "tsmqr", "ttqrt", "ttmqr"];

/// Metric values collected by one run, by name.
#[derive(Default, Debug)]
pub struct Metrics {
    values: Vec<(String, f64)>,
}

impl Metrics {
    /// Record `name`. Each metric is measured once per run.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(self.get(&name).is_none(), "metric `{name}` recorded twice");
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The `metrics` object of a result: every metric of `defs`, in
    /// catalogue order, with its unit. Errors name what is wrong with the
    /// set the workload recorded: a metric that applies but is missing or
    /// not finite, or one recorded where it does not apply or that the
    /// catalogue does not know.
    pub fn to_json<'a>(
        &self,
        workload: &str,
        defs: impl Iterator<Item = &'a MetricDef> + Clone,
    ) -> Result<Json, String> {
        for (name, _) in &self.values {
            match defs.clone().find(|d| d.name == name) {
                None => return Err(format!("metric `{name}` is not in the catalogue")),
                Some(d) if !d.on.contains(&workload) => {
                    return Err(format!("metric `{name}` does not apply to `{workload}`"))
                }
                Some(_) => {}
            }
        }
        let mut members = Vec::new();
        for d in defs {
            let value = match (self.get(d.name), d.on.contains(&workload)) {
                (Some(v), _) if v.is_finite() => v,
                (Some(v), _) => return Err(format!("metric `{}` is {v}", d.name)),
                (None, true) => return Err(format!("metric `{}` was not measured", d.name)),
                (None, false) => 0.0,
            };
            members.push((
                d.name.to_string(),
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(d.unit))]),
            ));
        }
        Ok(Json::Obj(members))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|(d, _)| d.name)
            .chain(PER_LAYER.iter().map(|d| d.name))
            .collect();
        for n in &names {
            assert!(!n.is_empty() && n.len() <= 64, "{n}");
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for d in END_TO_END.iter().map(|(d, _)| d).chain(PER_LAYER) {
            assert!(d.better == "higher" || d.better == "lower");
            assert!(d.unit.len() <= 16 && !d.unit.is_empty());
            assert!(d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(d.on.iter().all(|w| WORKLOADS.contains(w)));
        }
        assert!(END_TO_END.iter().all(|&(_, bound)| bound > 0.0 && bound <= 0.25));
    }

    #[test]
    fn emission_checks_applicability() {
        let defs = || PER_LAYER.iter();
        let mut ok = Metrics::default();
        for d in PER_LAYER.iter().filter(|d| d.on.contains(&DIST)) {
            ok.set(d.name, 1.5);
        }
        let json = ok.to_json(DIST, defs()).unwrap();
        let members = json.as_obj().unwrap();
        assert_eq!(members.len(), PER_LAYER.len());
        assert_eq!(json.get("net.transfers").unwrap().get("value").unwrap().as_f64(), Some(1.5));
        assert_eq!(json.get("spill.evictions").unwrap().get("value").unwrap().as_f64(), Some(0.0));
        assert_eq!(json.get("net.wire_bound_s").unwrap().get("unit").unwrap().as_str(), Some("s"));

        let missing = Metrics::default();
        assert!(missing.to_json(DIST, defs()).unwrap_err().contains("was not measured"));
        let mut stray = Metrics::default();
        stray.set("spill.evictions", 3.0);
        assert!(stray.to_json(DIST, defs()).unwrap_err().contains("does not apply"));
        let mut unknown = Metrics::default();
        unknown.set("nope", 3.0);
        assert!(unknown.to_json(DIST, defs()).unwrap_err().contains("not in the catalogue"));
    }
}
