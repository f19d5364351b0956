//! Workload `dist`: one factorization per operation through
//! `hqr_net::factorize` over two in-process loopback tile workers, with a
//! fresh run id each time.

use crate::guards::Fleet;
use crate::kernels::record_kernel_metrics;
use crate::metrics::Metrics;
use crate::problem::{Problem, THREADS};
use crate::run::{
    record_stage_metrics, repeat_setup, serial_reference, timed_loop, Ctx, OpLog, Report,
};
use crate::spans::Spans;
use crate::stats::median;
use crate::sysinfo;
use crate::verify::{verify, Factored};
use hqr_net::{factorize, measure_loopback, DistConfig, DistReport};
use hqr_runtime::TFactors;
use hqr_tile::TiledMatrix;

const LAYER: &str = "hqr-net";

/// Payload sizes for the loopback link fit: a small control message, a
/// page, one 128 x 128 tile of doubles, and 1 MiB.
const LOOPBACK_SIZES: [usize; 4] = [64, 4096, 128 * 128 * 8, 1 << 20];
const LOOPBACK_REPS: usize = 20;

/// One distributed factorization and what it reported.
struct DistOp {
    a: TiledMatrix,
    factors: TFactors,
    report: DistReport,
    wall: f64,
}

/// Run ids are never reused within a process: workers reset on a new id.
fn next_run_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

fn dist_op(p: &Problem, fleet: &Fleet, id: u64, spans: &mut Spans) -> Result<DistOp, String> {
    let addrs = fleet.addrs();
    let cfg = DistConfig { run_id: next_run_id(), ..DistConfig::for_workers(addrs.len()) };
    let (res, wall) = spans.time("op", LAYER, Some(id), |_| {
        factorize(&addrs, &p.graph, &p.input, p.shape.ib_or_b(), &cfg)
    });
    let (a, factors, report) = res.map_err(|e| format!("op {id}: {e}"))?;
    // No worker may have been lost, and every task must be accounted for.
    if !report.recoveries.is_empty() {
        return Err(format!(
            "op {id}: {} worker recoveries in a fault-free run",
            report.recoveries.len()
        ));
    }
    let ran: u64 = report.tasks_by_worker.iter().sum();
    if ran != report.tasks_total as u64 {
        return Err(format!("op {id}: workers ran {ran} of {} tasks", report.tasks_total));
    }
    Ok(DistOp { a, factors, report, wall })
}

pub fn run(ctx: &mut Ctx) -> Result<Report, String> {
    let (args, effort, shape) = (ctx.args, ctx.args.effort(), ctx.args.shape());
    let setup = repeat_setup(ctx, |s| {
        s.time("spawn_local fleet", LAYER, None, |_| Fleet::spawn(THREADS)).0
    })?;
    let (p, fleet, spans) = (&setup.problem, &setup.backend, &mut ctx.spans);

    for i in 0..effort.warm_ops {
        spans.time("warm-up", "bench", None, |s| dist_op(p, fleet, i as u64, s)).0?;
    }

    let mut log = OpLog::default();
    let mut last = None;
    let mut rpc_retries = 0u64;
    timed_loop(&effort, &mut log, |i| {
        let op = dist_op(p, fleet, i, spans)?;
        rpc_retries += op.report.rpc_retries;
        let wall = op.wall;
        last = Some(op);
        Ok(wall)
    });
    let timed_wall: f64 = log.walls.iter().sum();
    let peak_rss_mb = sysinfo::peak_rss_mb(std::process::id()).unwrap_or(0.0);

    // The serial reference is also the work bound of `net.bound_work_s`.
    let reference_reps = if args.traced { effort.reference_reps } else { 1 };
    let (a_ref, f_ref, serial_seconds) = serial_reference(p, reference_reps, spans);
    if let (0, Some(op)) = (log.failed, &last) {
        let out = Factored { a: &op.a, factors: &op.factors };
        let reference = Factored { a: &a_ref, factors: &f_ref };
        let check = spans
            .time("verify", "bench", None, |_| verify(&p.input, &out, &reference, args.seed))
            .0;
        if let Err(why) = check {
            log.fail_verification(why);
        }
    }

    let mut layers = Metrics::default();
    let mut samples = vec![("serial_s".to_string(), serial_seconds.clone())];
    if let (true, 0, Some(op)) = (args.traced, log.failed, &last) {
        record_stage_metrics(&mut layers, &setup.stages, p);
        record_kernel_metrics(&mut layers, &shape, effort.kernel_calls, spans);

        let report = &op.report;
        let op_p50 = median(&log.walls);
        let by_worker = &report.tasks_by_worker;
        let mean_tasks = report.tasks_total as f64 / by_worker.len() as f64;
        let link = spans
            .time("measure_loopback", LAYER, None, |_| {
                measure_loopback(&LOOPBACK_SIZES, LOOPBACK_REPS)
            })
            .0
            .map_err(|e| format!("measure_loopback: {e}"))?;
        let bound_work = median(&serial_seconds) / THREADS as f64;
        layers.set("net.transfers", report.transfers as f64);
        layers.set("net.floats_moved", report.floats_moved as f64);
        layers.set("net.rpc_retries", rpc_retries as f64);
        layers.set(
            "net.task_imbalance",
            by_worker.iter().copied().max().unwrap_or(0) as f64 / mean_tasks,
        );
        layers.set("net.link_latency_us", link.latency * 1e6);
        layers.set("net.link_bandwidth_mbs", link.bandwidth / 1e6);
        layers.set(
            "net.wire_bound_s",
            report.transfers as f64 * link.latency
                + report.floats_moved as f64 * 8.0 / link.bandwidth,
        );
        layers.set("net.bound_work_s", bound_work);
        layers.set("net.overhead_s", op_p50 - bound_work);

        // The same graph on a one-worker fleet: relay without parallelism.
        let single = Fleet::spawn(1)?;
        let mut single_walls = Vec::new();
        for i in 0..effort.reference_reps {
            let (op, _) =
                spans.time("single-worker op", "bench", None, |s| dist_op(p, &single, i as u64, s));
            single_walls.push(op?.wall);
        }
        layers.set("net.single_worker_s", median(&single_walls));
        samples.push(("single_worker_s".to_string(), single_walls));
    }

    Ok(Report {
        log,
        timed_wall,
        setup_seconds: setup.seconds.clone(),
        peak_rss_mb,
        layers,
        samples,
        warm_ops: effort.warm_ops,
        tmp_fs: None,
    })
}
