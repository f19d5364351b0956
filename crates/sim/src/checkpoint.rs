//! Checkpoint/restart cost model and recovery-policy comparison.
//!
//! The DES fault model (`crates/sim/src/des.rs`) implements *lineage
//! re-execution*: after a node crash, survivors recompute exactly the lost
//! producers whose outputs are still needed.  That is checkpoint-free but
//! its cost grows with how much finished work the crashed node was
//! holding.  The alternative is periodic *checkpoint/restart*: pay a write
//! cost `C` every interval `τ` of useful compute, and on a crash rewind
//! only to the last durable checkpoint.
//!
//! This module prices the second policy against the first **under the same
//! [`SimFaultPlan`]**: the lineage arm replays the plan through the full
//! DES, the checkpoint arm replays it through an analytic progress model
//! (compute at a rate proportional to surviving nodes, checkpoints every
//! `τ`, a crash discards progress since the last durable write and adds a
//! restart penalty).  [`young_daly_interval`] supplies the classical
//! near-optimal `τ* = √(2·C·MTBF)`, and [`recovery_crossover`] sweeps the
//! crash count to locate where checkpointing starts to win.

use hqr_runtime::fault::splitmix64;
use hqr_runtime::TaskGraph;
use hqr_tile::Layout;

use crate::des::{simulate, simulate_with_faults, SchedPolicy};
use crate::fault::{FaultOverhead, SimError, SimFaultPlan};
use crate::platform::Platform;

/// I/O cost parameters of the checkpointing subsystem.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CheckpointCostModel {
    /// Sustained checkpoint write bandwidth per node, bytes/s (each node
    /// writes its share of the tile store in parallel).
    pub io_bandwidth: f64,
    /// Fixed wall-clock cost of one restart: detecting the failure,
    /// re-spawning, and reading the checkpoint back (seconds).
    pub restart_overhead: f64,
}

impl Default for CheckpointCostModel {
    /// 1 GB/s per node to stable storage, half a second per restart.
    fn default() -> Self {
        CheckpointCostModel { io_bandwidth: 1e9, restart_overhead: 0.5 }
    }
}

impl CheckpointCostModel {
    /// Wall-clock seconds one checkpoint of an `mt × nt` tiled matrix of
    /// `b × b` tiles takes: tiles plus factor buffers (≈ 2× the tile
    /// store), striped across all nodes writing in parallel.
    pub fn checkpoint_seconds(&self, platform: &Platform, mt: usize, nt: usize, b: usize) -> f64 {
        let bytes = 2.0 * (mt * nt) as f64 * Platform::tile_bytes(b);
        bytes / (platform.nodes.max(1) as f64 * self.io_bandwidth)
    }
}

/// Young/Daly near-optimal checkpoint interval `τ* = √(2·C·MTBF)` for a
/// per-checkpoint cost `C` and a platform mean-time-between-failures.
pub fn young_daly_interval(checkpoint_cost: f64, mtbf: f64) -> f64 {
    (2.0 * checkpoint_cost.max(0.0) * mtbf.max(0.0)).sqrt()
}

/// The checkpoint/restart arm's replayed outcome.  The four cost
/// components partition the makespan exactly:
/// `makespan = compute + checkpoint + rework + restart` seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CheckpointOutcome {
    /// End-to-end wall-clock time under checkpoint/restart.
    pub makespan: f64,
    /// Durable checkpoints written.
    pub checkpoints_taken: usize,
    /// Wall seconds spent computing progress that survived.
    pub compute_seconds: f64,
    /// Wall seconds spent writing checkpoints (including writes a crash
    /// interrupted).
    pub checkpoint_seconds: f64,
    /// Wall seconds of computed progress a crash rolled back.
    pub rework_seconds: f64,
    /// Wall seconds of restart penalties.
    pub restart_seconds: f64,
}

/// Which recovery policy finished first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Checkpoint-free lineage re-execution (the DES fault model).
    Lineage,
    /// Periodic checkpoints with rollback on failure.
    CheckpointRestart,
}

/// Both recovery policies priced under the same fault plan.
#[derive(Clone, Debug)]
pub struct RecoveryComparison {
    /// Fault-free makespan (common baseline of both arms).
    pub baseline_makespan: f64,
    /// Makespan of the lineage (DES) arm.
    pub lineage_makespan: f64,
    /// Detailed lineage recovery costs.
    pub lineage: FaultOverhead,
    /// The checkpoint/restart arm.
    pub checkpoint: CheckpointOutcome,
    /// Checkpoint interval used (seconds of compute between writes).
    pub interval: f64,
    /// Cost of one checkpoint write (seconds).
    pub checkpoint_cost: f64,
}

impl RecoveryComparison {
    /// The policy with the smaller makespan (ties go to lineage, which
    /// needs no I/O infrastructure).
    pub fn winner(&self) -> RecoveryPolicy {
        if self.checkpoint.makespan < self.lineage_makespan {
            RecoveryPolicy::CheckpointRestart
        } else {
            RecoveryPolicy::Lineage
        }
    }
}

/// Analytic replay of a crash schedule under periodic checkpointing.
///
/// Progress accrues at a rate proportional to surviving nodes; every
/// `interval` seconds of compute a checkpoint costing `cost` seconds is
/// written; a crash rolls progress back to the last durable checkpoint
/// (work since then becomes rework, an interrupted write is wasted) and
/// adds `restart` seconds.  Crashes after completion are ignored.
fn replay_checkpointed(
    baseline: f64,
    nodes: usize,
    crash_times: &[f64],
    interval: f64,
    cost: f64,
    restart: f64,
) -> CheckpointOutcome {
    let mut crashes = crash_times.to_vec();
    crashes.sort_by(f64::total_cmp);
    let mut out = CheckpointOutcome::default();
    let mut t = 0.0f64; // wall clock
    let mut w = 0.0f64; // durable-progress in baseline seconds
    let mut wc = 0.0f64; // progress covered by the last durable checkpoint
    let mut computed_since_ckpt = 0.0f64; // wall seconds at risk
    let mut alive = nodes.max(1);
    let mut ci = 0usize;

    // A crash inside [t, t+len) interrupts the current phase; `lost_wall`
    // is how much of the phase's wall time is discarded as rework (compute
    // phases) or wasted write time (checkpoint phases).
    loop {
        let rate = alive as f64 / nodes.max(1) as f64;
        let compute_left = (baseline - w) / rate;
        if compute_left <= 1e-12 {
            break;
        }
        let phase = compute_left.min(interval - computed_since_ckpt.min(interval));
        let phase = phase.max(1e-12);
        // Compute phase.
        if let Some(&at) = crashes.get(ci).filter(|&&at| at < t + phase) {
            let ran = (at - t).max(0.0);
            out.rework_seconds += computed_since_ckpt + ran;
            out.restart_seconds += restart;
            w = wc;
            computed_since_ckpt = 0.0;
            t = at + restart;
            alive = alive.saturating_sub(1).max(1);
            ci += 1;
            continue;
        }
        t += phase;
        w += phase * rate;
        computed_since_ckpt += phase;
        out.compute_seconds += phase;
        if (baseline - w) / rate <= 1e-12 {
            break; // done — no trailing checkpoint needed
        }
        if computed_since_ckpt + 1e-12 < interval {
            continue;
        }
        // Checkpoint write phase.
        if let Some(&at) = crashes.get(ci).filter(|&&at| at < t + cost) {
            let wrote = (at - t).max(0.0);
            out.checkpoint_seconds += wrote; // wasted partial write
            out.rework_seconds += computed_since_ckpt;
            // The compute since the last durable write is lost with it.
            out.compute_seconds -= computed_since_ckpt;
            out.restart_seconds += restart;
            w = wc;
            computed_since_ckpt = 0.0;
            t = at + restart;
            alive = alive.saturating_sub(1).max(1);
            ci += 1;
            continue;
        }
        t += cost;
        wc = w;
        computed_since_ckpt = 0.0;
        out.checkpoints_taken += 1;
        out.checkpoint_seconds += cost;
    }
    // Rework accounted during compute phases was also added to
    // compute_seconds as it ran; move it out so the components partition
    // the makespan.
    out.compute_seconds = t - out.checkpoint_seconds - out.rework_seconds - out.restart_seconds;
    out.makespan = t;
    out
}

/// Price lineage re-execution against checkpoint/restart under the same
/// fault plan.
///
/// The lineage arm is the full DES ([`simulate_with_faults`]); the
/// checkpoint arm replays the same crash schedule through the analytic
/// model above.  `interval` overrides the checkpoint period; `None`
/// selects the Young/Daly interval for the plan's empirical MTBF
/// (`baseline / crashes`), clamped to at least one checkpoint cost.
pub fn compare_recovery_policies(
    graph: &TaskGraph,
    layout: &Layout,
    platform: &Platform,
    policy: SchedPolicy,
    plan: &SimFaultPlan,
    model: &CheckpointCostModel,
    interval: Option<f64>,
) -> Result<RecoveryComparison, SimError> {
    if !(model.io_bandwidth.is_finite() && model.io_bandwidth > 0.0) {
        return Err(SimError::Config {
            message: format!("io_bandwidth must be positive, got {}", model.io_bandwidth),
        });
    }
    if !(model.restart_overhead.is_finite() && model.restart_overhead >= 0.0) {
        return Err(SimError::Config {
            message: format!("restart_overhead must be >= 0, got {}", model.restart_overhead),
        });
    }
    plan.validate(platform.nodes)?;
    let lineage_report = simulate_with_faults(graph, layout, platform, policy, plan)?;
    let lineage = lineage_report.overhead.clone().unwrap_or_default();
    let baseline = if lineage.baseline_makespan > 0.0 {
        lineage.baseline_makespan
    } else {
        simulate(graph, layout, platform).makespan
    };

    let cost = model.checkpoint_seconds(platform, graph.mt(), graph.nt(), graph.b());
    let crash_times: Vec<f64> = plan.crashes().iter().map(|c| c.at).collect();
    let mtbf = if crash_times.is_empty() { baseline } else { baseline / crash_times.len() as f64 };
    let tau = interval.unwrap_or_else(|| young_daly_interval(cost, mtbf)).max(cost.max(1e-9));
    let checkpoint = replay_checkpointed(
        baseline,
        platform.nodes,
        &crash_times,
        tau,
        cost,
        model.restart_overhead,
    );
    Ok(RecoveryComparison {
        baseline_makespan: baseline,
        lineage_makespan: lineage_report.makespan,
        lineage,
        checkpoint,
        interval: tau,
        checkpoint_cost: cost,
    })
}

/// One point of the crash-rate sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CrossoverPoint {
    /// Crashes scheduled in this scenario.
    pub crashes: usize,
    /// Empirical crash rate, failures per baseline-makespan.
    pub crash_rate: f64,
    /// Lineage (DES) makespan.
    pub lineage_makespan: f64,
    /// Checkpoint/restart makespan.
    pub checkpoint_makespan: f64,
}

/// Sweep the expected crash count from 0 to `max_crashes` (capped at
/// `nodes - 1` so a survivor always remains), pricing both recovery
/// policies at each point.  For `k` crashes the plan schedules them
/// evenly at `i·T/(k+1)` on `k` distinct seed-chosen nodes, so the two
/// arms face identical fault schedules.
pub fn recovery_crossover(
    graph: &TaskGraph,
    layout: &Layout,
    platform: &Platform,
    policy: SchedPolicy,
    model: &CheckpointCostModel,
    seed: u64,
    max_crashes: usize,
) -> Result<Vec<CrossoverPoint>, SimError> {
    let baseline = simulate(graph, layout, platform).makespan;
    let cap = max_crashes.min(platform.nodes.saturating_sub(1));
    let mut points = Vec::with_capacity(cap + 1);
    for k in 0..=cap {
        let mut s = seed ^ (k as u64).wrapping_mul(0xA5A5_A5A5_A5A5_A5A5);
        let mut victims: Vec<usize> = Vec::with_capacity(k);
        while victims.len() < k {
            let node = (splitmix64(&mut s) % platform.nodes as u64) as usize;
            if !victims.contains(&node) {
                victims.push(node);
            }
        }
        let mut plan = SimFaultPlan::new();
        for (i, &node) in victims.iter().enumerate() {
            plan = plan.crash_node(node, (i + 1) as f64 * baseline / (k + 1) as f64);
        }
        let cmp = compare_recovery_policies(graph, layout, platform, policy, &plan, model, None)?;
        points.push(CrossoverPoint {
            crashes: k,
            crash_rate: k as f64 / baseline,
            lineage_makespan: cmp.lineage_makespan,
            checkpoint_makespan: cmp.checkpoint.makespan,
        });
    }
    Ok(points)
}

/// First sweep point where checkpoint/restart beats lineage, if any.
pub fn find_crossover(points: &[CrossoverPoint]) -> Option<&CrossoverPoint> {
    points.iter().find(|p| p.checkpoint_makespan < p.lineage_makespan)
}

/// One point of the service suspend-vs-scratch sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SuspendPoint {
    /// Daemon kills scheduled during this job's run.
    pub kills: usize,
    /// Empirical kill rate, failures per baseline-second.
    pub kill_rate: f64,
    /// Wall time when the job resumes from its last panel checkpoint.
    pub resume_makespan: f64,
    /// Wall time when every kill restarts the job from scratch.
    pub scratch_makespan: f64,
    /// Durable panel checkpoints the resume arm wrote.
    pub checkpoints_taken: usize,
}

/// Price the service's checkpoint-backed suspension against naive
/// restart-from-scratch under a kill-rate sweep.
///
/// This is the single-process analogue of [`recovery_crossover`] for the
/// `hqr serve` daemon: a job with fault-free wall time `baseline` seconds
/// is killed `k` times (evenly spaced), for `k` in `0..=max_kills`.  The
/// *resume* arm pays `ckpt_cost` seconds per periodic panel checkpoint
/// (every `interval` seconds of compute; `None` selects the Young/Daly
/// interval for the point's empirical MTBF) and rewinds only to the last
/// durable write; the *scratch* arm writes nothing and rewinds to zero.
/// Both arms pay `restart` seconds per kill (daemon restart + journal
/// replay + checkpoint reload).
pub fn suspend_vs_scratch_sweep(
    baseline: f64,
    ckpt_cost: f64,
    restart: f64,
    interval: Option<f64>,
    max_kills: usize,
) -> Result<Vec<SuspendPoint>, SimError> {
    if !(baseline.is_finite() && baseline > 0.0) {
        return Err(SimError::Config {
            message: format!("baseline must be positive, got {baseline}"),
        });
    }
    for (name, v) in [("ckpt_cost", ckpt_cost), ("restart", restart)] {
        if !(v.is_finite() && v >= 0.0) {
            return Err(SimError::Config { message: format!("{name} must be >= 0, got {v}") });
        }
    }
    if let Some(tau) = interval {
        if !(tau.is_finite() && tau > 0.0) {
            return Err(SimError::Config {
                message: format!("interval must be positive, got {tau}"),
            });
        }
    }
    let mut points = Vec::with_capacity(max_kills + 1);
    for k in 0..=max_kills {
        let kills: Vec<f64> = (1..=k).map(|i| i as f64 * baseline / (k + 1) as f64).collect();
        let mtbf = if k == 0 { baseline } else { baseline / k as f64 };
        let tau = interval
            .unwrap_or_else(|| young_daly_interval(ckpt_cost, mtbf))
            .max(ckpt_cost.max(1e-9));
        // Single process: a kill rolls work back but never degrades the
        // compute rate, so both arms replay on one "node".
        let resume = replay_checkpointed(baseline, 1, &kills, tau, ckpt_cost, restart);
        let scratch = replay_checkpointed(baseline, 1, &kills, f64::INFINITY, 0.0, restart);
        points.push(SuspendPoint {
            kills: k,
            kill_rate: k as f64 / baseline,
            resume_makespan: resume.makespan,
            scratch_makespan: scratch.makespan,
            checkpoints_taken: resume.checkpoints_taken,
        });
    }
    Ok(points)
}

/// First sweep point where checkpoint-backed resume beats restarting from
/// scratch, if any.
pub fn find_suspend_crossover(points: &[SuspendPoint]) -> Option<&SuspendPoint> {
    points.iter().find(|p| p.resume_makespan < p.scratch_makespan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqr_runtime::{ElimOp, TaskGraph};
    use hqr_tile::{Layout, ProcessGrid};

    fn flat_graph(mt: usize, nt: usize, b: usize) -> TaskGraph {
        let elims: Vec<ElimOp> = (0..mt.min(nt))
            .flat_map(|k| {
                ((k + 1)..mt).map(move |i| ElimOp::new(k as u32, i as u32, k as u32, true))
            })
            .collect();
        TaskGraph::build(mt, nt, b, &elims)
    }

    fn small_platform(nodes: usize) -> Platform {
        Platform { nodes, cores_per_node: 2, ..Platform::edel() }
    }

    #[test]
    fn young_daly_matches_closed_form_and_is_monotonic() {
        assert!((young_daly_interval(2.0, 25.0) - 10.0).abs() < 1e-12);
        assert!(young_daly_interval(2.0, 100.0) > young_daly_interval(2.0, 25.0));
        assert!(young_daly_interval(8.0, 25.0) > young_daly_interval(2.0, 25.0));
        assert_eq!(young_daly_interval(0.0, 25.0), 0.0);
    }

    #[test]
    fn checkpoint_cost_scales_with_tiles_and_inverse_bandwidth() {
        let m = CheckpointCostModel::default();
        let p = small_platform(4);
        let c1 = m.checkpoint_seconds(&p, 4, 4, 64);
        let c2 = m.checkpoint_seconds(&p, 8, 4, 64);
        assert!((c2 / c1 - 2.0).abs() < 1e-12, "double the tiles, double the cost");
        let slow = CheckpointCostModel { io_bandwidth: m.io_bandwidth / 4.0, ..m };
        assert!((slow.checkpoint_seconds(&p, 4, 4, 64) / c1 - 4.0).abs() < 1e-12);
        let wide = small_platform(8);
        assert!((m.checkpoint_seconds(&wide, 4, 4, 64) / c1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fault_free_plan_makes_lineage_win() {
        let g = flat_graph(6, 4, 64);
        let p = small_platform(4);
        let layout = Layout::Cyclic2D(ProcessGrid::new(2, 2));
        let cmp = compare_recovery_policies(
            &g,
            &layout,
            &p,
            SchedPolicy::PanelFirst,
            &SimFaultPlan::new(),
            &CheckpointCostModel::default(),
            None,
        )
        .unwrap();
        assert!((cmp.lineage_makespan - cmp.baseline_makespan).abs() < 1e-9);
        // The checkpoint arm pays write costs for nothing.
        assert!(cmp.checkpoint.makespan >= cmp.baseline_makespan);
        assert_eq!(cmp.winner(), RecoveryPolicy::Lineage);
        assert_eq!(cmp.checkpoint.rework_seconds, 0.0);
        assert_eq!(cmp.checkpoint.restart_seconds, 0.0);
    }

    #[test]
    fn checkpoint_components_partition_the_makespan() {
        let g = flat_graph(8, 4, 128);
        let p = small_platform(4);
        let layout = Layout::Cyclic2D(ProcessGrid::new(2, 2));
        let baseline = simulate(&g, &layout, &p).makespan;
        let plan = SimFaultPlan::new().crash_node(1, 0.3 * baseline).crash_node(2, 0.7 * baseline);
        let cmp = compare_recovery_policies(
            &g,
            &layout,
            &p,
            SchedPolicy::PanelFirst,
            &plan,
            &CheckpointCostModel::default(),
            None,
        )
        .unwrap();
        let c = &cmp.checkpoint;
        let sum = c.compute_seconds + c.checkpoint_seconds + c.rework_seconds + c.restart_seconds;
        assert!(
            (sum - c.makespan).abs() < 1e-9 * c.makespan.max(1.0),
            "components {sum} must partition makespan {}",
            c.makespan
        );
        assert!(c.makespan > baseline, "two crashes cannot be free");
        assert!(cmp.lineage_makespan > baseline);
        assert!(c.restart_seconds > 0.0);
    }

    #[test]
    fn crossover_sweep_is_well_formed() {
        let g = flat_graph(6, 3, 64);
        let p = small_platform(4);
        let layout = Layout::Cyclic2D(ProcessGrid::new(2, 2));
        let points = recovery_crossover(
            &g,
            &layout,
            &p,
            SchedPolicy::PanelFirst,
            &CheckpointCostModel::default(),
            42,
            6,
        )
        .unwrap();
        // Capped at nodes-1 crashes, plus the fault-free point.
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].crashes, 0);
        assert!(
            (points[0].lineage_makespan - points[0].checkpoint_makespan).abs()
                < points[0].lineage_makespan,
            "fault-free arms are comparable"
        );
        for w in points.windows(2) {
            assert!(w[1].crash_rate > w[0].crash_rate);
        }
        // At zero crashes lineage is never worse (no I/O cost).
        assert!(points[0].lineage_makespan <= points[0].checkpoint_makespan + 1e-12);
    }

    #[test]
    fn suspend_sweep_prices_both_arms() {
        let points = suspend_vs_scratch_sweep(100.0, 0.5, 1.0, None, 4).unwrap();
        assert_eq!(points.len(), 5);
        // Fault-free: scratch pays nothing, resume pays only checkpoint I/O.
        assert_eq!(points[0].kills, 0);
        assert!((points[0].scratch_makespan - 100.0).abs() < 1e-9);
        assert!(points[0].resume_makespan >= points[0].scratch_makespan);
        for w in points.windows(2) {
            assert!(w[1].kill_rate > w[0].kill_rate);
            // Scratch restarts lose strictly more work with every extra kill.
            assert!(w[1].scratch_makespan > w[0].scratch_makespan);
        }
        // With kills, the scratch arm reruns large prefixes; by 4 kills the
        // checkpointed arm must be winning for a cheap 0.5 s checkpoint.
        let last = points.last().unwrap();
        assert!(last.checkpoints_taken > 0);
        assert!(
            last.resume_makespan < last.scratch_makespan,
            "resume {} should beat scratch {} at 4 kills",
            last.resume_makespan,
            last.scratch_makespan
        );
        let cross = find_suspend_crossover(&points).expect("a crossover must exist");
        assert!(cross.kills >= 1);
    }

    #[test]
    fn suspend_sweep_scratch_arm_reruns_everything() {
        // One kill halfway with free restart: scratch pays exactly the lost
        // half, makespan = 0.5·T + T.
        let points = suspend_vs_scratch_sweep(10.0, 0.0, 0.0, Some(1.0), 1).unwrap();
        assert!((points[1].scratch_makespan - 15.0).abs() < 1e-9);
        // The resume arm with free 1 s-interval checkpoints loses < 1 s.
        assert!(points[1].resume_makespan <= 11.0 + 1e-9);
    }

    #[test]
    fn suspend_sweep_rejects_degenerate_inputs() {
        assert!(matches!(
            suspend_vs_scratch_sweep(0.0, 0.5, 1.0, None, 2),
            Err(SimError::Config { .. })
        ));
        assert!(matches!(
            suspend_vs_scratch_sweep(10.0, -1.0, 1.0, None, 2),
            Err(SimError::Config { .. })
        ));
        assert!(matches!(
            suspend_vs_scratch_sweep(10.0, 0.5, 1.0, Some(0.0), 2),
            Err(SimError::Config { .. })
        ));
    }

    #[test]
    fn degenerate_cost_model_is_rejected() {
        let g = flat_graph(4, 2, 64);
        let p = small_platform(2);
        let layout = Layout::Cyclic2D(ProcessGrid::new(2, 1));
        let bad = CheckpointCostModel { io_bandwidth: 0.0, ..Default::default() };
        match compare_recovery_policies(
            &g,
            &layout,
            &p,
            SchedPolicy::PanelFirst,
            &SimFaultPlan::new(),
            &bad,
            None,
        ) {
            Err(SimError::Config { .. }) => {}
            other => panic!("expected Config error, got {other:?}"),
        }
    }
}
