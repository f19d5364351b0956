//! Property-based tests of the discrete-event simulator: fundamental
//! scheduling bounds must hold for arbitrary DAGs, layouts and platforms.

use hqr_runtime::{ElimOp, TaskGraph};
use hqr_sim::{simulate_with, Platform, SchedPolicy, SimOptions, SimReport};
use hqr_tile::{Layout, ProcessGrid};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// A fault-free run under `policy`.
fn run(g: &TaskGraph, lay: &Layout, p: &Platform, policy: SchedPolicy) -> SimReport {
    simulate_with(g, lay, p, &SimOptions { policy, ..Default::default() }).unwrap()
}

fn random_elims(mt: usize, nt: usize, seed: u64) -> Vec<ElimOp> {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for k in 0..mt.min(nt) {
        let mut alive: Vec<u32> = (k as u32..mt as u32).collect();
        while alive.len() > 1 {
            let vpos = rng.gen_range(1..alive.len());
            let upos = rng.gen_range(0..vpos);
            out.push(ElimOp::new(k as u32, alive[vpos], alive[upos], false));
            alive.remove(vpos);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Work and critical-path lower bounds, serial upper bound; all tasks
    /// complete; busy time equals total kernel time.
    #[test]
    fn fundamental_scheduling_bounds(
        mt in 1usize..10, nt in 1usize..5, seed in any::<u64>(),
        p in 1usize..4, q in 1usize..3, cores in 1usize..5,
        policy_sel in 0usize..3,
    ) {
        let b = 24usize;
        let elims = random_elims(mt, nt, seed);
        let g = TaskGraph::build(mt, nt, b, &elims);
        let platform = Platform { nodes: p * q, cores_per_node: cores, ..Platform::edel() };
        let layout = Layout::Cyclic2D(ProcessGrid::new(p, q));
        let policy = [SchedPolicy::PanelFirst, SchedPolicy::Fifo, SchedPolicy::CriticalPath][policy_sel];
        let r = run(&g, &layout, &platform, policy);
        let total: f64 = g.tasks().iter().map(|t| platform.kernel_seconds(t.kind, b)).sum();
        let total_cores = (p * q * cores) as f64;
        prop_assert!(r.makespan >= total / total_cores - 1e-9, "work bound violated");
        // Communication can make things slower than serial-no-comm, but the
        // busy-time identity must hold exactly.
        prop_assert!((r.node_busy.iter().sum::<f64>() - total).abs() < 1e-6);
        prop_assert!(r.gflops > 0.0);
        let util = r.utilization(&platform);
        prop_assert!(util > 0.0 && util <= 1.0 + 1e-9);
    }

    /// A free network (zero latency, infinite bandwidth) can never be
    /// slower than a costly one.
    #[test]
    fn faster_network_never_hurts(mt in 2usize..10, nt in 1usize..4, seed in any::<u64>()) {
        let b = 24usize;
        let elims = random_elims(mt, nt, seed);
        let g = TaskGraph::build(mt, nt, b, &elims);
        let layout = Layout::cyclic_rows(3);
        let base = Platform { nodes: 3, cores_per_node: 2, ..Platform::edel() };
        let free = Platform {
            link: hqr_sim::LinkModel { latency: 0.0, bandwidth: f64::INFINITY, overhead: 0.0 },
            ..base
        };
        let r_slow = run(&g, &layout, &base, SchedPolicy::PanelFirst);
        let r_fast = run(&g, &layout, &free, SchedPolicy::PanelFirst);
        prop_assert!(r_fast.makespan <= r_slow.makespan + 1e-12);
        prop_assert_eq!(r_fast.messages, r_slow.messages, "same DAG, same message structure");
    }

    /// Single node ⇒ no messages, regardless of the DAG.
    #[test]
    fn single_node_no_messages(mt in 1usize..10, nt in 1usize..4, seed in any::<u64>()) {
        let elims = random_elims(mt, nt, seed);
        let g = TaskGraph::build(mt, nt, 16, &elims);
        let platform = Platform { nodes: 1, cores_per_node: 4, ..Platform::edel() };
        let r = run(&g, &Layout::Single, &platform, SchedPolicy::PanelFirst);
        prop_assert_eq!(r.messages, 0);
        prop_assert_eq!(r.bytes, 0.0);
    }
}
