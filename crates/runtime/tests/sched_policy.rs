//! Property-based tests of the shared scheduling-policy machinery
//! (`hqr_runtime::sched`) over randomly generated elimination lists: the
//! critical-path priority must be monotone along every DAG edge. (That the
//! executor stays bitwise-faithful to the serial run under every policy is
//! checked by the root package's `tests/oracle.rs`.) The critical-path
//! ranks are also checked against an upward rank recomputed independently
//! here. The simulator ranks through the engine's `Frontier`, so these are
//! its ranks too.

mod support;

use hqr_runtime::analysis::paths_to_exit;
use hqr_runtime::sched::{panel_first_key, priorities};
use hqr_runtime::{ElimOp, SchedPolicy, TaskGraph};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use support::{binary_elims, flat_elims};

/// Generate a random valid elimination list: per panel, repeatedly pick a
/// random alive non-top row as the victim and any alive row above it as
/// the killer (TT kernels, which are unconditionally valid).
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
        alive.shuffle(&mut rng);
    }
    out
}

/// Independent upward-rank reference: a from-scratch reverse sweep using
/// only the public graph API, not `hqr_runtime::analysis`.
fn reference_upward_rank(g: &TaskGraph) -> Vec<u64> {
    let n = g.tasks().len();
    let mut rank = vec![0u64; n];
    for t in (0..n).rev() {
        let best = g.successors(t).iter().map(|&s| rank[s as usize]).max().unwrap_or(0);
        rank[t] = best + g.tasks()[t].kind.weight();
    }
    rank
}

#[test]
fn critical_path_ranks_match_an_independent_reference() {
    let mut graphs = vec![
        TaskGraph::build(16, 4, 3, &flat_elims(16, 4)),
        TaskGraph::build(12, 3, 3, &binary_elims(12, 3)),
    ];
    for seed in [7u64, 1234, 0xDEADBEEF] {
        graphs.push(TaskGraph::build(9, 4, 3, &random_elims(9, 4, seed)));
    }
    for g in graphs {
        let keys = priorities(&g, SchedPolicy::CriticalPath);
        let reference = reference_upward_rank(&g);
        for (t, &k) in keys.iter().enumerate() {
            assert_eq!(
                u64::MAX - k,
                reference[t],
                "task {t}: shared key disagrees with the reference upward rank"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Critical-path priorities are monotone along every DAG edge: a
    /// task's upward rank exceeds each successor's by at least its own
    /// weight, so (in the min-ordered key space) a task never outranks
    /// its successor-path bound — predecessors always sort strictly
    /// before their successors.
    #[test]
    fn critical_path_priority_is_monotone_along_every_edge(
        mt in 2usize..12, nt in 1usize..6, seed in any::<u64>(),
    ) {
        let elims = random_elims(mt, nt, seed);
        let g = TaskGraph::build(mt, nt, 3, &elims);
        let up = paths_to_exit(&g);
        let keys = priorities(&g, SchedPolicy::CriticalPath);
        for (t, task) in g.tasks().iter().enumerate() {
            prop_assert_eq!(keys[t], u64::MAX - up[t]);
            for &s in g.successors(t) {
                let s = s as usize;
                prop_assert!(
                    up[t] >= up[s] + task.kind.weight(),
                    "rank({t})={} < rank({s})={} + w={}", up[t], up[s], task.kind.weight()
                );
                prop_assert!(keys[t] < keys[s], "edge {t}->{s} breaks key monotonicity");
            }
        }
        // The maximum upward rank is the DAG's critical-path weight.
        let cp = hqr_runtime::analysis::dag_stats(&g).critical_path_weight;
        prop_assert_eq!(up.iter().copied().max().unwrap_or(0), cp);
    }

    /// The panel-first key orders panels before anything else, and factor
    /// kernels before updates within a panel.
    #[test]
    fn panel_first_key_orders_panels_then_factors(
        mt in 2usize..10, nt in 1usize..5, seed in any::<u64>(),
    ) {
        let elims = random_elims(mt, nt, seed);
        let g = TaskGraph::build(mt, nt, 3, &elims);
        for a in g.tasks() {
            for b in g.tasks() {
                let earlier_panel = a.k < b.k;
                let factor_before_update =
                    a.k == b.k && a.kind.is_factor() && !b.kind.is_factor();
                if earlier_panel || factor_before_update {
                    prop_assert!(panel_first_key(a) < panel_first_key(b));
                }
            }
        }
    }
}
