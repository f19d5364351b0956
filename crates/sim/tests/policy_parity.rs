//! Runtime-vs-simulator scheduling parity: both backends must rank every
//! task identically under every shared [`SchedPolicy`]. The critical-path
//! ranks are additionally checked against an upward-rank reference
//! recomputed independently here, so the parity test has teeth even though
//! the two backends share the key computation.

mod support;

use hqr_runtime::sched::priorities;
use hqr_runtime::{ElimOp, SchedPolicy, TaskGraph};
use hqr_sim::priority_ranks;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use support::{binary_elims, flat_elims};

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

fn graphs_under_test() -> Vec<TaskGraph> {
    let mut gs = vec![
        TaskGraph::build(16, 4, 3, &flat_elims(16, 4)),
        TaskGraph::build(12, 3, 3, &binary_elims(12, 3)),
    ];
    for seed in [7u64, 1234, 0xDEADBEEF] {
        gs.push(TaskGraph::build(9, 4, 3, &random_elims(9, 4, seed)));
    }
    gs
}

#[test]
fn runtime_and_sim_rank_tasks_identically_under_every_policy() {
    for g in graphs_under_test() {
        for policy in SchedPolicy::ALL {
            let rt = priorities(&g, policy);
            let sim = priority_ranks(&g, policy);
            assert_eq!(rt, sim, "{policy:?}: backends disagree on priority ranks");
        }
    }
}

#[test]
fn critical_path_ranks_match_an_independent_reference() {
    for g in graphs_under_test() {
        let keys = priority_ranks(&g, SchedPolicy::CriticalPath);
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

#[test]
fn critical_path_order_agrees_between_backends() {
    // Beyond equal keys: the induced execution *order* (sort by key, then
    // task id — exactly how both min-ordered queues break ties) matches.
    for g in graphs_under_test() {
        for policy in SchedPolicy::ALL {
            let order_of = |keys: &[u64]| {
                let mut idx: Vec<u32> = (0..keys.len() as u32).collect();
                idx.sort_by_key(|&t| (keys[t as usize], t));
                idx
            };
            let rt = order_of(&priorities(&g, policy));
            let sim = order_of(&priority_ranks(&g, policy));
            assert_eq!(rt, sim, "{policy:?}: induced ready order differs");
        }
    }
}
