//! What the simulator's integration tests share: the flat and binary
//! elimination lists, and panel-first runs under a fault plan. Each test
//! binary uses some of it.
#![allow(dead_code)]

use hqr_runtime::{ElimOp, FaultPlan, TaskGraph};
use hqr_sim::{simulate_with, Platform, SimError, SimOptions, SimReport};
use hqr_tile::Layout;

/// A panel-first run under `plan`.
pub fn faulty(
    g: &TaskGraph,
    lay: &Layout,
    p: &Platform,
    plan: &FaultPlan,
) -> Result<SimReport, SimError> {
    simulate_with(g, lay, p, &SimOptions { plan: plan.clone(), ..Default::default() })
}

/// A traced panel-first run under `plan`.
pub fn traced(
    g: &TaskGraph,
    lay: &Layout,
    p: &Platform,
    plan: &FaultPlan,
) -> Result<SimReport, SimError> {
    simulate_with(g, lay, p, &SimOptions { plan: plan.clone(), trace: true, ..Default::default() })
}

/// Flat-tree elimination list (TS kernels): row k kills every row below it.
pub fn flat_elims(mt: usize, nt: usize) -> Vec<ElimOp> {
    let mut out = Vec::new();
    for k in 0..mt.min(nt) {
        for i in (k + 1)..mt {
            out.push(ElimOp::new(k as u32, i as u32, k as u32, true));
        }
    }
    out
}

/// Binary-tree elimination list (TT kernels): survivors pair up, level by
/// level, the lower row of each pair killed by the upper.
pub fn binary_elims(mt: usize, nt: usize) -> Vec<ElimOp> {
    let mut out = Vec::new();
    for k in 0..mt.min(nt) {
        let mut alive: Vec<u32> = (k as u32..mt as u32).collect();
        while alive.len() > 1 {
            let mut next = Vec::new();
            for pair in alive.chunks(2) {
                if let [a, b] = pair {
                    out.push(ElimOp::new(k as u32, *b, *a, false));
                }
                next.push(pair[0]);
            }
            alive = next;
        }
    }
    out
}
