//! What the runtime's integration tests share: the flat and binary
//! elimination lists, and a mid-run checkpoint taken by the pool the way
//! every checkpoint is. Each test binary uses some of it.
#![allow(dead_code)]

use std::path::Path;
use std::time::{Duration, Instant};

use hqr_runtime::{
    read_checkpoint, Checkpoint, DurabilityConfig, ElimOp, FaultPlan, JobPool, JobSpec, JobState,
    PoolConfig, TaskGraph, CKPT_DIR,
};
use hqr_tile::TiledMatrix;

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

/// The tasks that can complete while `stall` cannot: all but `stall` and
/// its descendants (program order is topological, so one forward pass).
fn settled_before(graph: &TaskGraph, stall: u32) -> usize {
    let mut blocked = vec![false; graph.tasks().len()];
    blocked[stall as usize] = true;
    for t in stall as usize..blocked.len() {
        if blocked[t] {
            for &s in graph.successors(t) {
                blocked[s as usize] = true;
            }
        }
    }
    blocked.iter().filter(|&&b| !b).count()
}

/// A mid-run checkpoint, taken the one way there is: a durable pool
/// suspends a job stalled on task `stall` once every task that does not
/// depend on it has completed, and reads back the `ckpt/job-N.ckpt` the
/// suspension wrote.
pub fn suspended_checkpoint(
    dir: &Path,
    elims: &[ElimOp],
    a: &TiledMatrix,
    ib: usize,
    stall: u32,
) -> Checkpoint {
    let graph = TaskGraph::build(a.mt(), a.nt(), a.b(), elims);
    let settled = settled_before(&graph, stall);
    let durability = Some(DurabilityConfig::at(dir));
    let pool = JobPool::new(PoolConfig { nthreads: 2, durability, ..PoolConfig::default() });
    let mut spec = JobSpec { ib: Some(ib), ..JobSpec::fresh(elims.to_vec(), a.clone()) };
    spec.plan = Some(FaultPlan::new(7).fail_task(stall, 1_000_000));
    spec.max_retries = 1_000_001;
    let id = pool.submit(spec).expect("submit");
    let deadline = Instant::now() + Duration::from_secs(60);
    let view = || pool.status(id).expect("known job");
    while view().tasks_done < settled {
        assert!(Instant::now() < deadline, "job never settled {settled} tasks: {:?}", view());
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(pool.suspend(id), "suspend accepted for a running job");
    while view().state != JobState::Suspended {
        assert!(Instant::now() < deadline, "job never parked: {:?}", view());
        std::thread::sleep(Duration::from_millis(2));
    }
    let ckpt = read_checkpoint(&dir.join(CKPT_DIR).join(format!("job-{}.ckpt", id.0)))
        .expect("the suspension wrote a readable checkpoint");
    pool.shutdown();
    assert_eq!(ckpt.completed_tasks(), settled, "the quiescent point is the stalled frontier");
    ckpt
}
