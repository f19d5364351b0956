//! A long-lived fleet must not grow with the runs it has served. This is
//! a test binary of its own because it counts the process's descriptors,
//! which any test running beside it would move.

use hqr_net::{factorize, shutdown_workers, spawn_local, DistConfig, WorkerOptions};
use hqr_runtime::{ElimOp, TaskGraph};
use hqr_tile::TiledMatrix;
use std::time::{Duration, Instant};

/// Open descriptors of this process, once the count has held still for
/// 50 ms (a worker notices a hung-up connection on its own thread).
#[cfg(target_os = "linux")]
fn settled_descriptor_count() -> usize {
    let count = || std::fs::read_dir("/proc/self/fd").expect("/proc/self/fd").count();
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut last = count();
    loop {
        std::thread::sleep(Duration::from_millis(50));
        let now = count();
        if now == last || Instant::now() > deadline {
            return now;
        }
        last = now;
    }
}

/// Every connection a worker ever accepted used to leave a descriptor and
/// a join handle behind (6 -> 246 descriptors over 40 runs on two
/// workers), so an `hqr worker` died at the descriptor limit after ~170
/// runs. The count after 50 runs must be the count after 5.
#[test]
#[cfg(target_os = "linux")]
fn a_fleet_holds_no_descriptor_per_run_it_served() {
    let (mt, nt, b) = (4, 2, 4);
    let elims: Vec<ElimOp> = (0..nt as u32)
        .flat_map(|k| (k + 1..mt as u32).map(move |i| ElimOp::new(k, i, k, true)))
        .collect();
    let graph = TaskGraph::build(mt, nt, b, &elims);
    let input = TiledMatrix::random(mt, nt, b, 3);
    let workers: Vec<_> = (0..2).map(|_| spawn_local(WorkerOptions::default()).unwrap()).collect();
    let addrs: Vec<_> = workers.iter().map(|w| w.addr).collect();
    let mut run_id = 0;
    let mut runs = |n: usize| {
        for _ in 0..n {
            run_id += 1;
            let cfg = DistConfig { run_id, ..DistConfig::for_workers(2) };
            factorize(&addrs, &graph, &input, b, &cfg).expect("distributed factorization");
        }
        settled_descriptor_count()
    };
    let (after_5, after_50) = (runs(5), runs(45));
    shutdown_workers(&addrs);
    for w in workers {
        w.join().expect("worker thread");
    }
    assert_eq!(after_50, after_5, "descriptors grew with the runs served");
}
