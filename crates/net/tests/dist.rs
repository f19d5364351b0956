//! End-to-end distributed factorization tests: one interleaving of worker
//! loss, recovery out of recycled buffers, message counts, typed refusals
//! and the progress poll's false-positive safety — all against real TCP
//! workers on loopback. (Bitwise parity over generated trees, fleets, kill
//! points and RPC drops and delays is checked by the root package's
//! `tests/oracle.rs`.)

use hqr::baselines;
use hqr_net::{
    factorize, shutdown_workers, spawn_local, DistConfig, DistReport, NetError, WorkerOptions,
};
use hqr_runtime::task::SlotFamily;
use hqr_runtime::{
    execute_serial, ElimOp, FaultPlan, SdcFault, SdcPattern, Slot, TFactors, Task, TaskGraph,
};
use hqr_tile::TiledMatrix;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::time::Duration;

fn random_elims(mt: usize, nt: usize, seed: u64) -> Vec<ElimOp> {
    let mut rng = SmallRng::seed_from_u64(seed);
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

fn test_config(n: usize) -> DistConfig {
    let mut cfg = DistConfig::for_workers(n);
    cfg.rpc_timeout = Duration::from_secs(2);
    cfg.stall_timeout = Duration::from_secs(30);
    cfg
}

/// Spawn workers with the given options, factorize, shut the fleet down.
fn dist_run(
    opts: &[WorkerOptions],
    graph: &TaskGraph,
    input: &TiledMatrix,
    cfg: &DistConfig,
) -> (TiledMatrix, TFactors, DistReport) {
    let workers: Vec<_> = opts.iter().map(|&o| spawn_local(o).expect("spawn worker")).collect();
    let addrs: Vec<SocketAddr> = workers.iter().map(|w| w.addr).collect();
    let result = factorize(&addrs, graph, input, graph.b(), cfg);
    shutdown_workers(&addrs);
    for w in workers {
        let _ = w.join();
    }
    result.expect("distributed factorization")
}

fn assert_bitwise_parity(
    graph: &TaskGraph,
    input: &TiledMatrix,
    got_a: &TiledMatrix,
    got_f: &TFactors,
    context: &str,
) {
    let mut reference = input.clone();
    let ref_f = execute_serial(graph, &mut reference);
    let (d_ref, d_got) = (reference.to_dense(), got_a.to_dense());
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(d_ref.data()), bits(d_got.data()), "{context}: matrix diverged");
    assert!(ref_f.bitwise_eq(got_f), "{context}: T factors diverged");
}

/// A push replaces the receiver's copy of a slot in place, so a producer
/// that dies between its push and its report must still count as having
/// run, or recovery runs its task again on that task's own output. The
/// A(0,1) chain of a flat tree on a 2 x 1 grid is UNMQR (worker 0) ->
/// TTMQR of row 1 (worker 1) -> TTMQR of row 2 (worker 0). Worker 1 dies
/// right after its TTMQR and the push of it, which the 4 ms completion
/// poll all but never sees, while worker 0, at 150 ms a task, is still two
/// tasks short of its own TTMQR when the halt reaches it.
#[test]
fn producer_killed_between_its_push_and_its_report_recovers_bitwise() {
    let (mt, nt, b) = (3, 2, 4);
    let flat =
        [ElimOp::new(0, 1, 0, false), ElimOp::new(0, 2, 0, false), ElimOp::new(1, 2, 1, false)];
    let graph = TaskGraph::build(mt, nt, b, &flat);
    let grid = hqr_tile::ProcessGrid::new(2, 1);
    let tasks = graph.tasks();
    let pushed = tasks.iter().position(|t| *t == Task::update(0, 1, 0, 1, false)).expect("TTMQR");
    assert_eq!(
        (owner(&tasks[pushed], grid), tasks[pushed].writes()[0]),
        (1, (SlotFamily::A, 0, 1))
    );
    // Worker 1 runs its tasks up to that one in program order (each waits
    // on the one before, or on worker 0), and the next is ready at once.
    let kill_point = tasks[..=pushed].iter().filter(|t| owner(t, grid) == 1).count() as u64;
    let input = TiledMatrix::random(mt, nt, b, 91);
    let mut cfg = test_config(2);
    cfg.grid = grid;
    let opts = [
        WorkerOptions {
            die_after_tasks: None,
            die_hard: false,
            slow_task_ms: 150,
            ..Default::default()
        },
        WorkerOptions {
            die_after_tasks: Some(kill_point),
            die_hard: false,
            slow_task_ms: 0,
            ..Default::default()
        },
    ];
    let (a, f, report) = dist_run(&opts, &graph, &input, &cfg);
    assert_bitwise_parity(&graph, &input, &a, &f, "producer killed after its push");
    assert!(report.recoveries.iter().any(|r| r.worker == 1), "{:?}", report.recoveries);
}

/// A kernel panic on a worker: the chaos hook panics inside the attempt
/// of a task the worker owns. The attempt catches it and fails the
/// worker's run, the coordinator's next progress poll reads the failure
/// and condemns the worker, and the survivor finishes the run bitwise
/// equal to `execute_serial`.
#[test]
fn a_kernel_panic_on_a_worker_is_recovered_bitwise() {
    let (mt, nt, b) = (6, 3, 4);
    let graph = TaskGraph::build(mt, nt, b, &random_elims(mt, nt, 46));
    let input = TiledMatrix::random(mt, nt, b, 47);
    let cfg = test_config(2);
    let on_1 = |t: &&Task| owner(t, cfg.grid) == 1 && t.k == 1;
    let t = graph.tasks().iter().position(|t| on_1(&t)).expect("a task of worker 1") as u64;
    let opts =
        [WorkerOptions::default(), WorkerOptions { panic_on_task: Some(t), ..Default::default() }];
    let (a, f, report) = dist_run(&opts, &graph, &input, &cfg);
    assert_bitwise_parity(&graph, &input, &a, &f, "a kernel panic on worker 1");
    assert_eq!(report.recoveries.len(), 1, "{:?}", report.recoveries);
    let lost = &report.recoveries[0];
    assert_eq!(lost.worker, 1);
    assert!(lost.reason.contains(&format!("task {t}")), "{}", lost.reason);
}

/// The coordinator injects RPC drops and delays only: the engine's task
/// kinds and the simulator's crash and degrade kinds are typed config
/// errors, returned before any worker is dialed.
#[test]
fn coordinator_refuses_faults_it_cannot_inject() {
    let graph = TaskGraph::build(2, 2, 4, &random_elims(2, 2, 5));
    let input = TiledMatrix::random(2, 2, 4, 6);
    let sdc = SdcFault { slot: 0, element: 0, pattern: SdcPattern::Scale };
    let rows = [
        ("fail", FaultPlan::new(1).fail_task(0, 1)),
        ("poison", FaultPlan::new(1).poison_worker(0)),
        ("lost completion", FaultPlan::new(1).lose_completion(0)),
        ("corrupt", FaultPlan::new(1).corrupt_task(0, sdc)),
        ("crash", FaultPlan::new(1).crash_node(0, 0.0)),
        ("degrade", FaultPlan::new(1).degrade_link(0.0, 0.5, 2.0)),
    ];
    // Nothing listens here; the refusal comes first.
    let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
    for (what, plan) in rows {
        let cfg = DistConfig { fault: plan.drop_rpcs(0.1), ..test_config(1) };
        match factorize(&[addr], &graph, &input, 4, &cfg) {
            Err(NetError::Config(message)) => {
                assert!(message.starts_with("the coordinator cannot inject"), "{what}: {message}")
            }
            other => panic!("{what}: expected a config error, got {:?}", other.err()),
        }
    }
}

/// Liveness is the `Completed` poll, answered on the connection's own
/// thread: tasks that outlast the RPC deadline condemn nobody.
#[test]
fn progress_polls_do_not_condemn_slow_but_alive_workers() {
    let (mt, nt, b) = (3, 2, 4);
    let graph = TaskGraph::build(mt, nt, b, &random_elims(mt, nt, 31));
    let input = TiledMatrix::random(mt, nt, b, 32);
    let mut cfg = test_config(2);
    // Tasks take 300 ms; a poll must be answered within 100 ms, first try.
    // If a running kernel blocked the poll, its worker would be condemned.
    cfg.rpc_timeout = Duration::from_millis(100);
    cfg.retry.max_attempts = 1;
    let slow = WorkerOptions {
        die_after_tasks: None,
        die_hard: false,
        slow_task_ms: 300,
        ..Default::default()
    };
    let (a, f, report) = dist_run(&[slow; 2], &graph, &input, &cfg);
    assert_bitwise_parity(&graph, &input, &a, &f, "slow workers");
    assert!(
        report.recoveries.is_empty(),
        "slow-but-alive workers were condemned: {:?}",
        report.recoveries
    );
}

#[test]
fn report_accounts_for_transfers_and_elapsed() {
    let (mt, nt, b) = (4, 2, 4);
    let graph = TaskGraph::build(mt, nt, b, &random_elims(mt, nt, 41));
    let input = TiledMatrix::random(mt, nt, b, 40);
    let cfg = test_config(2);
    let (_, _, report) = dist_run(&[WorkerOptions::default(); 2], &graph, &input, &cfg);
    // At least the scatter (mt*nt tiles) and the gather moved data.
    assert!(report.transfers >= (mt * nt) as u64);
    assert!(report.floats_moved >= (mt * nt * b * b) as u64);
    assert!(report.elapsed > Duration::ZERO);
}

/// At b = 1 a V copy holds no double: its slot is still pushed, with an
/// empty payload, and the run matches the serial one. The gather carries
/// every written slot but the V copies.
#[test]
fn one_by_one_tiles_cross_the_wire_with_empty_v_copies() {
    let (mt, nt, b) = (5, 3, 1);
    let graph = TaskGraph::build(mt, nt, b, &random_elims(mt, nt, 43));
    let input = TiledMatrix::random(mt, nt, b, 44);
    let (a, f, report) = dist_run(&[WorkerOptions::default(); 2], &graph, &input, &test_config(2));
    assert_bitwise_parity(&graph, &input, &a, &f, "b = 1");
    assert_eq!(f.tg(0, 0).map(<[f64]>::len), Some(1));
    let gathered = written_slots(&graph).into_iter().filter(|s| s.0 != SlotFamily::Vg);
    let gathered: u64 = gathered.map(|s| gathered_len(s, b)).sum();
    assert_eq!(report.coordinator_floats, (mt * nt) as u64 + gathered);
}

/// Doubles a gather carries for `slot`: a tile, or a T slot's τ.
fn gathered_len((fam, ..): Slot, b: usize) -> u64 {
    match fam {
        SlotFamily::A => fam.slot_len(b, b) as u64,
        _ => hqr_kernels::tau_len(b) as u64,
    }
}

/// Grid rank (= worker, on a fault-free run) that executes `t`.
fn owner(t: &Task, grid: hqr_tile::ProcessGrid) -> usize {
    let (i, j) = t.affinity_tile();
    hqr_tile::Layout::Cyclic2D(grid).owner(i, j)
}

/// Every slot some task writes.
fn written_slots(graph: &TaskGraph) -> HashSet<Slot> {
    graph.tasks().iter().flat_map(|t| t.writes()).collect()
}

/// The inter-node message count of a tree under a layout, from the graph
/// and the layout alone: distinct (producer task, other worker that owns
/// one of its successors) pairs.
fn cross_worker_messages(graph: &TaskGraph, grid: hqr_tile::ProcessGrid) -> u64 {
    let tasks = graph.tasks();
    let mut pairs = HashSet::new();
    for (t, task) in tasks.iter().enumerate() {
        for &s in graph.successors(t) {
            let dest = owner(&tasks[s as usize], grid);
            if dest != owner(task, grid) {
                pairs.insert((t, dest));
            }
        }
    }
    pairs.len() as u64
}

/// What the push rule rests on, asserted rather than assumed: the graph has
/// only last-writer edges, so (a) every edge must carry at least one slot
/// the producer wrote and the consumer touches — there is no edge a bare
/// completion notice would have to travel on — and (b) no slot is written
/// after a task has read it without writing it, so a consumer can never
/// find a later version than the one it was sent (`Vg` is the copy made
/// for exactly that purpose).
#[test]
fn every_edge_carries_data_and_no_read_slot_is_rewritten() {
    let grid = hqr_tile::ProcessGrid::new(2, 2);
    let mut graphs = vec![
        TaskGraph::build(6, 4, 2, &random_elims(6, 4, 61)),
        TaskGraph::build(7, 3, 2, &random_elims(7, 3, 62)),
    ];
    for setup in [baselines::hqr_tall_skinny(12, 3, grid), baselines::hqr_square(6, 6, grid)] {
        graphs.push(TaskGraph::build(setup.elims.mt(), setup.elims.nt(), 2, &setup.elims.to_ops()));
    }
    graphs.push(TaskGraph::build(8, 3, 2, &baselines::bbd10(8, 3, grid).elims.to_ops()));
    for graph in &graphs {
        let tasks = graph.tasks();
        let mut read_only: HashSet<Slot> = HashSet::new();
        for (t, task) in tasks.iter().enumerate() {
            for s in task.writes() {
                assert!(!read_only.contains(&s), "{} rewrites {s:?} after a reader", task.label());
            }
            read_only.extend(task.reads());
            for &succ in graph.successors(t) {
                let next = &tasks[succ as usize];
                let touched = [next.reads(), next.writes()].concat();
                assert!(
                    task.writes().iter().any(|s| touched.contains(s)),
                    "edge {} -> {} carries no slot",
                    task.label(),
                    next.label()
                );
            }
        }
    }
}

/// The paper's message counts as an executable check: on a fault-free run
/// the workers push exactly one frame per (producer task, consuming worker)
/// pair of the graph under the layout, and the coordinator moves the
/// scatter and the gather (no V copy) and not one double more.
#[test]
fn peer_transfers_are_the_cross_worker_edges_and_the_coordinator_relays_nothing() {
    let (mt, nt, b) = (8, 4, 4);
    for (p, q) in [(1, 2), (2, 2), (4, 1)] {
        let grid = hqr_tile::ProcessGrid::new(p, q);
        let setup = baselines::hqr_tall_skinny(mt, nt, grid);
        let graph = TaskGraph::build(mt, nt, b, &setup.elims.to_ops());
        let input = TiledMatrix::random(mt, nt, b, 70 + p as u64);
        let mut cfg = test_config(p * q);
        cfg.grid = grid;
        let (a, f, report) = dist_run(&vec![WorkerOptions::default(); p * q], &graph, &input, &cfg);
        assert_bitwise_parity(&graph, &input, &a, &f, &format!("{p}x{q} fleet"));
        assert!(report.recoveries.is_empty(), "{p}x{q}: {:?}", report.recoveries);
        // The gather brings back every written slot but the V copies, which
        // stay run scratch (V is in the factored tiles).
        let gather: Vec<Slot> =
            written_slots(&graph).into_iter().filter(|s| s.0 != SlotFamily::Vg).collect();
        let scatter = (mt * nt) as u64;
        // A tile is gathered as its b² doubles, a T slot as its τ.
        let gathered: u64 = gather.iter().map(|&s| gathered_len(s, b)).sum();
        let gather = gather.len() as u64;
        assert_eq!(report.peer_transfers, cross_worker_messages(&graph, grid), "{p}x{q}");
        assert_eq!(report.coordinator_floats, scatter * (b * b) as u64 + gathered, "{p}x{q}");
        assert_eq!(report.transfers, scatter + gather + report.peer_transfers, "{p}x{q}");
        assert!(report.floats_moved > report.coordinator_floats, "{p}x{q}: pushes carry data");
    }
}

/// PAPER.md §IV-A on real processes: on a tall matrix over a 4 x 1 grid the
/// hierarchical tree crosses workers no more often than the flat tree of
/// [BBD+10]. (The three counts, with [SLHD10]'s tree on the same layout,
/// are in EXPERIMENTS.md "Owner-computes `dist`".)
#[test]
fn hqr_moves_no_more_peer_messages_than_the_flat_tree() {
    let (mt, nt, b) = (16, 2, 4);
    let grid = hqr_tile::ProcessGrid::new(4, 1);
    let mut counts = Vec::new();
    for setup in [
        baselines::hqr_tall_skinny(mt, nt, grid),
        baselines::bbd10(mt, nt, grid),
        baselines::slhd10(mt, nt, 4),
    ] {
        let graph = TaskGraph::build(mt, nt, b, &setup.elims.to_ops());
        let input = TiledMatrix::random(mt, nt, b, 80);
        let mut cfg = test_config(4);
        cfg.grid = grid;
        let (a, f, report) = dist_run(&[WorkerOptions::default(); 4], &graph, &input, &cfg);
        assert_bitwise_parity(&graph, &input, &a, &f, &setup.name);
        assert!(report.recoveries.is_empty(), "{:?}", report.recoveries);
        assert_eq!(report.peer_transfers, cross_worker_messages(&graph, grid), "{}", setup.name);
        println!("{:>40}: {} peer messages", setup.name, report.peer_transfers);
        counts.push(report.peer_transfers);
    }
    assert!(counts[0] <= counts[1], "HQR {} > [BBD+10] {}", counts[0], counts[1]);
}

/// Recovery out of recycled buffers: worker 1 serves a first run whole, so
/// its shard goes back to its pool at the next `Hello`, and its kill point
/// falls inside the second, larger run. The survivor's recovery placements
/// and re-pushes land in pooled buffers, and both runs are still bitwise.
#[test]
fn a_kill_point_in_a_second_run_recovers_bitwise_from_pooled_buffers() {
    let grid = DistConfig::for_workers(2).grid;
    let small = TaskGraph::build(4, 2, 4, &random_elims(4, 2, 81));
    let large = TaskGraph::build(6, 4, 4, &random_elims(6, 4, 82));
    let on_victim = |g: &TaskGraph| g.tasks().iter().filter(|t| owner(t, grid) == 1).count() as u64;
    let kill_point = on_victim(&small);
    assert!(on_victim(&large) > kill_point + 1, "the second run must reach the kill point");
    let victim = WorkerOptions {
        die_after_tasks: Some(kill_point),
        die_hard: false,
        slow_task_ms: 0,
        ..Default::default()
    };
    let workers = [spawn_local(WorkerOptions::default()).unwrap(), spawn_local(victim).unwrap()];
    let addrs: Vec<SocketAddr> = workers.iter().map(|w| w.addr).collect();
    let mut reports = Vec::new();
    for (run_id, graph) in [(1, &small), (2, &large)] {
        let input = TiledMatrix::random(graph.mt(), graph.nt(), 4, 90 + run_id);
        let cfg = DistConfig { run_id, ..test_config(2) };
        let (a, f, report) = factorize(&addrs, graph, &input, 4, &cfg).expect("factorize");
        assert_bitwise_parity(graph, &input, &a, &f, &format!("run {run_id}"));
        reports.push(report);
    }
    shutdown_workers(&addrs);
    for w in workers {
        let _ = w.join();
    }
    assert!(reports[0].recoveries.is_empty(), "run 1: {:?}", reports[0].recoveries);
    assert!(reports[1].recoveries.iter().any(|r| r.worker == 1), "run 2: {:?}", reports[1]);
}
