//! Regression pins for the simulator calibration: the discrete-event
//! engine is deterministic, so these mini-scale scenario outputs must not
//! drift when the engine or the tree builders are refactored. If a change
//! *intends* to alter the model, update the pinned values and the
//! EXPERIMENTS.md narrative together.

use hqr::baselines;
use hqr_runtime::{ElimOp, FaultPlan, TaskGraph};
use hqr_sim::{simulate, simulate_with, Platform, SimOptions, SimReport};
use hqr_tile::{Layout, ProcessGrid};

fn run(setup: &baselines::AlgorithmSetup) -> SimReport {
    let p = Platform { nodes: 6, cores_per_node: 4, ..Platform::edel() };
    let g = TaskGraph::build(setup.elims.mt(), setup.elims.nt(), 40, &setup.elims.to_ops());
    simulate(&g, &setup.layout, &p)
}

fn assert_close(actual: f64, expected: f64, what: &str) {
    let rel = (actual - expected).abs() / expected.abs();
    assert!(rel < 1e-6, "{what}: {actual:.9e} drifted from pinned {expected:.9e}");
}

#[test]
fn pin_hqr_tall_skinny() {
    let r = run(&baselines::hqr_tall_skinny(96, 4, ProcessGrid::new(3, 2)));
    assert_close(r.makespan, 1.625835757e-3, "makespan");
    assert_close(r.gflops, 1.192477976e2, "gflops");
    assert_eq!(r.messages, 399);
}

#[test]
fn pin_bbd10_tall_skinny() {
    let r = run(&baselines::bbd10(96, 4, ProcessGrid::new(3, 2)));
    assert_close(r.makespan, 4.946620741e-3, "makespan");
    assert_close(r.gflops, 3.919389488e1, "gflops");
    assert_eq!(r.messages, 1225);
}

#[test]
fn pin_slhd10_tall_skinny() {
    let r = run(&baselines::slhd10(96, 4, 6));
    assert_close(r.makespan, 1.508026070e-3, "makespan");
    assert_close(r.gflops, 1.285636483e2, "gflops");
    assert_eq!(r.messages, 94);
}

#[test]
fn pin_hqr_square() {
    let r = run(&baselines::hqr_square(36, 36, ProcessGrid::new(3, 2)));
    assert_close(r.makespan, 2.567126315e-2, "makespan");
    assert_close(r.gflops, 1.550882781e2, "gflops");
    assert_eq!(r.messages, 2164);
}

#[test]
fn pinned_ranking_matches_paper_shape() {
    // The mini-scale ranking mirrors Figure 8's tall-skinny ordering.
    let grid = ProcessGrid::new(3, 2);
    let hqr = run(&baselines::hqr_tall_skinny(96, 4, grid)).gflops;
    let bbd = run(&baselines::bbd10(96, 4, grid)).gflops;
    assert!(hqr > 3.0 * bbd, "HQR {hqr:.0} vs BBD+10 {bbd:.0}");
}

fn flat_ops(mt: u32, nt: u32) -> Vec<ElimOp> {
    (0..mt.min(nt)).flat_map(|k| (k + 1..mt).map(move |i| ElimOp::new(k, i, k, true))).collect()
}

fn binary_ops(mt: u32, nt: u32) -> Vec<ElimOp> {
    let mut v = Vec::new();
    for k in 0..mt.min(nt) {
        let mut stride = 1;
        while k + stride < mt {
            let mut i = k;
            while i + stride < mt {
                v.push(ElimOp::new(k, i + stride, i, false));
                i += 2 * stride;
            }
            stride *= 2;
        }
    }
    v
}

/// One faulty run's pinned numbers: makespan bits, messages, bytes bits,
/// messages by kind, the fault-free makespan and the run's inflation over
/// it (bits), and the whole `FaultOverhead` (float fields as bits).
type CrashPin = (u64, usize, u64, [usize; 6], u64, u64, usize, usize, usize, u64, usize);

/// Node crashes and link faults on a flat and a binary DAG: lineage
/// recovery is deterministic, so every number of a faulty run is pinned
/// exactly, not just bounded.
#[test]
fn pin_crash_recovery_runs() {
    let (mt, nt, nodes) = (12, 6, 4);
    let p = Platform { nodes, cores_per_node: 2, ..Platform::edel() };
    let layout = Layout::cyclic_rows(nodes);
    // Event times are fractions of each DAG's fault-free makespan.
    let plans = |t: f64| {
        [
            ("mid-run crash", FaultPlan::default().crash_node(1, 0.3 * t)),
            ("double crash", FaultPlan::default().crash_node(1, 0.2 * t).crash_node(2, 0.5 * t)),
            (
                "crash + degrade",
                FaultPlan::default().degrade_link(0.1 * t, 0.25, 4.0).crash_node(0, 0.4 * t),
            ),
        ]
    };
    #[rustfmt::skip]
    let pinned: [[CrashPin; 3]; 2] = [
        [
            (0x3f57b32a9c4137dc, 211, 0x41449b0000000000, [6, 15, 56, 134, 0, 0],
             0x3f55ee63b34c3c35, 0x3fb4a53431cd3f30, 10, 2, 8, 0x40f9000000000000, 1),
            (0x3f5e12f5e4d95d19, 209, 0x4144690000000000, [5, 15, 54, 135, 0, 0],
             0x3f55ee63b34c3c35, 0x3fd7c33a6cda46b4, 22, 4, 16, 0x4109000000000000, 2),
            (0x3f662eb45774d756, 222, 0x4145ae0000000000, [6, 15, 58, 143, 0, 0],
             0x3f55ee63b34c3c35, 0x3ff05dd7b026b13e, 10, 2, 12, 0x4102c00000000000, 1),
        ],
        [
            (0x3f57f3c6621c6b93, 315, 0x414ec30000000000, [46, 87, 0, 0, 52, 130],
             0x3f5352e706311581, 0x3fcea8872680bd60, 39, 2, 12, 0x4102c00000000000, 1),
            (0x3f5f7cbbc8dbf198, 328, 0x4150040000000000, [49, 92, 0, 0, 60, 127],
             0x3f5352e706311581, 0x3fe42475bfbc4d86, 75, 4, 44, 0x4121300000000000, 2),
            (0x3f6f504907cc7b61, 307, 0x414dfb0000000000, [41, 82, 0, 0, 55, 129],
             0x3f5352e706311581, 0x4001ed6d58d925b6, 9, 1, 16, 0x4109000000000000, 1),
        ],
    ];
    let dags = [("flat", flat_ops(mt, nt)), ("binary", binary_ops(mt, nt))];
    for ((dag, ops), pins) in dags.iter().zip(&pinned) {
        let g = TaskGraph::build(mt as usize, nt as usize, 40, ops);
        let t = simulate(&g, &layout, &p).makespan;
        for ((what, plan), pin) in plans(t).iter().zip(pins) {
            let opts = SimOptions { plan: plan.clone(), ..Default::default() };
            let r = simulate_with(&g, &layout, &p, &opts).unwrap();
            let o = r.overhead.unwrap();
            let got: CrashPin = (
                r.makespan.to_bits(),
                r.messages,
                r.bytes.to_bits(),
                r.messages_by_kind,
                t.to_bits(),
                (r.makespan / t - 1.0).to_bits(),
                o.reexecuted_tasks,
                o.aborted_tasks,
                o.resent_messages,
                o.resent_bytes.to_bits(),
                o.nodes_lost,
            );
            assert_eq!(&got, pin, "{dag} DAG, {what}");
        }
    }
}
