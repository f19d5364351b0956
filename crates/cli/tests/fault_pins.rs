//! Pins every seeded pick a fault schedule makes, so a refactor of the
//! plan types cannot move one: the tasks `fail_random_tasks` and
//! `corrupt_random_tasks` choose (and each strike's slot, element and
//! bit), the node `crash_random_node` crashes, the drop/delay verdict of
//! every RPC over 4 workers x 256 sequence numbers, and the checksum of a
//! `Submit` frame carrying two per-task failures. Only the constructor
//! helpers below may change with the plan API; the constants and the
//! assertions stay as they are.

use hqr_cli::proto::Request;
use hqr_runtime::fault::SdcPattern;
use hqr_runtime::{ElimOp, FaultAction, FaultPlan, JobSpec};
use hqr_tile::io::{checksum64, fnv1a64};
use hqr_tile::TiledMatrix;
use std::time::Duration;

const SEEDS: [u64; 4] = [0, 5, 42, 0x9e37_79b9];

fn fail_picks(seed: u64) -> Vec<(u32, u32)> {
    FaultPlan::new(seed).fail_random_tasks(500, 6, 2).failing_tasks().collect()
}

fn corrupt_picks(seed: u64) -> Vec<(u32, u32, u32, u32)> {
    let plan = FaultPlan::new(seed).corrupt_random_tasks(500, 4);
    let bit = |p| match p {
        SdcPattern::BitFlip(bit) => bit,
        SdcPattern::Scale => u32::MAX,
    };
    plan.corrupted_tasks().map(|(t, f)| (t, f.slot, f.element, bit(f.pattern))).collect()
}

fn crashed_node(seed: u64) -> usize {
    FaultPlan::new(seed).crash_random_node(60, 0.5).crashes()[0].node
}

fn rpc_verdicts(seed: u64) -> Vec<u8> {
    let plan = FaultPlan::new(seed).drop_rpcs(0.2).delay_rpcs(0.1, Duration::from_millis(2));
    let verdict = |w, s| match plan.action(w, s) {
        FaultAction::Deliver => 0,
        FaultAction::Drop => 1,
        FaultAction::Delay(d) => 2 + d.as_millis() as u8,
    };
    (0..4).flat_map(|w| (0..256).map(move |s| verdict(w, s))).collect()
}

fn submit_with_two_failures() -> Request {
    let spec = JobSpec::fresh(vec![ElimOp::new(0, 1, 0, true)], TiledMatrix::random(2, 1, 4, 7));
    let plan = FaultPlan::new(9).fail_task(0, 2).fail_task(3, 1);
    Request::Submit { spec: Box::new(spec), plan }
}

#[test]
fn task_picks_are_pinned() {
    let fail: [[u32; 6]; 4] = [
        [197, 228, 244, 297, 417, 495],
        [100, 234, 382, 414, 442, 446],
        [183, 231, 237, 272, 449, 453],
        [25, 68, 97, 112, 137, 315],
    ];
    let corrupt: [[(u32, u32, u32, u32); 4]; 4] = [
        [
            (39, 370964089, 957817981, 21),
            (79, 3081792034, 3076963226, 20),
            (276, 126414475, 810050939, 19),
            (343, 3603890987, 4235693153, 7),
        ],
        [
            (37, 2583419371, 4006973125, 18),
            (153, 2341939790, 3992932563, 56),
            (187, 1496229283, 877261110, 28),
            (440, 1628862926, 933763931, 39),
        ],
        [
            (43, 1908730793, 656579441, 26),
            (202, 3122231937, 1644501834, 44),
            (252, 585899910, 4285596024, 36),
            (493, 3168182819, 1601367611, 40),
        ],
        [
            (172, 2011690377, 99231727, 37),
            (190, 1820890926, 501417465, 23),
            (364, 1371318421, 2434852102, 39),
            (395, 1340933583, 1361135659, 18),
        ],
    ];
    for (k, seed) in SEEDS.into_iter().enumerate() {
        let want: Vec<(u32, u32)> = fail[k].iter().map(|&t| (t, 2)).collect();
        assert_eq!(fail_picks(seed), want, "fail_random_tasks, seed {seed}");
        assert_eq!(corrupt_picks(seed), corrupt[k], "corrupt_random_tasks, seed {seed}");
    }
}

#[test]
fn crashed_node_is_pinned() {
    let want = [51, 21, 4, 7];
    for (k, seed) in SEEDS.into_iter().enumerate() {
        assert_eq!(crashed_node(seed), want[k], "crash_random_node, seed {seed}");
    }
}

#[test]
fn rpc_verdicts_are_pinned() {
    // (delivered, dropped, delayed, fnv1a64 of the 1024 verdicts in
    // worker-major order)
    let want = [
        (715, 204, 105, 0xc2d6_bf8b_7f66_70f7),
        (717, 204, 103, 0x66af_68a1_4774_406d),
        (718, 205, 101, 0x88bb_22fa_594d_c9dc),
        (716, 201, 107, 0xc195_11ee_2413_9a10),
    ];
    for (k, seed) in SEEDS.into_iter().enumerate() {
        let v = rpc_verdicts(seed);
        let count = |x| v.iter().filter(|&&y| y == x).count();
        assert_eq!((count(0), count(1), count(4), fnv1a64(&v)), want[k], "seed {seed}");
    }
}

#[test]
fn submit_frame_with_two_failures_is_pinned() {
    let bytes = submit_with_two_failures().to_bytes();
    assert_eq!(checksum64(&bytes), 0x0456_1323_19b8_0b94);
}
