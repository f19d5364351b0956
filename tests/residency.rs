//! The paged tile store against an offline replay: on one worker, a
//! quarter-budget run of an HQR graph must move no more tiles than
//! Belady's MIN needs, and fewer than LRU would.
//!
//! The replay is the store's model in ~40 lines: a cache of `cap` tiles,
//! each task pinning its slots one at a time (write set first), a miss
//! evicting the unpinned resident slot the policy picks, dirty victims
//! written back, matrix tiles resident at the start and spilled down to
//! `cap`, factor buffers materialised as zeros on first touch (no read).

use hqr::prelude::*;
use hqr_kernels::{t_len, tau_len, v_len};
use hqr_runtime::task::SlotFamily;
use hqr_runtime::{try_execute_traced, ExecOptions, SchedPolicy, TFactors, TaskGraph};

type ListFn = fn(usize, usize, ProcessGrid) -> baselines::AlgorithmSetup;

#[derive(Clone, Copy, PartialEq)]
enum Policy {
    /// Evict the slot whose next use in the replayed order is furthest.
    Min,
    /// Evict the least recently pinned slot.
    Lru,
}

/// Replay `order` through a cache of `cap` tiles; `(reads, write-backs)`.
fn replay(g: &TaskGraph, order: &[usize], cap: usize, policy: Policy) -> (u64, u64) {
    let spf = g.mt() * g.nt();
    let slot = |(f, i, j): (SlotFamily, usize, usize)| f as usize * spf + i + j * g.mt();
    let touches = |t: usize| {
        let task = &g.tasks()[t];
        let writes = task.writes().into_iter().map(move |s| (slot(s), true));
        writes.chain(task.reads().into_iter().map(move |s| (slot(s), false)))
    };
    // Per slot, the positions in `order` that touch it, ascending.
    let mut uses = vec![Vec::new(); 4 * spf];
    for (at, &t) in order.iter().enumerate() {
        touches(t).for_each(|(s, _)| uses[s].push(at));
    }
    #[derive(Clone, Default)]
    struct Slot {
        resident: bool,
        dirty: bool,
        on_disk: bool,
        pinned: bool,
        stamp: u64,
    }
    let mut slots = vec![Slot::default(); 4 * spf];
    let (mut reads, mut writebacks, mut resident, mut clock) = (0u64, 0u64, spf, 0u64);
    slots[..spf].iter_mut().for_each(|s| (s.resident, s.dirty) = (true, true));
    let mut evict = |slots: &mut Vec<Slot>, now: usize| -> bool {
        let key = |(s, slot): (usize, &Slot)| match policy {
            Policy::Min => {
                let next = uses[s].partition_point(|&at| at < now);
                uses[s].get(next).map_or(u64::MAX, |&at| at as u64)
            }
            Policy::Lru => u64::MAX - slot.stamp,
        };
        let evictable = slots.iter().enumerate().filter(|(_, s)| s.resident && !s.pinned);
        let Some((victim, _)) = evictable.max_by_key(|&(s, slot)| (key((s, slot)), s)) else {
            return false;
        };
        let v = &mut slots[victim];
        writebacks += u64::from(v.dirty);
        (v.on_disk, v.dirty, v.resident) = (v.on_disk || v.dirty, false, false);
        true
    };
    while resident > cap && evict(&mut slots, 0) {
        resident -= 1;
    }
    for (now, &t) in order.iter().enumerate() {
        for (s, writes) in touches(t) {
            slots[s].pinned = true;
            if !slots[s].resident {
                while resident + 1 > cap && evict(&mut slots, now) {
                    resident -= 1;
                }
                reads += u64::from(slots[s].on_disk);
                // Never on disk: a zero-filled factor buffer, dirty at once.
                (slots[s].resident, slots[s].dirty) = (true, !slots[s].on_disk);
                resident += 1;
            }
            clock += 1;
            (slots[s].dirty, slots[s].stamp) = (slots[s].dirty | writes, clock);
        }
        touches(t).for_each(|(s, _)| slots[s].pinned = false);
    }
    (reads, writebacks)
}

/// On `hqr_adaptive`'s lists and on `hqr_square`'s a = 4 lists, whose TT
/// domain heads keep GEQRT's V copies and T factors in the store where the
/// adaptive square lists are flat TS chains.
#[test]
fn one_worker_paged_run_moves_what_min_needs_and_less_than_lru() {
    let b = 8;
    let shapes = [(8, 8), (10, 6), (16, 4)];
    let lists = [("adaptive", baselines::hqr_adaptive as ListFn), ("a = 4", baselines::hqr_square)];
    for ((mt, nt), (list, setup)) in shapes.into_iter().flat_map(|s| lists.map(|l| (s, l))) {
        let elims = setup(mt, nt, ProcessGrid::new(2, 1)).elims.to_ops();
        let graph = TaskGraph::build(mt, nt, b, &elims);
        let program: Vec<usize> = (0..graph.tasks().len()).collect();
        let budget = (mt * nt * b * b * 8 / 4) as u64;
        let cap = mt * nt / 4;
        let (min_reads, min_writebacks) = replay(&graph, &program, cap, Policy::Min);
        let (lru_reads, lru_writebacks) = replay(&graph, &program, cap, Policy::Lru);
        for policy in SchedPolicy::ALL {
            let label = format!("{mt}x{nt} tiles, {list} list, {policy}");
            let opts = ExecOptions {
                nthreads: 1,
                policy,
                resident_budget: Some(budget),
                ..Default::default()
            };
            let mut a = TiledMatrix::random(mt, nt, b, 5);
            let (_, _, trace) = try_execute_traced(&graph, &mut a, &opts).expect("paged run");
            let spill = trace.spill.expect("quarter budget pages");
            let reads = spill.demand_faults + spill.prefetches;
            // The store's clock is the order the worker really runs in, so
            // on that order it tracks Belady's MIN under every policy (the
            // slack is the prefetcher holding a task's worth of slots early).
            let realized: Vec<usize> = trace.records.iter().map(|r| r.task as usize).collect();
            let (own_reads, own_writebacks) = replay(&graph, &realized, cap, Policy::Min);
            assert!(
                reads as f64 <= 1.15 * own_reads as f64
                    && spill.writebacks as f64 <= 1.15 * own_writebacks as f64,
                "{label}: {reads} reads / {} write-backs; MIN on the realized order needs \
                 {own_reads} / {own_writebacks}",
                spill.writebacks
            );
            if policy == SchedPolicy::Fifo {
                // The default policy's depth-first order is also at least
                // as cache-friendly as program order, so the same run holds
                // up against the replays of program order: within 15 % of
                // MIN, strictly under LRU.
                assert!(
                    reads as f64 <= 1.15 * min_reads as f64
                        && spill.writebacks as f64 <= 1.15 * min_writebacks as f64,
                    "{label}: {reads} reads / {} write-backs; MIN over program order needs \
                     {min_reads} / {min_writebacks}",
                    spill.writebacks
                );
                assert!(
                    reads < lru_reads && spill.writebacks < lru_writebacks,
                    "{label}: {reads} reads / {} write-backs; LRU over program order needs \
                     {lru_reads} / {lru_writebacks}",
                    spill.writebacks
                );
            }
        }
    }
}

/// The factor buffers of the benchmark's `tall_skinny` problem (32768 x
/// 512 in tiles of b = 128, ib = 32, the adaptive tall list on a 2 x 1
/// grid: one TS domain per cluster, a = 128): 22 GEQRTs and 1 014 kills
/// each make a T, the packed upper triangles of its four 32 x 32 panels.
/// The T slots total 16.69 MiB, which is no longer what a run holds: a T
/// is run scratch from its factor task to its last reader, and a run
/// touches as many T places as it holds T at once (257 at two threads,
/// 4.14 MiB). The factorization keeps each T's τ, its diagonal
/// (`tau_len(b)` = 128 doubles): 1.01 MiB. Kept, the T factors made
/// 16.69 MiB and GEQRT's V copies (V's strict lower triangle, `v_len(b)` =
/// 8 128 doubles each) 1.37 MiB more, as `b x b` tiles 2.75 MiB more. T
/// factors of `ib x b` made 35.13 MiB, the a = 4 list 73.56 MiB, and T
/// factors zero-padded to `b x b` 193.75 MiB.
#[test]
fn tall_skinny_factor_buffers_hold_packed_t_factors() {
    let (mt, nt, b, ib) = (256, 4, 128, 32);
    let elims = baselines::hqr_adaptive(mt, nt, ProcessGrid::new(2, 1)).elims.to_ops();
    let graph = TaskGraph::build(mt, nt, b, &elims);
    let f = TFactors::allocate_for(&graph, ib);
    type Family = fn(&TFactors, usize, usize) -> Option<&[f64]>;
    let doubles = |family: Family| -> usize {
        let slots = (0..nt).flat_map(|k| (0..mt).map(move |i| (i, k)));
        slots.filter_map(|(i, k)| family(&f, i, k)).map(<[f64]>::len).sum()
    };
    let (tg, tk) = (doubles(TFactors::tg), doubles(TFactors::tk));
    assert_eq!((tg, tk), (22 * tau_len(b), 1014 * tau_len(b)));
    let mut slots = (0..nt).flat_map(|k| (0..mt).map(move |i| (i, k)));
    assert!(slots.all(|(i, k)| f.slot(SlotFamily::Vg, i, k).is_none()));
    assert_eq!((tg + tk) * 8, 1_060_864, "1.01 MiB of τ");
    let t = (b / ib) * (ib * (ib + 1) / 2);
    assert_eq!(t, t_len(b, ib));
    assert_eq!((22 + 1014) * t * 8, 17_504_256, "16.69 MiB: the T slots' total");
    assert_eq!(18_934_784 - 17_504_256, 22 * v_len(b) * 8, "the V copies a result kept");
}
