//! The differential oracle for the bitwise contract.
//!
//! An elimination list fixes every kernel call, so every execution order
//! its DAG allows gives the same bits (§IV-C). One seeded generator draws a
//! [`Case`], and [`run`] puts it through every backend that accepts its
//! fault schedule. The factored tiles and every Tg and Tk buffer must be
//! bit-equal to `execute_serial_ib`, and Qᵀ·C and Q·C bit-equal to a
//! one-thread FIFO `try_apply_q`. A failure names the backend and prints the
//! case. DESIGN.md, "Bitwise contract", lists what each row checks beyond
//! bits. `PROPTEST_CASES` sets how many cases are generated (default 16).

use std::collections::BTreeSet;
use std::fmt::Display;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use hqr::prelude::*;
use hqr_kernels::Trans;
use hqr_net::{factorize, shutdown_workers, spawn_local, DistConfig, DistReport, WorkerOptions};
use hqr_runtime::task::SlotFamily;
use hqr_runtime::{
    execute_serial_ib, read_checkpoint, try_apply_q, try_execute_parallel, try_execute_traced,
    try_execute_with, DurabilityConfig, ElimOp, ExecOptions, FaultPlan, FaultStats, IntegrityMode,
    JobPool, JobSpec, JobState, JobView, PoolConfig, SchedPolicy, TFactors, TaskGraph, CKPT_DIR,
};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Where the elimination list comes from.
#[derive(Clone, Copy, Debug, Default)]
enum List {
    /// A random valid list of TT kernels, drawn from the case seed.
    #[default]
    RandomTt,
    /// An HQR tree, which mixes TS and TT kernels.
    Hqr(HqrConfig),
}

/// The matrix factored: `TiledMatrix::random` of the case seed, with its
/// column `j` scaled by 10^(−j/2), as the outer product of its first column
/// and first row, or scaled by 1e-310 into subnormals.
#[derive(Clone, Copy, Debug, Default)]
enum Input {
    #[default]
    Random,
    Graded,
    RankOne,
    Subnormal,
}

#[derive(Clone, Debug, Default)]
struct Case {
    seed: u64,
    mt: usize,
    nt: usize,
    b: usize,
    ib: usize,
    list: List,
    input: Input,
    policy: SchedPolicy,
    threads: usize,
    /// The racing pool jobs run with a quarter of the footprint resident.
    paged_pool: bool,
    /// Distinct tasks whose first `attempts` attempts panic.
    fail: usize,
    attempts: u32,
    /// Distinct tasks whose first completed attempt takes a bit flip.
    strikes: usize,
    integrity: IntegrityMode,
    /// Loopback workers, the shares of RPCs dropped and delayed (1 ms),
    /// and a worker that dies after that many tasks.
    fleet: usize,
    drop: f64,
    delay: f64,
    kill: Option<(usize, u64)>,
}

fn generate(seed: u64) -> Case {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (mt, nt, b) = (rng.gen_range(2..=6), rng.gen_range(1..=4), rng.gen_range(1..=8));
    let ib = if b == 1 || rng.gen_bool(0.5) { b } else { rng.gen_range(1..b) };
    let trees = TreeKind::ALL;
    let list = match rng.gen_bool(0.5) {
        true => List::RandomTt,
        false => List::Hqr(
            HqrConfig::new(rng.gen_range(1..=3), 1)
                .with_a(rng.gen_range(1..=3))
                .with_low(*trees.choose(&mut rng).unwrap())
                .with_high(*trees.choose(&mut rng).unwrap())
                .with_domino(rng.gen_bool(0.5)),
        ),
    };
    let strikes = rng.gen_range(0..=2);
    let integrity = match (strikes, rng.gen_bool(0.5)) {
        (0, false) => IntegrityMode::Off,
        (_, false) => IntegrityMode::Spot,
        (_, true) => IntegrityMode::Full,
    };
    let fleet = *[1, 2, 4].choose(&mut rng).unwrap();
    Case {
        seed,
        mt,
        nt,
        b,
        ib,
        list,
        input: [Input::Random, Input::Graded, Input::RankOne, Input::Subnormal][seed as usize % 4],
        policy: *SchedPolicy::ALL.choose(&mut rng).unwrap(),
        threads: rng.gen_range(1..=4),
        paged_pool: rng.gen_bool(0.5),
        fail: rng.gen_range(0..=3),
        attempts: rng.gen_range(1..=3),
        strikes,
        integrity,
        fleet,
        drop: *[0.0, 0.05].choose(&mut rng).unwrap(),
        delay: *[0.0, 0.1].choose(&mut rng).unwrap(),
        kill: (fleet > 1 && rng.gen_bool(0.5))
            .then(|| (rng.gen_range(0..fleet), *[0, 1, 3, 7].choose(&mut rng).unwrap())),
    }
}

impl Case {
    /// A fault-free FIFO case on a random TT list, 2 threads, one worker.
    fn plain(seed: u64, mt: usize, nt: usize, b: usize, ib: usize) -> Case {
        Case { seed, mt, nt, b, ib, threads: 2, attempts: 1, fleet: 1, ..Default::default() }
    }

    fn elims(&self) -> Vec<ElimOp> {
        if let List::Hqr(cfg) = self.list {
            return cfg.elimination_list(self.mt, self.nt).to_ops();
        }
        // Per panel, a random alive row below the top is killed by a random
        // alive row above it.
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0x7715);
        let mut out = Vec::new();
        for k in 0..self.mt.min(self.nt) as u32 {
            let mut alive: Vec<u32> = (k..self.mt as u32).collect();
            while alive.len() > 1 {
                let victim = rng.gen_range(1..alive.len());
                out.push(ElimOp::new(k, alive[victim], alive[rng.gen_range(0..victim)], false));
                alive.remove(victim);
            }
        }
        out
    }

    fn input(&self) -> TiledMatrix {
        let d0 = TiledMatrix::random(self.mt, self.nt, self.b, self.seed).to_dense();
        let mut d = d0.clone();
        for j in 0..self.nt * self.b {
            for i in 0..self.mt * self.b {
                let x = d0.get(i, j);
                let y = match self.input {
                    Input::Random => x,
                    Input::Graded => x * 10f64.powf(-(j as f64) / 2.0),
                    Input::RankOne => d0.get(i, 0) * d0.get(0, j),
                    Input::Subnormal => x * 1e-310,
                };
                d.set(i, j, y);
            }
        }
        TiledMatrix::from_dense(&d, self.b)
    }

    /// The case's task failures and bit flips on a graph of `n` tasks.
    fn plan(&self, n: usize) -> Option<FaultPlan> {
        let plan = FaultPlan::new(self.seed).fail_random_tasks(n, self.fail, self.attempts);
        Some(plan.corrupt_random_tasks(n, self.strikes)).filter(|p| !p.is_empty())
    }
}

/// Panic naming the backend and printing the case.
fn fail(case: &Case, backend: &str, what: impl Display) -> ! {
    panic!("{backend}: {what}\n  {case:?}")
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// The first tile of `x` whose bits differ from `want`'s.
fn tile_diff(x: &TiledMatrix, want: &TiledMatrix) -> Option<String> {
    if (x.mt(), x.nt(), x.b()) != (want.mt(), want.nt(), want.b()) {
        return Some(format!("{}x{} tiles of {}", x.mt(), x.nt(), x.b()));
    }
    let mut tiles = (0..x.nt()).flat_map(|j| (0..x.mt()).map(move |i| (i, j)));
    let (i, j) = tiles.find(|&(i, j)| bits(x.tile(i, j)) != bits(want.tile(i, j)))?;
    Some(format!("tile ({i},{j})"))
}

/// The first buffer of `(a, f)` whose bits differ from the serial run's.
fn diff(a: &TiledMatrix, f: &TFactors, want: &(TiledMatrix, TFactors)) -> Option<String> {
    let (want_a, want_f) = want;
    if let Some(tile) = tile_diff(a, want_a) {
        return Some(format!("A {tile} differs from execute_serial_ib"));
    }
    for fam in [SlotFamily::Tg, SlotFamily::Tk] {
        for k in 0..a.nt() {
            for i in 0..a.mt() {
                if f.slot(fam, i, k).map(bits) != want_f.slot(fam, i, k).map(bits) {
                    return Some(format!("{}({i},{k}) differs from execute_serial_ib", fam.name()));
                }
            }
        }
    }
    None
}

/// A run under `plan` reports one caught panic per planned failure, one
/// injected, detected and recomputed flip per struck task whose first
/// attempt completes, one recovery per task either hits, and at least one
/// rolled-back tile per panic and per detection.
fn check_stats(case: &Case, backend: &str, plan: Option<&FaultPlan>, s: &FaultStats) {
    let (panics, failing, struck) = plan.map_or((0, 0, 0), |p| {
        let failing: BTreeSet<u32> = p.failing_tasks().map(|(t, _)| t).collect();
        let struck = p.corrupted_tasks().filter(|(t, _)| !failing.contains(t)).count();
        (p.planned_failures(), failing.len(), struck)
    });
    let want = (panics as u32, (failing + struck) as u32, [struck as u32; 3]);
    let sdc = [s.sdc_injected, s.sdc_detected, s.sdc_recomputed];
    if (s.panics_caught, s.tasks_recovered, sdc) != want
        || s.tiles_rolled_back < s.panics_caught + s.sdc_detected
    {
        fail(case, backend, format!("{s:?}, not (panics, recovered, flips) = {want:?}"));
    }
}

/// Run `case` through every backend and return the fleet's report.
fn run(case: &Case) -> DistReport {
    let elims = case.elims();
    let graph = TaskGraph::build(case.mt, case.nt, case.b, &elims);
    let n = graph.tasks().len();
    let input = case.input();
    let mut a = input.clone();
    let f = execute_serial_ib(&graph, &mut a, case.ib);
    let want = (a, f);
    let same = |backend: &str, a: &TiledMatrix, f: &TFactors| {
        if let Some(what) = diff(a, f, &want) {
            fail(case, backend, what);
        }
    };
    let plan = case.plan(n);
    let engine = ExecOptions {
        nthreads: case.threads,
        ib: Some(case.ib),
        max_retries: case.attempts,
        plan: plan.clone(),
        policy: case.policy,
        integrity: case.integrity,
        ..Default::default()
    };
    // A quarter of the footprint, and at least the one tile a paged run keeps.
    let tile = (case.b * case.b * 8) as u64;
    let quarter = (case.mt * case.nt) as u64 * tile / 4;
    let quarter = quarter.max(tile);

    let mut a = input.clone();
    let (f, stats) =
        try_execute_with(&graph, &mut a, &engine).unwrap_or_else(|e| fail(case, "engine", e));
    same("engine", &a, &f);
    check_stats(case, "engine", plan.as_ref(), &stats);
    for (backend, resident_budget) in [("traced engine", None), ("paged engine", Some(quarter))] {
        let opts = ExecOptions { resident_budget, ..engine.clone() };
        let mut a = input.clone();
        let (f, stats, trace) =
            try_execute_traced(&graph, &mut a, &opts).unwrap_or_else(|e| fail(case, backend, e));
        same(backend, &a, &f);
        check_stats(case, backend, plan.as_ref(), &stats);
        let c = &trace.counters;
        let acquired: u64 = c.iter().map(|c| c.local_pops + c.injector_pops + c.steals).sum();
        let requeues: u64 = c.iter().map(|c| c.requeues).sum();
        let spill = trace.spill.as_ref().map(|s| (s.budget, s.evictions > 0));
        let seen = (trace.policy, trace.records.len(), acquired, spill);
        if seen != (case.policy, n, n as u64 + requeues, resident_budget.map(|b| (b, true))) {
            fail(case, backend, format!("(policy, records, acquisitions, spill) = {seen:?}"));
        }
    }
    // The pinned shim runs FIFO, without a plan, at ib = b.
    if plan.is_none() && case.ib == case.b {
        let mut a = input.clone();
        let f = try_execute_parallel(&graph, &mut a, case.threads)
            .unwrap_or_else(|e| fail(case, "try_execute_parallel", e));
        same("try_execute_parallel", &a, &f);
    }
    let fac = match case.list {
        List::Hqr(cfg) => {
            let list = cfg.elimination_list(case.mt, case.nt);
            let fac =
                qr_factorize_ib(input.clone(), &list, Execution::Parallel(case.threads), case.ib);
            if let Some(tile) = tile_diff(fac.factored(), &want.0) {
                fail(case, "qr_factorize_ib", format!("A {tile} differs from execute_serial_ib"));
            }
            Some(fac)
        }
        List::RandomTt => None,
    };

    // One pool races a job under every policy.
    let resident_budget = case.paged_pool.then_some(quarter);
    let pool =
        JobPool::new(PoolConfig { nthreads: case.threads, resident_budget, ..Default::default() });
    let ids: Vec<_> = SchedPolicy::ALL
        .iter()
        .map(|&policy| {
            let spec = JobSpec {
                ib: Some(case.ib),
                policy,
                integrity: case.integrity,
                max_retries: case.attempts,
                plan: plan.clone(),
                ..JobSpec::fresh(elims.clone(), input.clone())
            };
            pool.submit(spec).unwrap_or_else(|e| fail(case, "JobPool", e))
        })
        .collect();
    for (policy, id) in SchedPolicy::ALL.into_iter().zip(ids) {
        let backend = &format!("JobPool job under {policy}");
        let out = pool.wait(id).unwrap_or_else(|| fail(case, backend, "unknown job"));
        match out.result {
            Some(r) if out.state == JobState::Completed => same(backend, &r.a, &r.factors),
            _ => fail(case, backend, format!("{}: {:?}", out.state, out.error)),
        }
        check_stats(case, backend, plan.as_ref(), &out.stats);
    }
    pool.shutdown();

    for (backend, budget) in
        [("pool suspend -> resume", None), ("paged pool suspend -> resume", Some(quarter))]
    {
        let (a, f) =
            suspend_then_resume(case, backend, &graph, &elims, &input, plan.as_ref(), budget);
        same(backend, &a, &f);
    }

    let c0 = TiledMatrix::random(case.mt, 2, case.b, case.seed ^ 0xC);
    for trans in [Trans::Trans, Trans::NoTrans] {
        let apply = |backend: &str, opts: &ExecOptions| {
            let mut c = c0.clone();
            let stats = try_apply_q(&want.0, &want.1, &elims, &mut c, trans, opts)
                .unwrap_or_else(|e| fail(case, backend, e));
            (c, stats)
        };
        let (c_want, _) = apply("one-thread FIFO apply-Q", &ExecOptions::with_threads(1));
        let same_c = |backend: &str, c: &TiledMatrix| {
            if let Some(tile) = tile_diff(c, &c_want) {
                fail(case, backend, format!("C {tile} differs from the one-thread FIFO apply"));
            }
        };
        for policy in SchedPolicy::ALL {
            let backend = &format!("apply-Q {trans:?} under {policy}");
            let clean = ExecOptions { policy, plan: None, ..engine.clone() };
            same_c(backend, &apply(backend, &clean).0);
        }
        let tasks =
            TaskGraph::apply_q(case.mt, case.nt, 2, case.b, &elims, trans).unwrap().tasks().len();
        if let Some(plan) = case.plan(tasks) {
            let backend = &format!("apply-Q {trans:?} under its fault plan");
            let (c, stats) =
                apply(backend, &ExecOptions { plan: Some(plan.clone()), ..engine.clone() });
            same_c(backend, &c);
            check_stats(case, backend, Some(&plan), &stats);
        }
        if let Some(fac) = &fac {
            let mut c = c0.clone();
            fac.apply_q(&mut c, trans);
            same_c(&format!("QrFactorization::apply_q {trans:?}"), &c);
        }
    }

    let (report, a, f) = fleet(case, &graph, &input);
    same(&format!("{}-worker fleet", case.fleet), &a, &f);
    report
}

/// Pool suspend → resume: a durable pool (paged under `budget`) runs the
/// case's job with a random task other than the first failing until the
/// job is suspended, which happens once every task that does not depend on
/// it has completed. The checkpoint the suspension wrote is resumed on the
/// same pool without the fault plan.
fn suspend_then_resume(
    case: &Case,
    backend: &str,
    graph: &TaskGraph,
    elims: &[ElimOp],
    input: &TiledMatrix,
    plan: Option<&FaultPlan>,
    budget: Option<u64>,
) -> (TiledMatrix, TFactors) {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let n = graph.tasks().len();
    let stall = 1 + (case.seed % (n as u64 - 1)) as usize;
    let mut blocked = vec![false; n];
    blocked[stall] = true;
    for t in stall..n {
        if blocked[t] {
            graph.successors(t).iter().for_each(|&s| blocked[s as usize] = true);
        }
    }
    let settled = blocked.iter().filter(|&&b| !b).count();
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("hqr_oracle_{}_{run}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // The stalled task holds one worker, so the others run the rest.
    let pool = JobPool::new(PoolConfig {
        nthreads: case.threads.max(2),
        durability: Some(DurabilityConfig::at(&dir)),
        resident_budget: budget,
        ..Default::default()
    });
    let stalled = plan.cloned().unwrap_or(FaultPlan::new(case.seed));
    let spec = JobSpec {
        ib: Some(case.ib),
        policy: case.policy,
        integrity: case.integrity,
        max_retries: 2_000_000,
        plan: Some(stalled.fail_task(stall as u32, 1_000_000)),
        ..JobSpec::fresh(elims.to_vec(), input.clone())
    };
    let id = pool.submit(spec).unwrap_or_else(|e| fail(case, backend, e));
    let deadline = Instant::now() + Duration::from_secs(60);
    let wait_for = |done: &dyn Fn(&JobView) -> bool| loop {
        let view = pool.status(id).unwrap_or_else(|| fail(case, backend, "unknown job"));
        if done(&view) {
            break;
        }
        if Instant::now() > deadline {
            fail(case, backend, format!("stuck at {view:?}"));
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    wait_for(&|v| v.state == JobState::Running && v.tasks_done == settled);
    if !pool.suspend(id) {
        fail(case, backend, "suspend refused");
    }
    wait_for(&|v| v.state == JobState::Suspended);
    let ckpt = read_checkpoint(&dir.join(CKPT_DIR).join(format!("job-{}.ckpt", id.0)))
        .unwrap_or_else(|e| fail(case, backend, e));
    let done = ckpt.completed_tasks();
    if done != settled || done < stall || done >= n {
        fail(
            case,
            backend,
            format!("checkpoint of {done} tasks, {settled} settled, {stall} stalled"),
        );
    }
    let resumed = JobSpec { policy: case.policy, ..JobSpec::resume(ckpt) };
    let out = pool.wait(pool.submit(resumed).unwrap_or_else(|e| fail(case, backend, e))).unwrap();
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    match out.result {
        Some(r) if out.state == JobState::Completed => (r.a, r.factors),
        _ => fail(case, backend, format!("resumed job {}: {:?}", out.state, out.error)),
    }
}

/// `hqr_net::factorize` on a loopback fleet under the case's RPC drops,
/// delays and kill point. Every task is credited once. A victim that owns
/// more tasks than its kill point dies and is recovered from; otherwise
/// nobody is, and each worker ran exactly the tasks its grid rank owns.
fn fleet(case: &Case, graph: &TaskGraph, a: &TiledMatrix) -> (DistReport, TiledMatrix, TFactors) {
    let backend = &format!("{}-worker fleet", case.fleet);
    let die_after = |w| case.kill.filter(|&(victim, _)| victim == w).map(|(_, k)| k);
    let workers: Vec<_> = (0..case.fleet)
        .map(|w| WorkerOptions { die_after_tasks: die_after(w), die_hard: false, slow_task_ms: 0 })
        .map(|opts| spawn_local(opts).unwrap_or_else(|e| fail(case, backend, e)))
        .collect();
    let addrs: Vec<_> = workers.iter().map(|w| w.addr).collect();
    let mut cfg = DistConfig::for_workers(case.fleet);
    cfg.rpc_timeout = Duration::from_secs(2);
    cfg.stall_timeout = Duration::from_secs(30);
    cfg.retry.max_attempts = 6;
    let rpcs = FaultPlan::new(case.seed).drop_rpcs(case.drop);
    cfg.fault = rpcs.delay_rpcs(case.delay, Duration::from_millis(1));
    let result = factorize(&addrs, graph, a, case.ib, &cfg);
    shutdown_workers(&addrs);
    for w in workers {
        let _ = w.join();
    }
    let (a, f, report) = result.unwrap_or_else(|e| fail(case, backend, e));
    let mut owned = vec![0u64; case.fleet];
    for t in graph.tasks() {
        let (i, j) = t.affinity_tile();
        owned[Layout::Cyclic2D(cfg.grid).owner(i, j)] += 1;
    }
    let condemned: Vec<usize> = report.recoveries.iter().map(|r| r.worker).collect();
    let credited = report.tasks_by_worker.iter().sum::<u64>() as usize;
    let ok = match case.kill.filter(|&(victim, k)| owned[victim] > k) {
        Some((victim, _)) => condemned.contains(&victim),
        None => condemned.is_empty() && report.tasks_by_worker == owned,
    };
    if !ok || credited != report.tasks_total || report.tasks_total != graph.tasks().len() {
        fail(case, backend, format!("{report:?}, owned {owned:?}"));
    }
    (report, a, f)
}

/// How many cases [`generated_cases_keep_the_bitwise_contract`] draws.
fn cases() -> u64 {
    std::env::var("PROPTEST_CASES").ok().and_then(|n| n.parse().ok()).unwrap_or(16)
}

#[test]
fn generated_cases_keep_the_bitwise_contract() {
    for seed in 0..cases() {
        run(&generate(seed));
    }
}

/// The golden problem of `tests/determinism.rs`, whose serial digests pin
/// the absolute bits every row here is compared with: 6 × 4 tiles of 16, an
/// HQR tree of TS and TT kernels, ib = b and ib < b.
#[test]
fn golden_problem_keeps_the_bitwise_contract() {
    let tree = List::Hqr(HqrConfig::new(2, 1).with_a(2).with_domino(true));
    for ib in [16, 4] {
        run(&Case {
            list: tree,
            policy: SchedPolicy::CriticalPath,
            paged_pool: true,
            fail: 4,
            strikes: 2,
            integrity: IntegrityMode::Full,
            fleet: 2,
            ..Case::plain(20120521, 6, 4, 16, ib)
        });
    }
}

/// Fault schedules that must engage: a task failing three times in a
/// row, three failing tasks on four threads, a worker killed before its
/// first task, kills at ib < b, and RPC drops that must be retried.
#[test]
fn pinned_fault_cases_keep_the_bitwise_contract() {
    run(&Case { fail: 1, attempts: 3, ..Case::plain(7, 5, 3, 3, 3) });
    run(&Case { fail: 3, threads: 4, ..Case::plain(0xC0FFEE, 6, 4, 4, 4) });
    let kills = [
        Case { fleet: 2, kill: Some((0, 0)), ..Case::plain(9, 5, 3, 4, 4) },
        Case { fleet: 4, kill: Some((1, 2)), ..Case::plain(3, 6, 4, 6, 2) },
        Case {
            fleet: 2,
            kill: Some((1, 1)),
            input: Input::Subnormal,
            ..Case::plain(5, 4, 3, 4, 3)
        },
    ];
    for case in kills {
        if run(&case).recoveries.is_empty() {
            fail(&case, "fleet", "the kill point was never reached");
        }
    }
    // Seed 5 drops the first RPC to worker 1, whatever the timing.
    let chaos = Case { fleet: 4, drop: 0.08, delay: 0.15, ..Case::plain(5, 5, 4, 4, 4) };
    if run(&chaos).rpc_retries == 0 {
        fail(&chaos, "fleet", "drop injection never engaged the retry ladder");
    }
}
