//! Deterministic fault injection and recovery policy.
//!
//! A [`FaultPlan`] is the one seeded, fully deterministic fault schedule
//! of every backend. It holds execution faults — fail a given task's first
//! K attempts, poison a worker thread (every task it touches fails until it
//! "crashes"), drop a task's completion notification (to exercise the stall
//! watchdog), strike a task's output with silent data corruption —
//! simulated platform faults (node crashes, link degradation), and RPC
//! drops and delays on a distributed coordinator's sends. Each backend
//! injects the kinds it can and refuses the rest through
//! [`FaultPlan::check_kinds`]. Injected execution failures are real
//! `panic!`s raised inside the kernel-execution `catch_unwind` scope, so
//! they exercise exactly the recovery path a real kernel panic would take:
//! write-set rollback plus bounded retry.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Once;
use std::time::Duration;

use hqr_tile::io::{bytes_of_u64s, fnv1a64};

use crate::integrity::IntegrityMode;
use crate::sched::SchedPolicy;

/// Marker prefix used by every injected panic, so logs distinguish
/// simulated faults from genuine kernel failures.
pub const INJECTED_FAULT_PREFIX: &str = "injected fault";

/// How many failures a poisoned worker inflicts before it stops taking
/// work (simulating the worker dying): each failed task is re-enqueued for
/// healthy peers, so a run with at least one healthy worker always makes
/// progress.
pub(crate) const POISON_STRIKES: u32 = 3;

/// SplitMix64: the seeded stream behind [`FaultPlan`]'s random picks. Each
/// pick kind salts the plan seed differently, so the streams stay
/// independent. The RPC verdicts of [`FaultPlan::action`] and the retry
/// jitter do not draw from it: they hash their keys with
/// `hqr_tile::io::fnv1a64`.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Multiplier used by [`SdcPattern::Scale`] strikes — a silent ~0.1%
/// scaling error, the "kernel produced slightly wrong numbers" corruption
/// class (vs. the sharp bit flip).
pub const SDC_SCALE_FACTOR: f64 = 1.0 + 1.0 / 1024.0;

/// The corruption a silent-data-corruption strike applies to one element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SdcPattern {
    /// XOR one bit (0..64, taken mod 64) of the element's IEEE-754 bit
    /// pattern.
    BitFlip(u32),
    /// Multiply the element by [`SDC_SCALE_FACTOR`]; a zero element is
    /// replaced by a tiny non-zero so the strike is never a no-op.
    Scale,
}

/// One planned silent-data-corruption strike against a task's freshly
/// written output. `slot` and `element` are raw picks reduced modulo the
/// task's write-set size and the tile's element count at injection time,
/// so a plan can be built without knowing the tile size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SdcFault {
    /// Picks which write-set buffer is struck (mod the count of the task's
    /// written buffers that hold an element: all of them but a V copy at
    /// `b = 1`).
    pub slot: u32,
    /// Picks which element within the slot's buffer is struck (mod its
    /// length: `b²` for a tile, `v_len(b)` for a V copy, `t_len(b, ib)`
    /// for a T factor).
    pub element: u32,
    /// The corruption applied to that element.
    pub pattern: SdcPattern,
}

/// One simulated node crash: at simulated time `at`, node `node`
/// disappears — its in-flight and queued tasks abort, and every
/// intermediate tile it holds is lost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeCrash {
    /// Node index (into the simulated platform's `nodes`).
    pub node: usize,
    /// Simulated time of the crash, seconds.
    pub at: f64,
}

/// One simulated link-degradation event: at time `at` the interconnect's
/// bandwidth is multiplied by `bandwidth_factor` (< 1 degrades) and its
/// latency by `latency_factor` (> 1 degrades). Models cable faults,
/// congestion or a failed rail — LogGP parameters worsen but traffic still
/// flows.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkDegrade {
    /// Simulated time the degradation takes effect, seconds.
    pub at: f64,
    /// Multiplier applied to link bandwidth (0 < f ≤ 1 degrades).
    pub bandwidth_factor: f64,
    /// Multiplier applied to link latency (≥ 1 degrades).
    pub latency_factor: f64,
}

/// What a plan decrees for one RPC send ([`FaultPlan::action`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver normally.
    Deliver,
    /// The frame is lost; the caller sees a timeout.
    Drop,
    /// Deliver after the configured delay.
    Delay(Duration),
}

/// A kind of fault a [`FaultPlan`] can schedule. A backend names the kinds
/// it injects to [`FaultPlan::check_kinds`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// [`FaultPlan::fail_task`]: a task's first attempts panic.
    FailTask,
    /// [`FaultPlan::poison_worker`]: one engine thread fails every attempt.
    PoisonWorker,
    /// [`FaultPlan::lose_completion`]: a finished task releases nothing.
    LoseCompletion,
    /// [`FaultPlan::corrupt_task`]: a silent-data-corruption strike.
    CorruptTask,
    /// [`FaultPlan::crash_node`]: a simulated node dies.
    CrashNode,
    /// [`FaultPlan::degrade_link`]: the simulated interconnect slows.
    DegradeLink,
    /// [`FaultPlan::drop_rpcs`], [`FaultPlan::delay_rpcs`]: lost or late RPCs.
    Rpc,
}

/// A deterministic, seeded schedule of injected faults, for every backend.
///
/// Plans are value types built with a fluent API. Every random pick draws
/// from the one plan seed:
///
/// ```
/// use hqr_runtime::FaultPlan;
/// let plan = FaultPlan::new(42).fail_task(3, 1).fail_random_tasks(100, 3, 1);
/// assert!(plan.planned_failures() >= 4);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    /// task id -> number of initial attempts that must fail.
    fail_first: BTreeMap<u32, u32>,
    /// Worker threads whose every attempt fails.
    poisoned: BTreeSet<usize>,
    /// Tasks whose completion notification is dropped (the task runs, its
    /// successors are never released) — watchdog-test fuel.
    lost: BTreeSet<u32>,
    /// task id -> silent-data-corruption strike against its first
    /// completed attempt's output.
    corrupt: BTreeMap<u32, SdcFault>,
    /// Simulated node crashes, in insertion order.
    crashes: Vec<NodeCrash>,
    /// Simulated link degradations, in insertion order.
    degrades: Vec<LinkDegrade>,
    /// Fraction of RPCs dropped, in `[0, 1]`.
    drop_frac: f64,
    /// Fraction of RPCs delayed, in `[0, 1]` (evaluated after drops).
    delay_frac: f64,
    /// How long a delayed RPC waits.
    delay: Duration,
}

impl FaultPlan {
    /// An empty plan carrying `seed` for its randomized builders.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, ..Default::default() }
    }

    /// The seed the randomized builders derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Fail task `task`'s first `attempts` attempts.
    pub fn fail_task(mut self, task: u32, attempts: u32) -> Self {
        if attempts > 0 {
            *self.fail_first.entry(task).or_insert(0) += attempts;
        }
        self
    }

    /// Pick `count` distinct tasks out of `n_tasks` (deterministically from
    /// the seed) and fail each one's first `attempts` attempts.
    pub fn fail_random_tasks(self, n_tasks: usize, count: usize, attempts: u32) -> Self {
        let (picked, _) = self.pick(0xfa17_fa17_fa17_fa17, n_tasks, count);
        picked.into_iter().fold(self, |plan, tid| plan.fail_task(tid, attempts))
    }

    /// `count` distinct indices below `n`, drawn from the plan seed's
    /// stream under `salt`, and that stream's state for further draws.
    fn pick(&self, salt: u64, n: usize, count: usize) -> (BTreeSet<u32>, u64) {
        let mut state = self.seed ^ salt;
        let mut picked = BTreeSet::new();
        while picked.len() < count.min(n) {
            picked.insert((splitmix64(&mut state) % n.max(1) as u64) as u32);
        }
        (picked, state)
    }

    /// Poison worker thread `worker`: every task attempt it makes fails
    /// (without consuming the tasks' retry budgets; failed tasks are handed
    /// back to healthy peers). After a few strikes the worker stops taking
    /// work, modeling a dying worker.
    pub fn poison_worker(mut self, worker: usize) -> Self {
        self.poisoned.insert(worker);
        self
    }

    /// Drop task `task`'s completion: it executes, but its successors are
    /// never released. Pair with a watchdog to observe the resulting stall.
    pub fn lose_completion(mut self, task: u32) -> Self {
        self.lost.insert(task);
        self
    }

    /// Schedule a silent-data-corruption strike against task `task`: after
    /// its first attempt's kernel completes (and the postcondition guards
    /// are published), one element of its write set is corrupted per
    /// `fault`. Retries re-run the kernel clean, so detect-recompute
    /// recovery converges.
    pub fn corrupt_task(mut self, task: u32, fault: SdcFault) -> Self {
        self.corrupt.insert(task, fault);
        self
    }

    /// Pick `count` distinct victim tasks out of `n_tasks`
    /// (deterministically from the plan seed) and schedule a seeded
    /// single-bit-flip corruption against each: random write-set buffer,
    /// random element, random bit.
    pub fn corrupt_random_tasks(mut self, n_tasks: usize, count: usize) -> Self {
        let (picked, mut state) = self.pick(0x5dc0_5dc0_5dc0_5dc0, n_tasks, count);
        for tid in picked {
            let fault = SdcFault {
                slot: splitmix64(&mut state) as u32,
                element: splitmix64(&mut state) as u32,
                pattern: SdcPattern::BitFlip((splitmix64(&mut state) % 64) as u32),
            };
            self.corrupt.insert(tid, fault);
        }
        self
    }

    /// Crash simulated node `node` at time `at`.
    pub fn crash_node(mut self, node: usize, at: f64) -> Self {
        self.crashes.push(NodeCrash { node, at });
        self
    }

    /// Crash a node picked (deterministically from the plan seed) among
    /// `nodes` at time `at`.
    pub fn crash_random_node(self, nodes: usize, at: f64) -> Self {
        let mut s = self.seed ^ 0x0DE0_0DE0_0DE0_0DE0;
        let node = (splitmix64(&mut s) % nodes.max(1) as u64) as usize;
        self.crash_node(node, at)
    }

    /// Degrade the simulated interconnect at time `at`.
    pub fn degrade_link(mut self, at: f64, bandwidth_factor: f64, latency_factor: f64) -> Self {
        self.degrades.push(LinkDegrade { at, bandwidth_factor, latency_factor });
        self
    }

    /// Drop a `frac` share of RPCs (picked by [`FaultPlan::action`]).
    pub fn drop_rpcs(mut self, frac: f64) -> Self {
        self.drop_frac = frac;
        self
    }

    /// Delay a `frac` share of RPCs by `delay` each (picked by
    /// [`FaultPlan::action`] among those not dropped).
    pub fn delay_rpcs(mut self, frac: f64, delay: Duration) -> Self {
        self.delay_frac = frac;
        self.delay = delay;
        self
    }

    /// Tasks with scheduled attempt failures, as `(task, attempts)` pairs.
    pub fn failing_tasks(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.fail_first.iter().map(|(&t, &k)| (t, k))
    }

    /// Total number of scheduled attempt failures (excluding poison).
    pub fn planned_failures(&self) -> usize {
        self.fail_first.values().map(|&k| k as usize).sum()
    }

    /// Tasks with a scheduled corruption strike, as `(task, fault)` pairs.
    pub fn corrupted_tasks(&self) -> impl Iterator<Item = (u32, SdcFault)> + '_ {
        self.corrupt.iter().map(|(&t, &f)| (t, f))
    }

    /// Number of scheduled corruption strikes.
    pub fn planned_corruptions(&self) -> usize {
        self.corrupt.len()
    }

    /// Scheduled node crashes, in insertion order.
    pub fn crashes(&self) -> &[NodeCrash] {
        &self.crashes
    }

    /// Scheduled link degradations, in insertion order.
    pub fn degrades(&self) -> &[LinkDegrade] {
        &self.degrades
    }

    /// The verdict for RPC `seq` to `worker`: a pure function of
    /// `(seed, worker, seq)`, which FNV-1a hashes into a uniform fraction.
    pub fn action(&self, worker: usize, seq: u64) -> FaultAction {
        if self.drop_frac <= 0.0 && self.delay_frac <= 0.0 {
            return FaultAction::Deliver;
        }
        let h = fnv1a64(&bytes_of_u64s(&[self.seed, worker as u64, seq]));
        // 53 high bits -> uniform in [0, 1).
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        if u < self.drop_frac {
            FaultAction::Drop
        } else if u < self.drop_frac + self.delay_frac {
            FaultAction::Delay(self.delay)
        } else {
            FaultAction::Deliver
        }
    }

    /// Each kind, with whether the plan schedules any of it.
    fn kinds(&self) -> [(FaultKind, bool); 7] {
        [
            (FaultKind::FailTask, !self.fail_first.is_empty()),
            (FaultKind::PoisonWorker, !self.poisoned.is_empty()),
            (FaultKind::LoseCompletion, !self.lost.is_empty()),
            (FaultKind::CorruptTask, !self.corrupt.is_empty()),
            (FaultKind::CrashNode, !self.crashes.is_empty()),
            (FaultKind::DegradeLink, !self.degrades.is_empty()),
            (FaultKind::Rpc, self.drop_frac > 0.0 || self.delay_frac > 0.0),
        ]
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.kinds().iter().all(|&(_, on)| !on)
    }

    /// The one check a backend makes of the plan it is handed: `Err` names
    /// the first kind the plan schedules that `backend` cannot inject
    /// (`supported` lists the ones it can), and the backend returns it as
    /// its own typed configuration error.
    pub fn check_kinds(&self, backend: &str, supported: &[FaultKind]) -> Result<(), String> {
        match self.kinds().into_iter().find(|&(k, on)| on && !supported.contains(&k)) {
            Some((kind, _)) => Err(format!("{backend} cannot inject {kind:?} faults")),
            None => Ok(()),
        }
    }

    pub(crate) fn should_fail_attempt(&self, task: u32, attempt: u32) -> bool {
        self.fail_first.get(&task).is_some_and(|&k| attempt < k)
    }

    pub(crate) fn sdc_for(&self, task: u32) -> Option<SdcFault> {
        self.corrupt.get(&task).copied()
    }

    pub(crate) fn is_poisoned(&self, worker: usize) -> bool {
        self.poisoned.contains(&worker)
    }

    pub(crate) fn loses_completion(&self, task: u32) -> bool {
        self.lost.contains(&task)
    }
}

/// Per-run recovery accounting, returned alongside the factors by
/// [`crate::exec::try_execute_with`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Panics caught by the executor (injected and genuine).
    pub panics_caught: u32,
    /// Tasks that completed after at least one failed attempt.
    pub tasks_recovered: u32,
    /// Task re-executions (retries plus poison re-enqueues).
    pub tasks_reexecuted: u32,
    /// Tile buffers restored from pre-execution snapshots.
    pub tiles_rolled_back: u32,
    /// Workers that stopped taking work after repeated poison strikes.
    pub workers_lost: u32,
    /// Silent-data-corruption strikes actually applied by the plan.
    pub sdc_injected: u32,
    /// Corruptions caught by a guard verification (integrity mode on).
    pub sdc_detected: u32,
    /// Tasks whose output was re-produced clean after an SDC detection
    /// (detect-recompute recoveries).
    pub sdc_recomputed: u32,
}

impl FaultStats {
    pub(crate) fn merge(&mut self, other: &FaultStats) {
        self.panics_caught += other.panics_caught;
        self.tasks_recovered += other.tasks_recovered;
        self.tasks_reexecuted += other.tasks_reexecuted;
        self.tiles_rolled_back += other.tiles_rolled_back;
        self.workers_lost += other.workers_lost;
        self.sdc_injected += other.sdc_injected;
        self.sdc_detected += other.sdc_detected;
        self.sdc_recomputed += other.sdc_recomputed;
    }
}

/// Options for the fault-tolerant execution entry point
/// [`crate::exec::try_execute_with`].
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Worker threads; `0` and `1` both run a single worker.
    pub nthreads: usize,
    /// Inner block size (PLASMA's IB); `None` selects the unblocked
    /// kernels (`ib == b`).
    pub ib: Option<usize>,
    /// Per-task retry budget after a caught panic; `0` fails fast.
    pub max_retries: u32,
    /// Injected fault schedule, if any.
    pub plan: Option<FaultPlan>,
    /// Abort (with a [`crate::StallReport`]) when no task completes within
    /// this window.
    pub watchdog: Option<Duration>,
    /// How released tasks are ranked on the shared ready queue (the
    /// per-worker LIFO deques keep their data-reuse behavior regardless).
    /// Defaults to [`SchedPolicy::Fifo`], the executor's historical
    /// behavior.
    pub policy: SchedPolicy,
    /// Guard-based silent-data-corruption checking; defaults to
    /// [`IntegrityMode::Off`] (no guards, no verification cost).
    pub integrity: IntegrityMode,
    /// Resident-tier byte budget for the two-tier tile store. When set
    /// and smaller than the run's allocated tile footprint, the engine
    /// pages tiles between a resident working set (evicted by furthest
    /// next use in the order the scheduler will run) and a checksummed
    /// spill file (see `DESIGN.md`, "Storage tiers"), keeping the
    /// factorization bitwise identical. `None` (the default) keeps every
    /// buffer resident.
    pub resident_budget: Option<u64>,
    /// Directory for spill files in paged runs; `None` uses the OS temp
    /// dir. (The pool routes this to `--state-dir/spill`.)
    pub spill_dir: Option<std::path::PathBuf>,
}

impl ExecOptions {
    /// Options for a plain `nthreads`-worker run with no fault handling
    /// beyond typed errors.
    pub fn with_threads(nthreads: usize) -> Self {
        ExecOptions { nthreads, ..Default::default() }
    }

    /// True when panics must be recovered (snapshot + retry) rather than
    /// reported immediately.
    pub(crate) fn recovery_enabled(&self) -> bool {
        self.max_retries > 0 || self.plan.is_some()
    }
}

static QUIET_INSTALL: Once = Once::new();

thread_local! {
    /// Panic-hook suppression depth for the current thread only. A
    /// process-wide counter would swallow panics from *unrelated* threads
    /// (e.g. concurrent tests) for as long as any engine run is in flight.
    static QUIET_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// RAII guard that silences the panic hook *for the engaging thread only*
/// while fault-tolerant execution is active, so expected (caught) panics
/// don't spam stderr. Each engine worker thread engages its own guard;
/// panics raised on any other thread still reach the previous hook with a
/// full backtrace. Nested guards on one thread stack; the hook prints
/// again once the last one drops. The caught panic's message is preserved
/// in the returned [`crate::ExecError`] either way.
pub(crate) struct QuietPanics {
    /// Pins the guard to the engaging thread (thread-local depth must be
    /// decremented where it was incremented).
    _not_send: std::marker::PhantomData<*const ()>,
}

impl QuietPanics {
    pub(crate) fn engage() -> QuietPanics {
        QUIET_INSTALL.call_once(|| {
            let prev = std::panic::take_hook();
            // The hook-info type is inferred (it was renamed to
            // `PanicHookInfo` in recent toolchains; not naming it keeps
            // this building on both sides of the rename).
            std::panic::set_hook(Box::new(move |info| {
                if QUIET_DEPTH.with(Cell::get) == 0 {
                    prev(info);
                }
            }));
        });
        QUIET_DEPTH.with(|d| d.set(d.get() + 1));
        QuietPanics { _not_send: std::marker::PhantomData }
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        QUIET_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fail_task_schedules_attempts() {
        let p = FaultPlan::new(1).fail_task(5, 2);
        assert!(p.should_fail_attempt(5, 0));
        assert!(p.should_fail_attempt(5, 1));
        assert!(!p.should_fail_attempt(5, 2));
        assert!(!p.should_fail_attempt(6, 0));
        assert_eq!(p.planned_failures(), 2);
    }

    #[test]
    fn random_tasks_are_deterministic_and_distinct() {
        let a = FaultPlan::new(99).fail_random_tasks(50, 5, 1);
        let b = FaultPlan::new(99).fail_random_tasks(50, 5, 1);
        assert_eq!(a, b, "same seed, same plan");
        assert_eq!(a.failing_tasks().count(), 5);
        assert!(a.failing_tasks().all(|(t, k)| (t as usize) < 50 && k == 1));
        let c = FaultPlan::new(100).fail_random_tasks(50, 5, 1);
        assert_ne!(a, c, "different seed, different plan");
    }

    #[test]
    fn random_tasks_clamps_to_population() {
        let p = FaultPlan::new(7).fail_random_tasks(3, 10, 1);
        assert_eq!(p.failing_tasks().count(), 3);
    }

    #[test]
    fn poison_and_lose_are_recorded() {
        let p = FaultPlan::new(0).poison_worker(2).lose_completion(9);
        assert!(p.is_poisoned(2));
        assert!(!p.is_poisoned(0));
        assert!(p.loses_completion(9));
        assert!(!p.is_empty());
        assert!(FaultPlan::new(0).is_empty());
    }

    #[test]
    fn random_corruptions_are_deterministic_and_distinct() {
        let a = FaultPlan::new(7).corrupt_random_tasks(40, 6);
        let b = FaultPlan::new(7).corrupt_random_tasks(40, 6);
        assert_eq!(a, b, "same seed, same strikes");
        assert_eq!(a.planned_corruptions(), 6);
        assert!(a.corrupted_tasks().all(|(t, f)| {
            (t as usize) < 40 && matches!(f.pattern, SdcPattern::BitFlip(bit) if bit < 64)
        }));
        let c = FaultPlan::new(8).corrupt_random_tasks(40, 6);
        assert_ne!(a, c, "different seed, different strikes");
        assert!(!a.is_empty());
        assert_eq!(
            a.sdc_for(a.corrupted_tasks().next().unwrap().0),
            Some(a.corrupted_tasks().next().unwrap().1)
        );
    }

    #[test]
    fn corrupt_task_records_the_strike() {
        let f = SdcFault { slot: 0, element: 3, pattern: SdcPattern::Scale };
        let p = FaultPlan::new(0).corrupt_task(9, f);
        assert_eq!(p.sdc_for(9), Some(f));
        assert_eq!(p.sdc_for(8), None);
        assert_eq!(p.planned_corruptions(), 1);
        assert!(!p.is_empty());
    }

    #[test]
    fn seeded_crash_is_deterministic_and_in_range() {
        let a = FaultPlan::new(42).crash_random_node(7, 1.0);
        let b = FaultPlan::new(42).crash_random_node(7, 1.0);
        assert_eq!(a, b);
        assert!(a.crashes()[0].node < 7);
    }

    #[test]
    fn rpc_verdicts_are_deterministic() {
        let p = FaultPlan::new(42).drop_rpcs(0.3).delay_rpcs(0.2, Duration::from_millis(5));
        for w in 0..4 {
            for seq in 0..64 {
                assert_eq!(p.action(w, seq), p.action(w, seq));
            }
        }
    }

    #[test]
    fn rpc_fractions_roughly_respected() {
        let p = FaultPlan::new(7).drop_rpcs(0.25);
        let drops = (0..4000).filter(|&s| p.action(0, s) == FaultAction::Drop).count();
        assert!((800..1200).contains(&drops), "25% of 4000 ≈ 1000, got {drops}");
    }

    #[test]
    fn a_plan_without_rpc_faults_delivers_every_rpc() {
        let p = FaultPlan::new(3).fail_task(0, 1).crash_node(1, 0.5);
        assert!((0..256).all(|s| p.action(3, s) == FaultAction::Deliver));
    }

    #[test]
    fn check_kinds_names_the_first_unsupported_kind() {
        let plan = FaultPlan::new(1).fail_task(0, 1).crash_node(0, 1.0).drop_rpcs(0.1);
        assert_eq!(
            plan.check_kinds("x", &[FaultKind::FailTask, FaultKind::CrashNode, FaultKind::Rpc]),
            Ok(())
        );
        assert_eq!(
            plan.check_kinds("the simulator", &[FaultKind::CrashNode]),
            Err("the simulator cannot inject FailTask faults".into())
        );
        assert_eq!(FaultPlan::new(9).check_kinds("x", &[]), Ok(()), "an empty plan fits anywhere");
        assert!(FaultPlan::new(9).delay_rpcs(0.0, Duration::from_millis(1)).is_empty());
    }

    #[test]
    fn recovery_enabled_conditions() {
        assert!(!ExecOptions::with_threads(2).recovery_enabled());
        let o = ExecOptions { max_retries: 1, ..Default::default() };
        assert!(o.recovery_enabled());
        let o = ExecOptions { plan: Some(FaultPlan::new(0)), ..Default::default() };
        assert!(o.recovery_enabled());
    }
}
