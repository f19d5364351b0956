//! Deterministic fault injection and recovery policy for the executors.
//!
//! A [`FaultPlan`] is a seeded, fully deterministic schedule of injected
//! failures: fail a given task's first K attempts, poison a worker thread
//! (every task it touches fails until it "crashes"), or drop a task's
//! completion notification (to exercise the stall watchdog). Injected
//! failures are real `panic!`s raised inside the kernel-execution
//! `catch_unwind` scope, so they exercise exactly the recovery path a real
//! kernel panic would take: write-set rollback plus bounded retry.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Once;
use std::time::Duration;

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

/// SplitMix64: the seeded stream behind [`FaultPlan`]'s random picks and
/// `hqr-sim`'s fault schedules, so a seed means the same schedule in both.
/// `hqr-net`'s `NetFaultPlan` and the retry jitter do not draw from it:
/// they hash their keys with `hqr_tile::io::fnv1a64`.
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
    /// Picks which write-set buffer is struck (mod the task's write count).
    pub slot: u32,
    /// Picks which element within the slot's buffer is struck (mod its
    /// length: `b²` for a tile, `t_len(b, ib)` for a T factor).
    pub element: u32,
    /// The corruption applied to that element.
    pub pattern: SdcPattern,
}

/// A deterministic, seeded schedule of injected execution faults.
///
/// Plans are value types built with a fluent API:
///
/// ```
/// use hqr_runtime::FaultPlan;
/// let plan = FaultPlan::new(42).fail_task(3, 1).fail_random_tasks(100, 3, 1);
/// assert!(plan.planned_failures() >= 4);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
    pub fn fail_random_tasks(mut self, n_tasks: usize, count: usize, attempts: u32) -> Self {
        let mut state = self.seed ^ 0xfa17_fa17_fa17_fa17;
        let want = count.min(n_tasks);
        let mut picked = BTreeSet::new();
        while picked.len() < want {
            let tid = (splitmix64(&mut state) % n_tasks.max(1) as u64) as u32;
            picked.insert(tid);
        }
        for tid in picked {
            self = self.fail_task(tid, attempts);
        }
        self
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
    pub fn corrupt_random_tasks(self, n_tasks: usize, count: usize) -> Self {
        let seed = self.seed;
        self.corrupt_random_tasks_seeded(seed, n_tasks, count)
    }

    /// [`FaultPlan::corrupt_random_tasks`] drawing from an explicit seed
    /// (the CLI's `--sdc-seed`), so corruption picks decouple from the
    /// panic-injection picks of [`FaultPlan::fail_random_tasks`].
    pub fn corrupt_random_tasks_seeded(mut self, seed: u64, n_tasks: usize, count: usize) -> Self {
        let mut state = seed ^ 0x5dc0_5dc0_5dc0_5dc0;
        let want = count.min(n_tasks);
        let mut picked = BTreeSet::new();
        while picked.len() < want {
            let tid = (splitmix64(&mut state) % n_tasks.max(1) as u64) as u32;
            picked.insert(tid);
        }
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

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.fail_first.is_empty()
            && self.poisoned.is_empty()
            && self.lost.is_empty()
            && self.corrupt.is_empty()
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

    pub(crate) fn loses_any_completion(&self) -> bool {
        !self.lost.is_empty()
    }

    /// True when the plan poisons at least one worker thread. Poisoning is
    /// a per-engine-run concept (worker indices belong to one engine's
    /// thread pool), so the multi-job [`crate::pool::JobPool`] rejects such
    /// plans at submission.
    pub(crate) fn poisons_any_worker(&self) -> bool {
        !self.poisoned.is_empty()
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
        let c = FaultPlan::new(7).corrupt_random_tasks_seeded(8, 40, 6);
        assert_ne!(a, c, "explicit seed decouples the picks");
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
    fn recovery_enabled_conditions() {
        assert!(!ExecOptions::with_threads(2).recovery_enabled());
        let o = ExecOptions { max_retries: 1, ..Default::default() };
        assert!(o.recovery_enabled());
        let o = ExecOptions { plan: Some(FaultPlan::new(0)), ..Default::default() };
        assert!(o.recovery_enabled());
    }
}
