//! The pool's lifecycle rules, checked on `step` itself — no threads, no
//! matrices, no clock.
//!
//! * an exhaustive breadth-first walk over every interleaving of client
//!   calls, supervisor ticks with each observable outcome, run conclusions
//!   and crash-then-replay on a one-slot, one-queue-place pool, holding the
//!   lifecycle invariants at every state reached;
//! * the same world driven through random event sequences, checking at
//!   every prefix that the journal written so far folds back to the live
//!   state (live ≡ replay, state for state) and that a compaction of either
//!   folds to the same;
//! * the lost-request window of the seven-lock pool, pinned: a cancel or
//!   suspend acknowledged `true` on a parked job takes effect however it
//!   interleaves with `resume_job` and the supervisor.

use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::time::Duration;

use hqr_runtime::fault::splitmix64;
use hqr_runtime::pool_step::{
    snapshot, step, Conclusion, Effect, Event, Job, Observed, PoolState, SuspendKind, Verdict,
};
use hqr_runtime::{DurabilityConfig, JobState, JournalEvent, PoolConfig, QosClass};
use proptest::prelude::*;

/// Time stands still: backoff is zero, so nothing depends on it.
const NOW: Duration = Duration::ZERO;
const INTERVAL: Duration = Duration::from_millis(1);
const DEADLINE: Duration = Duration::from_secs(1);

fn cfg() -> PoolConfig {
    let mut durability = DurabilityConfig::at("/nonexistent");
    durability.ckpt_interval = INTERVAL;
    PoolConfig {
        queue_cap: 1,
        max_active: 1,
        mem_budget: 1,
        backoff_base: Duration::ZERO,
        durability: Some(durability),
        ..PoolConfig::default()
    }
}

/// What a supervisor tick observes of the running jobs.
#[derive(Clone, Copy, Debug)]
enum Sees {
    /// Nothing of note: deliver pending requests, preempt, admit.
    Idle,
    /// Every run is past any deadline.
    Late,
    /// Every run has made progress for a checkpoint interval.
    Progress,
}

#[derive(Clone, Copy, Debug)]
enum Act {
    /// Batch class, one retry, a deadline, dedup key "k".
    SubmitBatch,
    /// Interactive class, no deadline (so periodic checkpoints apply).
    SubmitInteractive,
    Cancel(u64),
    Suspend(u64),
    Resume(u64),
    DrainStart,
    DrainExpire,
    Tick(Sees),
    /// A task of every unhalted run exhausts its budgets.
    Fault,
    /// Every unhalted run completes its last task and is concluded.
    Finish,
    /// Every halted run reaches its quiescent point and is concluded.
    Quiesce,
    /// kill -9, then recovery: fold the journal, restart, compact.
    Crash,
}

const ACTS: [Act; 17] = [
    Act::SubmitBatch,
    Act::SubmitInteractive,
    Act::Cancel(1),
    Act::Cancel(2),
    Act::Suspend(1),
    Act::Suspend(2),
    Act::Resume(1),
    Act::Resume(2),
    Act::DrainStart,
    Act::DrainExpire,
    Act::Tick(Sees::Idle),
    Act::Tick(Sees::Late),
    Act::Tick(Sees::Progress),
    Act::Fault,
    Act::Finish,
    Act::Quiesce,
    Act::Crash,
];

/// The pool's control state plus a model of everything around it: the
/// data plane's runs, the journal file, and what clients were promised.
#[derive(Clone, Debug)]
struct World {
    pool: PoolState<()>,
    /// Runs the supervisor has activated but not yet put where a halt can
    /// reach them — a halt for one of these is lost, as in the live pool.
    starting: BTreeSet<u64>,
    /// Each run's verdict (the first halt wins).
    runs: BTreeMap<u64, Option<Verdict>>,
    journal: Vec<JournalEvent>,
    /// Jobs whose cancel / suspend was acknowledged `true`.
    cancelled: BTreeSet<u64>,
    parked: BTreeSet<u64>,
    submits: [u8; 2],
}

impl World {
    fn new() -> World {
        World {
            pool: PoolState::new(cfg()),
            starting: BTreeSet::new(),
            runs: BTreeMap::new(),
            journal: Vec::new(),
            cancelled: BTreeSet::new(),
            parked: BTreeSet::new(),
            submits: [0; 2],
        }
    }

    /// Feed one event to `step` and play the driver: journal, activate,
    /// halt. Returns whether the event was acknowledged.
    fn feed(&mut self, event: Event<()>) -> bool {
        let mut ack = false;
        for effect in step(&mut self.pool, event, NOW) {
            match effect {
                Effect::Journal(ev) => self.journal.push(ev),
                Effect::Activate(id, held) => {
                    assert_eq!(held, Some(()), "job {id} activated without its payload");
                    assert!(!self.cancelled.contains(&id), "cancelled job {id} runs again");
                    assert!(!self.parked.contains(&id), "suspended job {id} runs unresumed");
                    self.starting.insert(id);
                }
                Effect::Halt(id, v) => {
                    if let Some(verdict) = self.runs.get_mut(&id) {
                        verdict.get_or_insert(v);
                    }
                }
                Effect::Ack(yes) => ack = yes,
                Effect::Submitted(answer) => ack = answer.is_ok(),
                Effect::DropCheckpoint(_) | Effect::Wake => {}
            }
        }
        ack
    }

    fn conclude(&mut self, id: u64, verdict: Option<Verdict>) {
        let durable = match verdict {
            None => Some(format!("results/job-{id}.result")),
            Some(Verdict::Suspend(_)) => Some(format!("ckpt/job-{id}.ckpt")),
            Some(_) => None,
        };
        let tasks_done = if verdict.is_none() { 3 } else { 1 };
        let payload = Some(());
        let run = Conclusion { id, verdict, tasks_done, durable, payload, ..Conclusion::default() };
        self.feed(Event::Concluded(run));
    }

    fn perform(&mut self, act: Act) {
        match act {
            Act::SubmitBatch | Act::SubmitInteractive => {
                let batch = matches!(act, Act::SubmitBatch);
                let (slot, most) = if batch { (0, 2) } else { (1, 1) };
                if self.submits[slot] == most {
                    return;
                }
                self.submits[slot] += 1;
                let job = Job {
                    qos: if batch { QosClass::Batch } else { QosClass::Interactive },
                    job_retries: u32::from(batch),
                    deadline: batch.then_some(DEADLINE),
                    dedup: batch.then(|| "k".to_string()),
                    footprint: 1,
                    tasks_total: 3,
                    spec: Some(vec![slot as u8]),
                    ..Job::default()
                };
                self.feed(Event::Submit(Box::new(job), Some(())));
            }
            Act::Cancel(id) => {
                if self.feed(Event::Request(id, Verdict::Cancel)) {
                    self.cancelled.insert(id);
                    self.parked.remove(&id);
                }
            }
            Act::Suspend(id) => {
                if self.feed(Event::Request(id, Verdict::Suspend(SuspendKind::Park))) {
                    self.parked.insert(id);
                }
            }
            Act::Resume(id) => {
                if self.feed(Event::ResumeJob(id)) {
                    self.parked.remove(&id);
                }
            }
            Act::DrainStart => {
                self.feed(Event::Drain { grace_over: false });
            }
            Act::DrainExpire => {
                if self.pool.draining {
                    self.feed(Event::Drain { grace_over: true });
                    let running = self.pool.live().filter(|j| j.state == JobState::Running);
                    self.parked.extend(running.map(|j| j.id));
                }
            }
            Act::Tick(sees) => {
                // The supervisor finishes the activations of its last tick
                // before it looks around again.
                let started = std::mem::take(&mut self.starting);
                self.runs.extend(started.into_iter().map(|id| (id, None)));
                let (elapsed, progressed) = match sees {
                    Sees::Idle => (Duration::ZERO, false),
                    Sees::Late => (DEADLINE * 2, false),
                    Sees::Progress => (INTERVAL, true),
                };
                let seen = self.runs.iter().map(|(&id, verdict)| Observed {
                    id,
                    remaining: 2,
                    progressed,
                    halted: verdict.is_some(),
                    elapsed,
                });
                self.feed(Event::Tick(seen.collect()));
            }
            Act::Fault => {
                for verdict in self.runs.values_mut() {
                    verdict.get_or_insert(Verdict::Fault("task 0 failed".into()));
                }
            }
            Act::Finish | Act::Quiesce => {
                let finish = matches!(act, Act::Finish);
                let ready: Vec<u64> = self
                    .runs
                    .iter()
                    .filter(|(_, v)| v.is_none() == finish)
                    .map(|(&id, _)| id)
                    .collect();
                for id in ready {
                    let verdict = self.runs.remove(&id).expect("listed");
                    self.conclude(id, verdict);
                }
            }
            Act::Crash => {
                self.pool = recovered(&self.journal);
                // Compaction: the journal is replaced by the snapshot.
                self.journal = snapshot(&self.pool);
                self.starting.clear();
                self.runs.clear();
                // An acknowledgement is a promise of this process only.
                self.cancelled.clear();
                self.parked.clear();
            }
        }
    }

    /// Everything the rules may depend on (the journal is history).
    fn key(&self) -> String {
        let World { pool, starting, runs, cancelled, parked, submits, .. } = self;
        format!("{pool:?}{starting:?}{runs:?}{cancelled:?}{parked:?}{submits:?}")
    }

    /// Let the pool run with no further client events: tick, let halted
    /// runs quiesce, let the others finish, until nothing changes.
    fn left_alone(mut self) -> World {
        for _ in 0..12 {
            for act in [Act::Tick(Sees::Idle), Act::Quiesce, Act::Tick(Sees::Idle), Act::Finish] {
                self.perform(act);
            }
        }
        self
    }
}

/// What recovery makes of a journal: fold, restart, hydrate.
fn recovered(journal: &[JournalEvent]) -> PoolState<()> {
    let mut pool = PoolState::replayed(cfg(), journal.iter().cloned());
    step(&mut pool, Event::Restart, NOW);
    let live: Vec<u64> = pool.live().map(|j| j.id).collect();
    for id in live {
        let job = pool.jobs.get_mut(&id).expect("live");
        // What the spec knows: class, budget, deadline, price.
        let batch = job.spec.as_deref() == Some(&[0]);
        job.qos = if batch { QosClass::Batch } else { QosClass::Interactive };
        (job.job_retries, job.deadline, job.footprint) =
            (u32::from(batch), batch.then_some(DEADLINE), 1);
        pool.held.insert(id, ());
    }
    pool
}

/// The durable projection of a state: what a journal can and must tell.
/// A parked job and a queued one are the same to it — `resume_job` writes
/// no record, and a restart re-queues both.
type Durable = Vec<(u64, JobState, u32, Option<String>, Option<String>, Option<String>)>;

fn durable(pool: &PoolState<()>) -> Durable {
    pool.jobs
        .values()
        .map(|j| {
            let state = if j.state == JobState::Suspended { JobState::Queued } else { j.state };
            (j.id, state, j.attempts, j.dedup.clone(), j.ckpt_file.clone(), j.result_file.clone())
        })
        .collect()
}

fn replayed(journal: &[JournalEvent]) -> PoolState<()> {
    PoolState::replayed(cfg(), journal.iter().cloned())
}

/// live ≡ replay: the journal written so far folds to the live state, and
/// the snapshot of either folds to the same.
fn assert_live_is_replay(w: &World, at: &str) {
    let folded = replayed(&w.journal);
    assert_eq!(durable(&folded), durable(&w.pool), "{at}: journal {:?}", w.journal);
    for (what, state) in [("live", &w.pool), ("replayed", &folded)] {
        let again = replayed(&snapshot(state));
        assert_eq!(durable(&again), durable(&w.pool), "{at}: snapshot of the {what} state");
    }
}

fn assert_invariants(before: &World, w: &World, at: &str) {
    let pool = &w.pool;
    // Every accepted id is in exactly one place, and the place is its
    // state: the live index is exactly the unsettled jobs ...
    let unsettled: Vec<u64> =
        pool.jobs.values().filter(|j| j.settled().is_none()).map(|j| j.id).collect();
    assert_eq!(pool.live().map(|j| j.id).collect::<Vec<_>>(), unsettled, "{at}: live index");
    // ... a waiting job holds its payload and a running one does not ...
    // (a completed one may hold its unclaimed result) ...
    for job in pool.jobs.values().filter(|j| j.state != JobState::Completed) {
        let waiting =
            matches!(job.state, JobState::Queued | JobState::Backoff | JobState::Suspended);
        assert_eq!(pool.held.contains_key(&job.id), waiting, "{at}: held of {job:?}");
    }
    // ... and the data plane runs exactly the running jobs.
    let running: BTreeSet<u64> =
        pool.live().filter(|j| j.state == JobState::Running).map(|j| j.id).collect();
    let runs: BTreeSet<u64> = w.runs.keys().chain(&w.starting).copied().collect();
    assert_eq!(runs, running, "{at}: runs");
    assert!(running.len() <= 1, "{at}: max_active");
    // Bytes in use = sum of the running footprints.
    let charged: u64 = running.iter().map(|id| pool.jobs[id].footprint).sum();
    assert_eq!(pool.in_use, charged, "{at}: bytes in use");
    // Settled is absorbing — across a crash too.
    for (id, was) in &before.pool.jobs {
        if let Some(state) = was.settled() {
            assert_eq!(pool.jobs[id].state, state, "{at}: settled job {id} moved");
        }
    }
    // An acknowledged request takes effect: the job is on its way out (or
    // aside), never back in the queue.
    for id in &w.cancelled {
        let state = pool.jobs[id].state;
        let ok = [JobState::Running, JobState::Cancelled, JobState::Completed].contains(&state);
        assert!(ok, "{at}: cancelled job {id} is {state}");
    }
    for id in &w.parked {
        let state = pool.jobs[id].state;
        assert!(
            !matches!(state, JobState::Queued | JobState::Backoff),
            "{at}: suspended job {id} is {state}"
        );
    }
    assert_live_is_replay(w, at);
}

/// An accepted job under no further client events reaches a terminal state
/// (a parked one waits for its client; a drained pool starts nothing).
fn assert_liveness(w: &World, at: &str) {
    let end = w.clone().left_alone();
    for job in end.pool.jobs.values() {
        let stays = job.state == JobState::Suspended
            || (end.pool.draining && matches!(job.state, JobState::Queued | JobState::Backoff));
        assert!(job.settled().is_some() || stays, "{at}: left alone, {job:?} never ends");
    }
    // Left alone the supervisor ticks before anything finishes, so a halt
    // that is owed lands: only a run already complete escapes its cancel,
    // and a job told to suspend never completes behind its client's back.
    let done = |w: &World, id| w.pool.jobs[id].state == JobState::Completed;
    for id in end.cancelled.iter().filter(|id| !done(w, id)) {
        let state = end.pool.jobs[id].state;
        assert_eq!(state, JobState::Cancelled, "{at}: the cancel of job {id} was dropped");
    }
    for id in end.parked.iter().filter(|id| !done(w, id)) {
        assert!(!done(&end, id), "{at}: the suspend of job {id} was dropped");
    }
}

#[test]
fn every_interleaving_to_depth_eight_keeps_the_lifecycle_invariants() {
    const DEPTH: usize = 8;
    let mut seen: HashSet<String> = HashSet::new();
    let mut frontier: VecDeque<(World, Vec<Act>)> = VecDeque::from([(World::new(), Vec::new())]);
    let (mut states, mut terminal) = (0usize, BTreeSet::new());
    while let Some((world, path)) = frontier.pop_front() {
        for act in ACTS {
            let mut next = world.clone();
            next.perform(act);
            let mut path = path.clone();
            path.push(act);
            let at = format!("{path:?}");
            assert_invariants(&world, &next, &at);
            if !seen.insert(next.key()) {
                continue;
            }
            states += 1;
            assert_liveness(&next, &at);
            terminal.extend(next.pool.jobs.values().filter_map(|j| j.settled()).map(|s| s.name()));
            if path.len() < DEPTH {
                frontier.push_back((next, path));
            }
        }
    }
    // The walk is not vacuous: it reaches every way a job can end.
    let all = ["cancelled", "completed", "quarantined", "shed"];
    assert_eq!(terminal.into_iter().collect::<Vec<_>>(), all, "{states} states");
    assert!(states > 1_000, "only {states} distinct states explored");
}

/// The window of the seven-lock pool: `resume_job` took the job out of
/// `parked` before it pushed it to `pending`, and a cancel or suspend
/// landing in between returned `true` and was dropped. With one lock there
/// is no in-between; every order of the calls ends the job where the last
/// acknowledged request says.
#[test]
fn an_acknowledged_request_on_a_parked_job_is_never_dropped() {
    let orders = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
    for wish in [Act::Cancel(1), Act::Suspend(1)] {
        for order in orders {
            let acts = [Act::Resume(1), wish, Act::Tick(Sees::Idle)];
            let mut w = World::new();
            for act in [Act::SubmitInteractive, Act::Suspend(1)] {
                w.perform(act);
            }
            assert_eq!(w.pool.jobs[&1].state, JobState::Suspended);
            for i in order {
                let before = w.clone();
                w.perform(acts[i]);
                assert_invariants(&before, &w, &format!("{wish:?} in order {order:?}"));
            }
            let end = w.clone().left_alone();
            let state = end.pool.jobs[&1].state;
            if w.cancelled.contains(&1) {
                assert_eq!(state, JobState::Cancelled, "{order:?}: the cancel was dropped");
            } else if w.parked.contains(&1) {
                assert_eq!(state, JobState::Suspended, "{order:?}: the suspend was dropped");
            } else {
                // Suspending a parked job is refused; once resumed it runs.
                assert_eq!(state, JobState::Completed, "{order:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|n| n.parse().ok()).unwrap_or(32)
    ))]

    /// live ≡ replay, state for state, at every prefix of a random event
    /// sequence four times as long as the exhaustive walk is deep.
    #[test]
    fn random_event_sequences_replay_to_the_live_state(seed in any::<u64>()) {
        let (mut w, mut rng) = (World::new(), seed);
        for n in 0..24 {
            let act = ACTS[(splitmix64(&mut rng) % ACTS.len() as u64) as usize];
            let before = w.clone();
            w.perform(act);
            assert_invariants(&before, &w, &format!("seed {seed}, step {n}: {act:?}"));
        }
        assert_liveness(&w, "at the end");
    }
}
