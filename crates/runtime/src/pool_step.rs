//! The pool's control plane as a pure state machine.
//!
//! Everything that decides how a job moves between `Queued`, `Backoff`,
//! `Running`, `Suspended` and the settled states lives in one function,
//! [`step`]: it changes the control state for one [`Event`] at a given time
//! and returns the [`Effect`]s somebody else must carry out. No lock, no
//! I/O, no clock — so the same rules run under every driver: the live pool
//! ([`crate::pool`]), recovery (the journal's records folded through
//! [`Event::Replay`], then [`Event::Restart`] — a restart cannot have a
//! rule the live pool lacks), both journal compactions ([`snapshot`]), and
//! the exploration in `tests/pool_step.rs`, in virtual time with no payload
//! at all.
//!
//! A job's place in the pool *is* its [`JobState`]: `Queued` and `Backoff`
//! jobs are the bounded queue, `Running` jobs hold the memory in use,
//! `Suspended` jobs are parked. `P` is whatever the driver needs to run a
//! job; `step` moves it around and never looks inside.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use crate::fault::FaultStats;
use crate::journal::JournalEvent;
use crate::pool::{JobState, PoolConfig, QosClass, SubmitError};
use crate::retry::RetryPolicy;

/// Why a running job is being suspended at its next quiescent point.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SuspendKind {
    /// A graceful drain: the job parks like [`SuspendKind::Park`]; on a
    /// durable pool its checkpoint file and journal records are what the
    /// next `JobPool::recover` resumes from.
    Drain,
    /// An explicit suspend request: the job parks in
    /// [`JobState::Suspended`] until `JobPool::resume_job`.
    Park,
    /// A higher-QoS arrival needs the job's memory or active slot; the
    /// job re-queues from its checkpoint and re-admits when room frees.
    Preempt,
    /// A periodic durability checkpoint; the job re-queues immediately
    /// and loses no retry budget.
    Periodic,
}

impl SuspendKind {
    const ALL: [SuspendKind; 4] =
        [SuspendKind::Drain, SuspendKind::Park, SuspendKind::Preempt, SuspendKind::Periodic];

    /// Journaled with the suspension and shown as a parked job's error.
    fn reason(self) -> &'static str {
        match self {
            SuspendKind::Drain => "suspended by drain; state checkpointed",
            SuspendKind::Park => "suspended by request; resume with resume-job",
            SuspendKind::Preempt => "preempted by a higher-QoS job",
            SuspendKind::Periodic => "periodic durability checkpoint",
        }
    }

    /// The kind a journaled reason names; a reason nobody recognises
    /// parks, the choice that loses no work.
    fn of_reason(reason: &str) -> SuspendKind {
        SuspendKind::ALL.into_iter().find(|k| k.reason() == reason).unwrap_or(SuspendKind::Park)
    }

    /// True when the job waits for `resume_job` instead of re-queueing.
    fn parks(self) -> bool {
        matches!(self, SuspendKind::Drain | SuspendKind::Park)
    }
}

/// Why a run was halted before its last task.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// A task exhausted its budgets; carries the engine's message.
    Fault(String),
    /// The per-attempt deadline elapsed.
    Deadline(Duration),
    /// The tenant cancelled the job.
    Cancel,
    /// Checkpoint the job at the next quiescent point, for this reason.
    Suspend(SuspendKind),
}

/// What a submission is told: the job's id and whether its dedup key named
/// an existing job (nothing was created), or why it was refused.
pub type Answer = Result<(u64, bool), SubmitError>;

/// The refusal of a job that needs more resident bytes than the budget.
pub fn over_budget(cfg: &PoolConfig, need: u64) -> Option<SubmitError> {
    (need > cfg.mem_budget).then_some(SubmitError::OverBudget { need, budget: cfg.mem_budget })
}

/// Exponential backoff for job-level retries on the shared [`RetryPolicy`]
/// (jitter in [0.5, 1.0] from `(salt, attempts)`): jobs that fail together
/// spread their retries out, and pool and RPC layer share one implementation.
fn retry_backoff(cfg: &PoolConfig, attempts: u32, salt: u64) -> Duration {
    let policy =
        RetryPolicy { base: cfg.backoff_base, cap: cfg.backoff_cap, max_attempts: u32::MAX };
    policy.backoff(attempts, salt)
}

/// One job, from acceptance to its settled state: built once from the
/// spec, filed by `step`, never taken apart to build another.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Job {
    /// Stable id, assigned at acceptance.
    pub id: u64,
    /// Tenant label.
    pub tag: String,
    /// Priority tier for admission, shedding and preemption.
    pub qos: QosClass,
    /// Re-runs allowed after the first attempt.
    pub job_retries: u32,
    /// Wall-clock budget per activation.
    pub deadline: Option<Duration>,
    /// Bytes charged against the memory budget while running.
    pub footprint: u64,
    /// Client-supplied idempotency key.
    pub dedup: Option<String>,
    /// Encoded spec: on its way into a new arrival's `Accepted` record,
    /// and kept on a replayed job for recovery and compaction to use.
    pub spec: Option<Vec<u8>>,
    /// Tasks in the job's DAG.
    pub tasks_total: usize,
    /// Where the job is in its life — and thereby in the pool.
    pub state: JobState,
    /// Attempts started (initial run plus job-level retries).
    pub attempts: u32,
    /// The next activation continues a suspended attempt (no budget used).
    pub resuming: bool,
    /// A job in `Backoff` is not admitted before this time.
    pub not_before: Duration,
    /// A cancel or parking suspend acknowledged mid-run, not yet honoured.
    pub request: Option<Verdict>,
    /// Tasks completed in the current or last attempt.
    pub tasks_done: usize,
    /// Why the job is in its current state, when that needs saying.
    pub error: Option<String>,
    /// Fault-recovery accounting accumulated across attempts.
    pub stats: FaultStats,
    /// Last durable checkpoint, relative to the state directory.
    pub ckpt_file: Option<String>,
    /// Tasks complete in that checkpoint.
    pub ckpt_tasks_done: u64,
    /// Stored result of a completed job, relative to the state directory.
    pub result_file: Option<String>,
    /// When the job was accepted.
    pub submitted: Duration,
    /// Submission to the state a waiter is released in.
    pub wall: Option<Duration>,
}

impl Job {
    /// The state the job ended in, if it will never run again. A parked
    /// job is not settled: `resume_job` or a restart re-queues it.
    pub fn settled(&self) -> Option<JobState> {
        (self.state.is_terminal() && self.state != JobState::Suspended).then_some(self.state)
    }

    /// True while a failed attempt is re-run rather than quarantined —
    /// which is also when the driver must keep the attempt's seed.
    pub fn may_retry(&self) -> bool {
        self.attempts <= self.job_retries
    }

    /// The record that settles this job in state `to`.
    fn terminal_event(&self, to: JobState) -> JournalEvent {
        let id = self.id;
        let why = || self.error.clone().unwrap_or_default();
        match to {
            JobState::Completed => JournalEvent::Completed { id, file: self.result_file.clone() },
            JobState::Quarantined => JournalEvent::Quarantined { id, error: why() },
            JobState::Cancelled => JournalEvent::Cancelled { id },
            _ => JournalEvent::Shed { id, reason: why() },
        }
    }
}

/// The control plane: every job ever accepted, and what the rules need
/// besides.
#[derive(Clone, Debug, PartialEq)]
pub struct PoolState<P> {
    /// The pool's capacity and timing limits.
    pub cfg: PoolConfig,
    /// Every accepted job by id.
    pub jobs: BTreeMap<u64, Job>,
    /// What the driver holds for a job: its runnable seed, later its
    /// unclaimed result; nothing while it runs (the run owns it).
    pub held: BTreeMap<u64, P>,
    /// Ids of the jobs not settled, so a tick need not walk every job.
    live: BTreeSet<u64>,
    /// Idempotent-submission index: dedup key -> job id.
    dedup: BTreeMap<String, u64>,
    next_id: u64,
    /// A drain or shutdown closed admission.
    pub draining: bool,
    /// A shutdown, not a drain, closed it: what still waits once nothing
    /// runs is shed. After a drain that is the journal's to resubmit.
    closing: bool,
    /// Bytes charged to the running jobs.
    pub in_use: u64,
}

/// What the supervisor saw of one running job when it ticked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Observed {
    /// The job.
    pub id: u64,
    /// Tasks not yet done.
    pub remaining: usize,
    /// Whether this activation has completed a task.
    pub progressed: bool,
    /// Whether the run is already halted.
    pub halted: bool,
    /// Time since the activation started.
    pub elapsed: Duration,
}

/// How one run ended, as its driver reports it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Conclusion<P> {
    /// The job.
    pub id: u64,
    /// Why the run stopped; `None` when it finished.
    pub verdict: Option<Verdict>,
    /// Tasks the run leaves done.
    pub tasks_done: usize,
    /// The run's fault accounting.
    pub stats: FaultStats,
    /// The file the driver made durable first: a finished run's stored
    /// result, a suspended run's checkpoint. `None` on a volatile pool or
    /// when the write failed — I/O failure is an input to the rules.
    pub durable: Option<String>,
    /// Jobs whose stored results retention removed to make room.
    pub pruned: Vec<u64>,
    /// The payload going back on file with the job.
    pub payload: Option<P>,
}

/// Something that happened; the input of [`step`].
#[derive(Clone, Debug, PartialEq)]
pub enum Event<P> {
    /// A priced and validated arrival, and what the driver holds for it.
    Submit(Box<Job>, Option<P>),
    /// `JobPool::cancel` or `JobPool::suspend` (a parking suspend).
    Request(u64, Verdict),
    /// `JobPool::resume_job`.
    ResumeJob(u64),
    /// `JobPool::drain`: stop admitting; after the grace, suspend what runs.
    Drain {
        /// The grace period has elapsed.
        grace_over: bool,
    },
    /// `JobPool::shutdown`: stop admitting; once nothing runs, shed what
    /// waits unless a drain came first.
    Shutdown {
        /// No job is running any more.
        quiet: bool,
    },
    /// A supervisor activation, with what it saw of every running job.
    Tick(Vec<Observed>),
    /// A run quiesced and its result or checkpoint is written.
    Concluded(Conclusion<P>),
    /// One record of the journal, on replay.
    Replay(JournalEvent),
    /// The process that wrote the replayed journal is gone: whatever it
    /// left running, backing off or parked is queued again.
    Restart,
}

/// Something the driver must do, in the order given.
#[derive(Clone, Debug, PartialEq)]
pub enum Effect<P> {
    /// Append to the write-ahead journal; what follows waits for it.
    Journal(JournalEvent),
    /// Start the job's run from what was held for it.
    Activate(u64, Option<P>),
    /// Halt the job's run with this verdict (a run keeps its first).
    Halt(u64, Verdict),
    /// Delete the checkpoint file of a job that will never run again.
    DropCheckpoint(u64),
    /// Wake the threads blocked in `JobPool::wait`.
    Wake,
    /// Answer a submission.
    Submitted(Answer),
    /// Answer a cancel, suspend or resume: whether it found a job to act on.
    Ack(bool),
}

impl<P> PoolState<P> {
    /// An empty pool under `cfg`'s limits.
    pub fn new(cfg: PoolConfig) -> PoolState<P> {
        PoolState {
            cfg,
            jobs: BTreeMap::new(),
            held: BTreeMap::new(),
            live: BTreeSet::new(),
            dedup: BTreeMap::new(),
            next_id: 1,
            draining: false,
            closing: false,
            in_use: 0,
        }
    }

    /// The state a journal's records fold to.
    pub fn replayed(cfg: PoolConfig, events: impl IntoIterator<Item = JournalEvent>) -> Self {
        let mut state = PoolState::new(cfg);
        for ev in events {
            step(&mut state, Event::Replay(ev), Duration::ZERO);
        }
        state
    }

    /// The jobs not settled, lowest id first.
    pub fn live(&self) -> impl Iterator<Item = &Job> {
        self.live.iter().map(|id| &self.jobs[id])
    }

    /// What an arrival needing `need` bytes can be told before it is filed:
    /// refused (draining, over budget), or the job its dedup key names.
    pub fn precheck(&self, dedup: Option<&str>, need: u64) -> Option<Answer> {
        if self.draining {
            return Some(Err(SubmitError::Draining));
        }
        if let Some(&id) = dedup.and_then(|k| self.dedup.get(k)) {
            return Some(Ok((id, true)));
        }
        over_budget(&self.cfg, need).map(Err)
    }

    /// Drop every job `gone` selects, as if it had never been accepted.
    pub fn forget(&mut self, gone: impl Fn(&Job) -> bool) {
        self.jobs.retain(|_, j| !gone(j));
        self.held.retain(|id, _| self.jobs.contains_key(id));
        self.live.retain(|id| self.jobs.contains_key(id));
        self.dedup.retain(|_, id| self.jobs.contains_key(id));
    }

    fn live_ids(&self, keep: impl Fn(&Job) -> bool) -> Vec<u64> {
        self.live().filter(|j| keep(j)).map(|j| j.id).collect()
    }

    fn job_mut(&mut self, id: u64) -> &mut Job {
        self.jobs.get_mut(&id).expect("the rules name known jobs")
    }

    /// Make a durable change: apply the record and queue it for the
    /// journal. Replay applies the same records through the same `absorb`,
    /// so a journal cannot fold to anything but the state that wrote it.
    fn record(&mut self, ev: JournalEvent, now: Duration, fx: &mut Vec<Effect<P>>) {
        self.absorb(&ev, now);
        fx.push(Effect::Journal(ev));
    }

    /// What one journal record says about its job. What no record holds
    /// (footprints, bytes in use, backoff gates, payloads) is the live
    /// caller's to set, and stays empty on replay until jobs are hydrated.
    fn absorb(&mut self, ev: &JournalEvent, now: Duration) {
        let id = ev.job_id();
        // Records about a job a rotation forgot, or about a settled job (a
        // crash racing a compaction can leave one), say nothing.
        let Some(job) = self.jobs.get_mut(&id) else { return };
        if job.settled().is_some() && !matches!(ev, JournalEvent::ResultPruned { .. }) {
            return;
        }
        let wall = Some(now.saturating_sub(job.submitted));
        let settled = match ev {
            // Filed by `submit`, or by the replay arm of `step`; the retired
            // over-budget admission note changes nothing.
            JournalEvent::Accepted { .. } | JournalEvent::OverBudgetAdmitted { .. } => None,
            JournalEvent::Started { attempt, .. } => {
                job.attempts = job.attempts.max(*attempt);
                (job.state, job.error, job.wall) = (JobState::Running, None, None);
                None
            }
            JournalEvent::Checkpointed { tasks_done, file, .. } => {
                (job.ckpt_file, job.ckpt_tasks_done) = (Some(file.clone()), *tasks_done);
                job.tasks_done = *tasks_done as usize;
                None
            }
            JournalEvent::Failed { attempts, error, .. } => {
                job.attempts = job.attempts.max(*attempts);
                (job.state, job.error) = (JobState::Backoff, Some(error.clone()));
                None
            }
            // Parked until `resume_job`, or straight back on the queue.
            JournalEvent::Suspended { reason, .. } if SuspendKind::of_reason(reason).parks() => {
                (job.state, job.error, job.wall) =
                    (JobState::Suspended, Some(reason.clone()), wall);
                None
            }
            JournalEvent::Suspended { .. } => {
                (job.state, job.error, job.wall) = (JobState::Queued, None, None);
                None
            }
            JournalEvent::ResultPruned { .. } => {
                job.result_file = None;
                None
            }
            JournalEvent::Completed { file, .. } => {
                (job.result_file, job.error, job.tasks_done) =
                    (file.clone(), None, job.tasks_total);
                Some(JobState::Completed)
            }
            JournalEvent::Quarantined { error, .. } => {
                job.error = Some(error.clone());
                Some(JobState::Quarantined)
            }
            JournalEvent::Shed { reason, .. } => {
                job.error = Some(reason.clone());
                Some(JobState::Shed)
            }
            // The record has no text: the job keeps what it last said.
            JournalEvent::Cancelled { .. } => Some(JobState::Cancelled),
        };
        if let Some(to) = settled {
            (job.state, job.wall, job.request, job.ckpt_file) = (to, wall, None, None);
            if to != JobState::Completed {
                self.held.remove(&id);
            }
            self.live.remove(&id);
        }
    }

    /// End job `id` in the settled state `to`, saying `why` if not empty.
    fn settle(&mut self, id: u64, to: JobState, why: &str, now: Duration, fx: &mut Vec<Effect<P>>) {
        let job = self.job_mut(id);
        job.error = (!why.is_empty()).then(|| why.to_string());
        let ev = job.terminal_event(to);
        self.record(ev, now, fx);
        fx.extend([Effect::DropCheckpoint(id), Effect::Wake]);
    }

    /// A job that is not running parks or re-queues, as `kind` says.
    fn suspend(&mut self, id: u64, kind: SuspendKind, now: Duration, fx: &mut Vec<Effect<P>>) {
        self.record(JournalEvent::Suspended { id, reason: kind.reason().into() }, now, fx);
        fx.push(Effect::Wake);
    }

    /// Halt a running job for a client. The wish stays on file until a
    /// conclusion honours it: a run just starting or ending cannot lose it.
    fn request(&mut self, id: u64, v: Verdict, fx: &mut Vec<Effect<P>>) {
        let job = self.job_mut(id);
        // A cancel overrides a pending suspend, never the other way round.
        if v == Verdict::Cancel || job.request.is_none() {
            job.request = Some(v.clone());
        }
        fx.push(Effect::Halt(id, v));
    }

    fn submit(&mut self, mut job: Job, held: Option<P>, now: Duration, fx: &mut Vec<Effect<P>>) {
        if let Some(answer) = self.precheck(job.dedup.as_deref(), job.footprint) {
            return fx.push(Effect::Submitted(answer));
        }
        let queue = self.live_ids(|j| matches!(j.state, JobState::Queued | JobState::Backoff));
        if queue.len() >= self.cfg.queue_cap {
            // Load shedding: evict the lowest-QoS queued job iff the
            // arrival strictly outranks it; shed the *newest* of that
            // class so older accepted work keeps its place.
            let victim = queue
                .into_iter()
                .filter(|id| self.jobs[id].qos < job.qos)
                .min_by_key(|id| (self.jobs[id].qos, Reverse(*id)));
            let Some(victim) = victim else {
                let refusal = SubmitError::QueueFull { cap: self.cfg.queue_cap };
                return fx.push(Effect::Submitted(Err(refusal)));
            };
            self.settle(victim, JobState::Shed, "shed by a higher-QoS arrival", now, fx);
        }
        let id = self.next_id;
        self.next_id += 1;
        (job.id, job.state, job.submitted) = (id, JobState::Queued, now);
        self.dedup.extend(job.dedup.clone().map(|k| (k, id)));
        // The one record not applied through `absorb` (replay files the
        // job from it by value too): the spec goes to the journal, no copy
        // kept or made.
        fx.push(Effect::Journal(JournalEvent::Accepted {
            id,
            attempts: job.attempts,
            tasks_total: job.tasks_total as u64,
            dedup: job.dedup.clone(),
            spec: job.spec.take(),
        }));
        fx.push(Effect::Submitted(Ok((id, false))));
        self.live.insert(id);
        self.jobs.insert(id, job);
        self.held.extend(held.map(|p| (id, p)));
    }

    /// Deliver what the running jobs are owed (a pending request, a missed
    /// deadline, a periodic checkpoint), then make room and start what waits.
    fn tick(&mut self, seen: &[Observed], now: Duration, fx: &mut Vec<Effect<P>>) {
        let every = self.cfg.durability.as_ref().map(|d| d.ckpt_interval).filter(|d| !d.is_zero());
        let mut halted: BTreeSet<u64> = seen.iter().filter(|o| o.halted).map(|o| o.id).collect();
        for o in seen.iter().filter(|o| !o.halted) {
            let Some(job) = self.jobs.get(&o.id) else { continue };
            // A run whose last task is done has met its deadline. Periodic
            // checkpoints cycle only runs that progressed (re-queueing
            // resets the clock) and have no per-activation deadline.
            let missed = job.deadline.filter(|d| o.remaining > 0 && o.elapsed > *d);
            let periodic = every.is_some_and(|every| {
                job.deadline.is_none() && o.remaining > 0 && o.progressed && o.elapsed >= every
            });
            let verdict = match (&job.request, missed) {
                (Some(wish), _) => wish.clone(),
                (None, Some(d)) => Verdict::Deadline(d),
                (None, None) if periodic => Verdict::Suspend(SuspendKind::Periodic),
                (None, None) => continue,
            };
            halted.insert(o.id);
            fx.push(Effect::Halt(o.id, verdict));
        }
        if self.draining {
            return;
        }
        // What admission may start now, best first: highest QoS, then oldest.
        let mut waiting = self.live_ids(|j| match j.state {
            JobState::Queued => true,
            JobState::Backoff => j.not_before <= now,
            _ => false,
        });
        waiting.sort_by_key(|id| (Reverse(self.jobs[id].qos), *id));
        self.preempt(waiting.first(), &halted, fx);
        let mut running = self.live().filter(|j| j.state == JobState::Running).count();
        // Best-fit skip-ahead past jobs that do not fit the budget now.
        for id in waiting {
            if self.cfg.max_active != 0 && running >= self.cfg.max_active {
                break;
            }
            let job = &self.jobs[&id];
            let (footprint, attempt) = (job.footprint, job.attempts + u32::from(!job.resuming));
            if self.in_use.saturating_add(footprint) > self.cfg.mem_budget {
                continue;
            }
            self.job_mut(id).resuming = false;
            self.in_use += footprint;
            running += 1;
            self.record(JournalEvent::Started { id, attempt }, now, fx);
            fx.push(Effect::Activate(id, self.held.remove(&id)));
        }
    }

    /// When the best waiting job is blocked only by lower-QoS running
    /// work, suspend one victim at its next quiescent point: the newest
    /// job of the lowest class, and only if suspension can actually free
    /// what the candidate needs (a slot, or enough budget across all
    /// lower-QoS jobs). The victim re-queues from its checkpoint and loses
    /// no retry budget.
    fn preempt(&self, best: Option<&u64>, halted: &BTreeSet<u64>, fx: &mut Vec<Effect<P>>) {
        let Some(cand) = best.map(|id| &self.jobs[id]) else { return };
        let running: Vec<&Job> = self.live().filter(|j| j.state == JobState::Running).collect();
        let slot_blocked = self.cfg.max_active != 0 && running.len() >= self.cfg.max_active;
        let budget_blocked = self.in_use.saturating_add(cand.footprint) > self.cfg.mem_budget;
        if !(slot_blocked || budget_blocked) {
            return;
        }
        let lower: Vec<&Job> =
            running.into_iter().filter(|j| j.qos < cand.qos && !halted.contains(&j.id)).collect();
        let reclaimable: u64 = lower.iter().map(|j| j.footprint).sum();
        let still_short = self.in_use.saturating_sub(reclaimable).saturating_add(cand.footprint)
            > self.cfg.mem_budget;
        if budget_blocked && !slot_blocked && still_short {
            return;
        }
        if let Some(victim) = lower.into_iter().max_by_key(|j| (Reverse(j.qos), j.id)) {
            fx.push(Effect::Halt(victim.id, Verdict::Suspend(SuspendKind::Preempt)));
        }
    }

    fn conclude(&mut self, run: Conclusion<P>, now: Duration, fx: &mut Vec<Effect<P>>) {
        let Conclusion { id, verdict, tasks_done, stats, durable, pruned, payload } = run;
        for id in pruned {
            self.record(JournalEvent::ResultPruned { id }, now, fx);
        }
        let Some(job) = self.jobs.get_mut(&id).filter(|j| j.state == JobState::Running) else {
            return;
        };
        self.in_use -= job.footprint;
        job.stats.merge(&stats);
        job.tasks_done = tasks_done;
        self.held.extend(payload.map(|p| (id, p)));
        // What a client asked since corrects the verdict: a cancel beats
        // all but a finished run, a parking suspend beats a re-queue.
        let wish = job.request.take();
        let verdict = match (verdict, &wish) {
            (Some(_), Some(Verdict::Cancel)) => Some(Verdict::Cancel),
            (Some(Verdict::Suspend(_)), Some(Verdict::Suspend(k))) => Some(Verdict::Suspend(*k)),
            (v, _) => v,
        };
        let failure = match verdict {
            None => {
                job.result_file = durable;
                return self.settle(id, JobState::Completed, "", now, fx);
            }
            Some(Verdict::Cancel) => {
                return self.settle(id, JobState::Cancelled, "cancelled while running", now, fx);
            }
            Some(Verdict::Suspend(kind)) => {
                // The same attempt continues from this frontier — after a
                // restart too, once Checkpointed is journaled (first).
                job.resuming = true;
                if let Some(file) = durable {
                    let tasks_done = tasks_done as u64;
                    self.record(JournalEvent::Checkpointed { id, tasks_done, file }, now, fx);
                }
                return self.suspend(id, kind, now, fx);
            }
            Some(Verdict::Fault(message)) => message,
            Some(Verdict::Deadline(d)) => format!("deadline of {d:?} exceeded"),
        };
        if !job.may_retry() {
            return self.settle(id, JobState::Quarantined, &failure, now, fx);
        }
        // The re-run starts from the pristine payload.
        let attempts = job.attempts;
        job.not_before = now + retry_backoff(&self.cfg, attempts, id);
        (job.tasks_done, job.resuming) = (0, false);
        self.record(JournalEvent::Failed { id, attempts, error: failure }, now, fx);
        if let Some(Verdict::Suspend(kind)) = wish {
            self.suspend(id, kind, now, fx);
        }
    }
}

/// The one reading of the pool's rules: apply `event` at time `now` (since
/// the pool's epoch) to `s` and return what the driver must do about it.
pub fn step<P>(s: &mut PoolState<P>, event: Event<P>, now: Duration) -> Vec<Effect<P>> {
    let mut fx = Vec::new();
    let live = |s: &PoolState<P>, id: u64| {
        s.jobs.get(&id).filter(|j| j.settled().is_none()).map(|j| j.state)
    };
    match event {
        Event::Submit(job, held) => s.submit(*job, held, now, &mut fx),
        Event::Request(id, wish) => {
            // A parked job can still be cancelled, not suspended again.
            let cancel = wish == Verdict::Cancel;
            let at = live(s, id).filter(|at| cancel || *at != JobState::Suspended);
            match (at, &wish) {
                (None, _) => {}
                (Some(JobState::Running), _) => s.request(id, wish, &mut fx),
                // A waiting job settles or parks on the spot: what is held
                // for it already is its exact resumable state.
                (Some(_), Verdict::Suspend(kind)) => s.suspend(id, *kind, now, &mut fx),
                (Some(at), _) => {
                    let at = if at == JobState::Suspended { "suspended" } else { "queued" };
                    s.settle(
                        id,
                        JobState::Cancelled,
                        &format!("cancelled while {at}"),
                        now,
                        &mut fx,
                    );
                }
            }
            fx.push(Effect::Ack(at.is_some()));
        }
        Event::ResumeJob(id) => {
            let parked = live(s, id) == Some(JobState::Suspended);
            if parked {
                let job = s.job_mut(id);
                (job.state, job.error, job.wall) = (JobState::Queued, None, None);
            }
            fx.push(Effect::Ack(parked));
        }
        Event::Drain { grace_over: false } => s.draining = true,
        Event::Drain { grace_over: true } => {
            for id in s.live_ids(|j| j.state == JobState::Running) {
                s.request(id, Verdict::Suspend(SuspendKind::Drain), &mut fx);
            }
        }
        Event::Shutdown { quiet: false } => {
            (s.closing, s.draining) = (s.closing || !s.draining, true);
        }
        Event::Shutdown { quiet: true } => {
            let waiting = s.live_ids(|j| s.closing && j.state != JobState::Running);
            for id in waiting {
                s.settle(id, JobState::Shed, "pool shut down before admission", now, &mut fx);
            }
        }
        Event::Tick(seen) => s.tick(&seen, now, &mut fx),
        Event::Concluded(run) => s.conclude(run, now, &mut fx),
        Event::Replay(JournalEvent::Accepted { id, attempts, tasks_total, dedup, spec }) => {
            s.dedup.extend(dedup.clone().map(|k| (k, id)));
            s.next_id = s.next_id.max(id + 1);
            // A first sighting files the job; a compaction's summary of a
            // job already on file only updates it.
            let job = s.jobs.entry(id).or_insert_with(|| {
                s.live.insert(id);
                Job { id, ..Job::default() }
            });
            job.attempts = job.attempts.max(attempts);
            (job.tasks_total, job.dedup) = (tasks_total as usize, dedup);
            job.spec = spec.or(job.spec.take());
        }
        Event::Replay(ev) => s.absorb(&ev, now),
        Event::Restart => {
            for id in s.live_ids(|_| true) {
                let job = s.job_mut(id);
                (job.state, job.error, job.wall) = (JobState::Queued, None, None);
                (job.resuming, job.not_before, job.request, job.tasks_done) =
                    (false, Duration::ZERO, None, 0);
            }
            (s.in_use, s.draining, s.closing) = (0, false, false);
        }
    }
    fx
}

/// The shortest journal that folds back to `state`: per job its acceptance
/// (the spec only while it can still run), its last checkpoint, and the one
/// record that puts it in its current state. Both compactions write this.
pub fn snapshot<P>(state: &PoolState<P>) -> Vec<JournalEvent> {
    let mut out = Vec::new();
    for (&id, job) in &state.jobs {
        let live = job.settled().is_none();
        out.push(JournalEvent::Accepted {
            id,
            attempts: job.attempts,
            tasks_total: job.tasks_total as u64,
            dedup: job.dedup.clone(),
            spec: job.spec.clone().filter(|_| live),
        });
        if let Some(file) = job.ckpt_file.clone().filter(|_| live) {
            out.push(JournalEvent::Checkpointed { id, tasks_done: job.ckpt_tasks_done, file });
        }
        let why = || job.error.clone().unwrap_or_default();
        match job.state {
            JobState::Queued => {}
            JobState::Running => out.push(JournalEvent::Started { id, attempt: job.attempts }),
            JobState::Backoff => {
                out.push(JournalEvent::Failed { id, attempts: job.attempts, error: why() });
            }
            JobState::Suspended => out.push(JournalEvent::Suspended { id, reason: why() }),
            to => out.push(job.terminal_event(to)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_backoff_doubles_caps_and_jitters() {
        let cfg = PoolConfig {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(65),
            ..Default::default()
        };
        // Deterministic per (attempt, salt).
        assert_eq!(retry_backoff(&cfg, 1, 7), retry_backoff(&cfg, 1, 7));
        // Jitter keeps each delay inside [raw/2, raw] of the capped
        // exponential ladder.
        for (attempts, raw_ms) in [(1u32, 10u64), (2, 20), (3, 40), (4, 65), (30, 65)] {
            let raw = Duration::from_millis(raw_ms);
            for salt in 0..32u64 {
                let d = retry_backoff(&cfg, attempts, salt);
                assert!(d <= raw, "attempt {attempts} salt {salt}: {d:?} > {raw:?}");
                assert!(d >= raw / 2, "attempt {attempts} salt {salt}: {d:?} < {:?}", raw / 2);
            }
        }
        // Co-failing jobs decorrelate: salts do not all share one delay.
        let d0 = retry_backoff(&cfg, 1, 0);
        assert!((1..32).any(|s| retry_backoff(&cfg, 1, s) != d0));
    }

    #[test]
    fn suspend_reasons_name_their_kind() {
        for kind in SuspendKind::ALL {
            assert_eq!(SuspendKind::of_reason(kind.reason()), kind);
        }
        assert_eq!(SuspendKind::of_reason("drain"), SuspendKind::Park);
    }
}
