//! The tile worker: a process (or thread) that owns a shard of tiles and
//! runs its own share of the DAG.
//!
//! At `Hello` the worker rebuilds from the task list the `TaskGraph` every
//! other worker holds. Each `Start` is one `DagRun` of the engine's
//! execution core over the shard, run by one compute thread in
//! `exec::worker_loop`: the tasks whose affinity tile its grid ranks own,
//! lowest ready task id first (a host with more cores runs more workers).
//! When a task finishes, each *other* worker owning one of its successors
//! gets one `Push` with the written slots those successors touch. A
//! received push is a release: its slots are written in place and its
//! task completes. The graph has only last-writer edges and a slot that is
//! read without being written is never written again, so every
//! cross-worker edge carries data and no "I have read it" notice exists.
//! The version a pushed task consumed is gone from this shard, so a halted
//! worker reports the pushes it accepted (see `Msg::Progress`). The run
//! counts the tasks touching each slot, and a slot leaves the shard, its
//! buffer back in the pool, once no task of the epoch left touches it
//! (after the pushes of the task that spent it are encoded) if it is a V
//! copy or a version a peer pushed: this worker's unfinished tasks were
//! its only use here. What this worker wrote stays, for the gather and
//! for `Start`'s re-pushes. A `Start` rebuilds the V copies this worker's
//! done GEQRTs still owe the epoch from their factored tiles; a dropped
//! version a peer wrote comes back with that peer's re-push, or, if the
//! peer is dead, the coordinator places it.
//!
//! Every connection has its own thread: pushes are drained and progress
//! polls answered while a kernel runs (the shard lock is never held across
//! a kernel or a send), so two workers pushing to each other cannot
//! deadlock and a slow worker is *slow*, not dead. Every request is
//! idempotent. A push that cannot be delivered is dropped: its target is
//! dead (the coordinator's poll of it fails, and the next epoch re-pushes
//! to the new owner) or partitioned from this worker alone (the run ends
//! at the stall deadline).
//!
//! Chaos hook: [`WorkerOptions::die_after_tasks`] is a deterministic
//! kill-point — `die_hard` aborts the process (as SIGKILL would), otherwise
//! the worker severs every connection and stops serving.

use crate::error::NetError;
use crate::frame::{dial, read_frame_into, write_frame};
use crate::msg::{
    decode_borrowed, decode_tile, encode_into, push_frame, put_frame, recv_msg, send_msg, Msg,
};
use crate::pool::TilePool;
use hqr_runtime::exec::{worker_loop, Attempt, DagRun, GlobalQueue, RunPolicy, Spent, Worker};
use hqr_runtime::store::{Shard, TileStore};
use hqr_runtime::task::SlotFamily;
use hqr_runtime::{last_writers, live_v_copies, FaultPlan, FaultStats, Slot, Task, TaskGraph};
use hqr_tile::{Layout, ProcessGrid};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Behavior knobs, mostly for chaos testing.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerOptions {
    /// Die when about to run a task after this many completed ones.
    pub die_after_tasks: Option<u64>,
    /// When dying, abort the whole process (SIGKILL-equivalent) instead
    /// of severing connections.
    pub die_hard: bool,
    /// Sleep this long inside every task (slow-but-alive simulation).
    pub slow_task_ms: u64,
    /// Panic inside the kernel attempt of this task (by id) when it runs
    /// here: a kernel bug, which the coordinator's next poll reports.
    pub panic_on_task: Option<u64>,
}

/// How long a push may wait: on a peer's socket, or for this worker's own
/// `Start` of the epoch the push belongs to.
const PEER_TIMEOUT: Duration = Duration::from_secs(5);

/// What the compute thread and the connection handlers share about the
/// current epoch.
#[derive(Default)]
struct Sched {
    /// 0 until the first `Start`.
    epoch: u64,
    /// The epoch's run; `None` until the first `Start`.
    run: Option<Arc<EpochRun>>,
    /// Tasks run here, in completion order — what `Completed` reads.
    log: Vec<u64>,
    /// Tasks whose push was accepted this epoch — what a halt reports.
    accepted: Vec<u64>,
    /// Held slots whose version a peer pushed, dropped once spent; a
    /// task's write here or the coordinator's `Put` makes one this
    /// worker's.
    received: HashSet<Slot>,
    /// Every slot recycled, with its epoch.
    #[cfg(test)]
    dropped: Vec<(u64, Slot)>,
    /// Set by a halt once the compute thread stopped, cleared by `Start`.
    halt: bool,
    failed: Option<String>,
    pushes: u64,
    push_floats: u64,
    compute: Option<JoinHandle<()>>,
}

/// One epoch: its plan, its run, and the run's ready heap ranked by task id.
struct EpochRun {
    epoch: u64,
    /// Grid rank → worker index.
    owners: Vec<usize>,
    /// The completed set the epoch began with.
    done: Vec<bool>,
    /// Task → owned here.
    mine: Vec<bool>,
    dag: DagRun,
    ready: GlobalQueue,
}

impl EpochRun {
    /// Complete `t` and queue the released tasks that run here; returns
    /// the slots `t` spent, for [`Run::recycle`].
    fn complete(&self, graph: &TaskGraph, t: u32) -> Option<Spent> {
        let queue = |s: u32| {
            if self.mine[s as usize] {
                self.ready.push(s, &self.dag.frontier.ranks);
            }
        };
        self.dag.complete(graph, t, queue, queue)
    }
}

/// One run's plan, checked where it entered, and the state built on it.
struct Run {
    run_id: u64,
    graph: TaskGraph,
    /// Tile → grid rank: 2D block-cyclic.
    layout: Layout,
    ib: usize,
    me: usize,
    addrs: Vec<SocketAddr>,
    shard: Arc<Shard>,
    sched: Mutex<Sched>,
    /// Wakes pushes waiting for their epoch.
    work: Condvar,
}

impl Run {
    /// Validate a `Hello`: `1 <= ib <= b` with `b * b` representable (so no
    /// kernel precondition can fail later), a fleet that covers the grid, a
    /// matrix no larger than its task list (every tile has a task, so a shape
    /// cannot size an allocation the frame did not pay for), and a task list
    /// `TaskGraph::try_from_tasks` accepts.
    fn plan(
        run_id: u64,
        dims: [u64; 7],
        addrs: Vec<SocketAddr>,
        tasks: Vec<Task>,
    ) -> Result<Run, String> {
        let [mt, nt, b, ib, p, q, me] = dims.map(|v| usize::try_from(v).unwrap_or(usize::MAX));
        if b == 0 || b.checked_mul(b).is_none() || !(1..=b).contains(&ib) {
            return Err(format!("need tile size b >= 1 and 1 <= ib <= b, got b={b} ib={ib}"));
        }
        if p == 0 || q == 0 || p.checked_mul(q) != Some(addrs.len()) || me >= addrs.len() {
            return Err(format!("{} workers (this one #{me}) on a {p}x{q} grid", addrs.len()));
        }
        if mt.checked_mul(nt).is_none_or(|tiles| tiles > tasks.len()) {
            return Err(format!("{} tasks cannot cover {mt}x{nt} tiles", tasks.len()));
        }
        let graph = TaskGraph::try_from_tasks(mt, nt, b, tasks).map_err(|e| e.to_string())?;
        let layout = Layout::Cyclic2D(ProcessGrid::new(p, q));
        let (shard, sched, work) = (Arc::default(), Mutex::default(), Condvar::new());
        Ok(Run { run_id, graph, layout, ib, me, addrs, shard, sched, work })
    }

    fn sched(&self) -> MutexGuard<'_, Sched> {
        self.sched.lock().expect("sched lock: a holder panicked")
    }

    /// A task runs on the worker owning the rank of its affinity tile.
    fn owner(&self, owners: &[usize], t: &Task) -> usize {
        let (i, j) = t.affinity_tile();
        owners[self.layout.owner(i, j)]
    }

    /// Stop the compute thread at its next task boundary and wait for it;
    /// only then is the worker halted, so a `Put` never meets a kernel.
    fn halt(&self) {
        let mut s = self.sched();
        if let Some(run) = &s.run {
            run.dag.halt.store(true, Ordering::Release);
        }
        let handle = s.compute.take();
        drop(s);
        let _ = handle.map(JoinHandle::join);
        self.sched().halt = true;
    }

    /// `Start`: adopt the epoch's owner map and completed set, then run. An
    /// epoch is a function of those two and of the shard. A push accepted
    /// earlier overwrote its slots in place, which is why a halt reports it
    /// and `completed` counts its task; beyond that it is forgotten, and
    /// every completed task owned here re-pushes to the owners of its
    /// unfinished successors. A `Start` of an older epoch than the current
    /// one (a late duplicate) is refused and changes nothing.
    fn start(
        self: &Arc<Self>,
        state: &Arc<WorkerState>,
        epoch: u64,
        owners: &[u64],
        completed: &[u64],
    ) -> Result<(), String> {
        let (n, fleet) = (self.graph.tasks().len(), self.addrs.len() as u64);
        let covers = owners.len() == self.layout.nodes() && owners.iter().all(|&w| w < fleet);
        if !covers || completed.iter().any(|&t| t >= n as u64) {
            return Err(format!(
                "start rejected: owners {owners:?} or a completed id off the plan"
            ));
        }
        let current = self.sched().epoch;
        if epoch <= current {
            let older = format!("start rejected: epoch {epoch} is older than {current}");
            return if epoch == current { Ok(()) } else { Err(older) };
        }
        self.halt();
        let owners: Vec<usize> = owners.iter().map(|&w| w as usize).collect();
        let mut done = vec![false; n];
        for &t in completed {
            done[t as usize] = true;
        }
        let (tasks, succ) = (self.graph.tasks(), |t| self.graph.successors(t).iter());
        let mine: Vec<bool> = tasks.iter().map(|t| self.owner(&owners, t) == self.me).collect();
        // Outputs here or not needed here: done and owned here, or owned
        // elsewhere with no unfinished successor here. The rest is this
        // worker's unfinished tasks and the pushes it is owed, so the epoch
        // ends at `remaining == 0`.
        let waiting = |s: &u32| mine[*s as usize] && !done[*s as usize];
        let settled = (0..n).map(|t| mine[t] && done[t] || !mine[t] && !succ(t).any(waiting));
        let settled: Vec<bool> = settled.collect();
        self.rebuild_v_copies(&state.pool, &mine, &done);
        let store = TileStore::over_shard(Arc::clone(&self.shard), self.graph.b(), self.ib);
        let panic_on = state.opts.panic_on_task.and_then(|t| u32::try_from(t).ok());
        let plan = panic_on.map(|t| FaultPlan::new(0).fail_task(t, 1));
        let policy = RunPolicy { publish_rest: true, plan: plan.as_ref(), ..RunPolicy::default() };
        let (dag, frontier) = DagRun::new(&self.graph, store, &policy, Some(&settled));
        let ready = GlobalQueue::new(policy.publish_rest);
        for t in frontier.into_iter().filter(|&t| mine[t as usize]) {
            ready.push(t, &dag.frontier.ranks);
        }
        let run = Arc::new(EpochRun { epoch, owners, done, mine, dag, ready });
        let mut s = self.sched();
        (s.epoch, s.halt, s.run) = (epoch, false, Some(Arc::clone(&run)));
        s.accepted.clear();
        let (this, st) = (Arc::clone(self), Arc::clone(state));
        s.compute = Some(thread::spawn(move || this.compute(&st, &run)));
        drop(s);
        self.work.notify_all();
        Ok(())
    }

    fn compute(&self, state: &WorkerState, run: &EpochRun) {
        let (mut peers, mut frame, done) = (HashMap::new(), Vec::new(), &run.done);
        let mut push =
            |t| self.push_outputs(&mut peers, &mut frame, &run.owners, done, run.epoch, t);
        // What this worker's finished tasks owe the epoch's unfinished ones.
        for t in (0..done.len()).filter(|&t| done[t] && run.mine[t]) {
            push(t as u32);
        }
        let (graph, dag, local) = (&self.graph, &run.dag, Worker::new_lifo());
        let (mut stats, mut counters) = (FaultStats::default(), Default::default());
        worker_loop(
            0,
            &local,
            &[],
            |dest| run.ready.take(dest),
            || dag.halt.load(Ordering::Acquire) || state.dead.load(Ordering::SeqCst),
            || dag.frontier.remaining.load(Ordering::Acquire) == 0,
            |t, _| {
                if state.opts.die_after_tasks.is_some_and(|n| self.sched().log.len() as u64 >= n) {
                    if state.opts.die_hard {
                        // The real thing: no destructors, no goodbyes —
                        // indistinguishable from SIGKILL for every peer.
                        std::process::abort();
                    }
                    state.die_soft();
                    return ControlFlow::Break(());
                }
                thread::sleep(Duration::from_millis(state.opts.slow_task_ms));
                // SAFETY: `t` was queued once, when its last predecessor
                // completed, and this is the epoch's one compute thread; a
                // push writes the slots of a task not done yet, which DAG
                // order keeps apart from a ready task's.
                let ended = self.operands(&state.pool, t).and_then(|()| unsafe {
                    dag.attempt(graph, t, 0, false, &mut stats, &mut counters, &mut |_| {})
                        .map_err(|e| e.to_string())
                });
                // A worker killed mid-kernel publishes nothing.
                if state.dead.load(Ordering::SeqCst) {
                    return ControlFlow::Break(());
                }
                let mut s = self.sched();
                // Not done: halted between attempts, or failed (the compute
                // thread's first failure is the run's).
                let Ok(Attempt::Done { .. }) = ended else {
                    s.failed = ended.err();
                    return ControlFlow::Break(());
                };
                for w in graph.tasks()[t as usize].writes() {
                    s.received.remove(&w);
                }
                let spent = run.complete(graph, t);
                s.log.push(u64::from(t));
                drop(s);
                push(t);
                self.recycle(&state.pool, &mut self.sched(), spent);
                ControlFlow::Continue(())
            },
        );
    }

    /// Put back the V copy of every done GEQRT owned here that a task not
    /// `done` reads and the shard no longer holds: its pushes re-send it.
    /// The copy is packed from the factored tile, which the GEQRT left here
    /// (a GEQRT that ran on a lost worker has its copy placed by the
    /// coordinator instead).
    fn rebuild_v_copies(&self, pool: &TilePool, mine: &[bool], done: &[bool]) {
        let (tasks, b) = (self.graph.tasks(), self.graph.b());
        let mut shard = self.shard.lock().expect("shard lock");
        for t in live_v_copies(&self.graph, done).into_iter().filter(|&t| mine[t as usize]) {
            let task = &tasks[t as usize];
            let v = (SlotFamily::Vg, task.i as usize, task.k as usize);
            if shard.contains_key(&v) {
                continue;
            }
            let Some(tile) = shard.get(&(SlotFamily::A, v.1, v.2)) else { continue };
            let mut buf = pool.take(self.slot_len(v));
            hqr_kernels::pack_v(b, tile, &mut buf);
            shard.insert(v, buf);
        }
    }

    /// Check that every operand of task `t` is in the shard, [`Run::slot_len`]
    /// long, or a typed error names the one that is not; then create the
    /// task's missing factor outputs, zeroed, from `pool`.
    fn operands(&self, pool: &TilePool, t: u32) -> Result<(), String> {
        let task = &self.graph.tasks()[t as usize];
        let writes = task.writes();
        let is_output = |s: &Slot| s.0 != SlotFamily::A && writes.contains(s);
        let mut shard = self.shard.lock().expect("shard lock");
        for s @ &(fam, i, j) in writes.iter().chain(&task.reads()) {
            let len = self.slot_len(*s);
            if !shard.get(s).map_or(is_output(s), |buf| buf.len() == len) {
                let detail =
                    format!("task {} needs {fam:?}({i},{j}) of {len} doubles here", task.label());
                return Err(NetError::Remote(detail).to_string());
            }
        }
        for &s in writes.iter().filter(|s| is_output(s)) {
            // Factor outputs start life zeroed, exactly as
            // `TFactors::allocate_for` zero-fills them.
            shard.entry(s).or_insert_with(|| pool.zeroed(self.slot_len(s)));
        }
        Ok(())
    }

    /// One `Push` per other worker owning a successor of `t` not `done`
    /// when the epoch began (none is, of a task that ran in it), carrying
    /// the slots `t` wrote that those successors touch. Frames are encoded
    /// from the shard's buffers into `frame` under its lock and sent after
    /// its release.
    fn push_outputs(
        &self,
        peers: &mut HashMap<usize, TcpStream>,
        frame: &mut Vec<u8>,
        owners: &[usize],
        done: &[bool],
        epoch: u64,
        t: u32,
    ) {
        let tasks = self.graph.tasks();
        let writes = tasks[t as usize].writes();
        let mut dests: BTreeMap<usize, Vec<Slot>> = BTreeMap::new();
        for &succ in self.graph.successors(t as usize).iter().filter(|&&s| !done[s as usize]) {
            let (next, w) = (&tasks[succ as usize], self.owner(owners, &tasks[succ as usize]));
            if w != self.me {
                let (touched, slots) = ([next.reads(), next.writes()].concat(), dests.entry(w));
                let slots = slots.or_default();
                slots.extend(writes.iter().filter(|s| touched.contains(s)));
                slots.sort_unstable();
                slots.dedup();
            }
        }
        for (w, slots) in dests {
            let shard = self.shard.lock().expect("shard lock");
            let held = slots.iter().filter_map(|s| shard.get(s).map(|buf| (*s, &**buf)));
            let held: Vec<_> = held.collect();
            encode_into(frame, &push_frame(self.run_id, epoch, u64::from(t), &held));
            drop(shard);
            // A connection that fails is dropped with the push (the next
            // one re-dials): see the module note on undeliverable pushes.
            let peer = match peers.entry(w) {
                Entry::Occupied(open) => Some(open.into_mut()),
                Entry::Vacant(none) => {
                    dial(self.addrs[w], PEER_TIMEOUT).ok().map(|s| none.insert(s))
                }
            };
            if peer.is_some_and(|s| write_frame(s, frame).is_ok()) {
                let mut s = self.sched();
                s.pushes += 1;
                s.push_floats += slots.iter().map(|&s| self.slot_len(s) as u64).sum::<u64>();
            } else {
                peers.remove(&w);
            }
        }
    }

    /// A peer's push: a release of its task, exactly once per task and
    /// epoch; anything that does not fit the plan changes nothing.
    fn accept_push(&self, pool: &TilePool, epoch: u64, task_id: u64, slots: Vec<(Slot, &[u8])>) {
        let tasks = self.graph.tasks();
        let Some(task) = usize::try_from(task_id).ok().and_then(|t| tasks.get(t)) else { return };
        let writes = task.writes();
        if slots.iter().any(|&(s, raw)| !writes.contains(&s) || raw.len() != self.slot_len(s) * 8) {
            return;
        }
        // The sender's `Start` can precede ours: wait for the epoch rather
        // than lose the push (ours is on its way, or the run is over and the
        // wait times out). The sched lock is then held across the write, so
        // a halt or a `Start` sees this push whole or not at all.
        let (mut s, _) = self
            .work
            .wait_timeout_while(self.sched(), PEER_TIMEOUT, |s| s.epoch < epoch)
            .expect("sched lock: a holder panicked");
        let (t, run) = (task_id as u32, s.run.clone().filter(|_| s.epoch == epoch && !s.halt));
        let Some(run) = run.filter(|r| !r.dag.frontier.is_done(t) && !r.mine[t as usize]) else {
            return;
        };
        s.received.extend(slots.iter().map(|&(slot, _)| slot));
        self.write(pool, slots);
        let spent = run.complete(&self.graph, t);
        self.recycle(pool, &mut s, spent);
        s.accepted.push(task_id);
        if let Some(compute) = &s.compute {
            compute.thread().unpark();
        }
    }

    /// The coordinator's `Put`, placed between epochs (a straggler from a
    /// connection the coordinator gave up on must not undo what a task wrote
    /// since) and only if it is [`Run::slot_len`] long.
    fn place(&self, pool: &TilePool, slot: Slot, raw: &[u8]) {
        let mut s = self.sched();
        if raw.len() == self.slot_len(slot) * 8 && (s.epoch == 0 || s.halt) {
            self.write(pool, [(slot, raw)]);
            s.received.remove(&slot);
        }
    }

    /// Take the slots in `spent` that this worker need not keep out of the
    /// shard — a V copy, or a version a peer pushed — and give their
    /// buffers to `pool`.
    fn recycle(&self, pool: &TilePool, s: &mut Sched, spent: Option<Spent>) {
        let mut shard = self.shard.lock().expect("shard lock");
        for slot in spent.iter().flat_map(Spent::slots) {
            if s.received.remove(&slot) || slot.0 == SlotFamily::Vg {
                #[cfg(test)]
                s.dropped.push((s.epoch, slot));
                pool.give(shard.remove(&slot));
            }
        }
    }

    /// Doubles in `slot`'s buffer in this run.
    fn slot_len(&self, (fam, ..): Slot) -> usize {
        fam.slot_len(self.graph.b(), self.ib)
    }

    /// Decode received buffers of their slots' lengths in place into the
    /// shard; a slot's first arrival takes its buffer from `pool`.
    fn write<'a>(&self, pool: &TilePool, tiles: impl IntoIterator<Item = (Slot, &'a [u8])>) {
        let mut shard = self.shard.lock().expect("shard lock");
        for (slot, raw) in tiles {
            let buf = shard.entry(slot).or_insert_with(|| pool.take(raw.len() / 8));
            decode_tile(raw, buf).expect("the size was checked");
        }
    }

    /// `Gather`: stream every slot but the V copies whose last writer this
    /// worker owns, in slot order, then the push counters; a T slot goes as
    /// its τ, which is all a result keeps. Each frame is encoded under the
    /// shard lock into one reused buffer and written after its release.
    fn gather(&self, pool: &TilePool, stream: &mut TcpStream) -> Result<(), NetError> {
        // The compute thread may still be counting its last push.
        self.halt();
        let s = self.sched();
        let (run, end) = (s.run.clone(), Msg::End { pushes: s.pushes, push_floats: s.push_floats });
        drop(s);
        let tasks = self.graph.tasks();
        let mut last: Vec<(Slot, u32)> =
            last_writers(&self.graph, &vec![true; tasks.len()]).into_iter().collect();
        last.sort_unstable();
        let (mut frame, mut tau) = (Vec::new(), pool.take(hqr_kernels::tau_len(self.graph.b())));
        let mine = |&(slot, w): &(Slot, u32)| {
            slot.0 != SlotFamily::Vg && run.as_ref().is_some_and(|run| run.mine[w as usize])
        };
        let sent = last.into_iter().filter(mine).try_for_each(|(slot, _)| {
            let shard = self.shard.lock().expect("shard lock");
            let held = shard.get(&slot).map(|buf| {
                if slot.0 == SlotFamily::A {
                    return encode_into(&mut frame, &put_frame(slot, buf));
                }
                hqr_kernels::tau_from_t(self.graph.b(), self.ib, buf, &mut tau);
                encode_into(&mut frame, &put_frame(slot, &tau))
            });
            drop(shard);
            // A slot that is not here is the coordinator's to rebuild.
            held.map_or(Ok(()), |()| write_frame(stream, &frame))
        });
        pool.give([tau]);
        sent?;
        send_msg(stream, &end)
    }
}

struct WorkerState {
    opts: WorkerOptions,
    /// Where the accept loop listens — dialed to wake it.
    addr: SocketAddr,
    run: Mutex<Option<Arc<Run>>>,
    dead: AtomicBool,
    /// A clone of every open inbound connection, for death to sever.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Tile buffers for every run this worker serves.
    pool: TilePool,
}

impl WorkerState {
    fn new(listener: &TcpListener, opts: WorkerOptions) -> io::Result<WorkerState> {
        let mut addr = listener.local_addr()?;
        if addr.ip().is_unspecified() {
            addr.set_ip(std::net::Ipv4Addr::LOCALHOST.into());
        }
        let (run, conns, dead) = (Mutex::default(), Mutex::default(), AtomicBool::new(false));
        Ok(WorkerState { opts, addr, run, dead, conns, pool: TilePool::default() })
    }

    /// Sever every connection and stop serving: the in-process SIGKILL.
    fn die_soft(&self) {
        self.dead.store(true, Ordering::SeqCst);
        for c in self.conns.lock().expect("conns lock").values() {
            let _ = c.shutdown(std::net::Shutdown::Both);
        }
        // A compute thread sees `dead` within one idle nap. The accept loop
        // blocks in `accept`; a connection wakes it.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(500));
    }

    fn current(&self) -> Option<Arc<Run>> {
        self.run.lock().expect("run lock").clone()
    }

    /// The current run, if it is `run_id`.
    fn run(&self, run_id: u64) -> Result<Arc<Run>, String> {
        let current = self.current().filter(|r| r.run_id == run_id);
        current.ok_or_else(|| format!("no run {run_id} on this worker (hello first)"))
    }
}

/// Serve until orderly shutdown or a (soft) death; blocks the caller.
pub fn serve(listener: TcpListener, opts: WorkerOptions) -> io::Result<()> {
    let state = Arc::new(WorkerState::new(&listener, opts)?);
    serve_state(listener, &state)
}

fn serve_state(listener: TcpListener, state: &Arc<WorkerState>) -> io::Result<()> {
    // One thread per connection, each gone — with its descriptor — when
    // its peer hangs up, not when the worker exits: a fleet serves any
    // number of runs. The scope joins whichever are left.
    thread::scope(|scope| {
        for id in 0u64.. {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    // Sever what is open, or the scope never ends.
                    state.die_soft();
                    return Err(e);
                }
            };
            if state.dead.load(Ordering::SeqCst) {
                break;
            }
            let _ = stream.set_nodelay(true);
            if let Ok(clone) = stream.try_clone() {
                state.conns.lock().expect("conns lock").insert(id, clone);
            }
            scope.spawn(move || {
                handle_conn(stream, state);
                state.conns.lock().expect("conns lock").remove(&id);
            });
        }
        Ok(())
    })?;
    if let Some(run) = state.current() {
        run.halt();
    }
    Ok(())
}

fn handle_conn(mut stream: TcpStream, state: &Arc<WorkerState>) {
    // Every frame of the connection is read into this one buffer, and tiles
    // are decoded from it into pooled buffers.
    let mut frame = Vec::new();
    while !state.dead.load(Ordering::SeqCst) {
        // Peer hung up, link severed, or the frame was corrupt beyond
        // trust — drop the connection either way.
        let read = read_frame_into(&mut stream, &mut frame, "request", Duration::ZERO);
        let Ok(msg) = read.and_then(|()| decode_borrowed(&frame)) else { return };
        let shutdown = matches!(msg, Msg::Shutdown);
        let reply = match answer(state, &mut stream, msg) {
            Ok(None) => continue,
            Ok(Some(reply)) => reply,
            Err(detail) => Msg::Err { detail },
        };
        if send_msg(&mut stream, &reply).is_err() {
            return;
        }
        if shutdown {
            return state.die_soft();
        }
    }
}

/// Serve one request; `None` for the unacknowledged kinds.
fn answer(
    state: &Arc<WorkerState>,
    stream: &mut TcpStream,
    msg: Msg<&[u8]>,
) -> Result<Option<Msg>, String> {
    Ok(Some(match msg {
        Msg::Hello { run_id, dims, addrs, tasks } => {
            if state.run(run_id).is_err() {
                let run = Run::plan(run_id, dims, addrs, tasks);
                let run = Arc::new(run.map_err(|e| format!("hello rejected: {e}"))?);
                // What the pool holds of an earlier run's sizes is never taken.
                let [a, v, t] = [SlotFamily::A, SlotFamily::Vg, SlotFamily::Tg]
                    .map(|fam| run.slot_len((fam, 0, 0)));
                let lens = [a, v, t, hqr_kernels::tau_len(run.graph.b())];
                // New run: the previous one's plan and compute thread go, and
                // its shard's buffers go back to the pool. (Halted outside
                // the lock: a dying compute thread takes it.)
                let old = state.run.lock().expect("run lock").replace(run);
                if let Some(old) = old {
                    old.halt();
                    let shard = std::mem::take(&mut *old.shard.lock().expect("shard lock"));
                    state.pool.give(shard.into_values());
                }
                state.pool.keep(&lens);
            }
            Msg::Ok
        }
        Msg::Put { slot, data } => {
            if let Some(run) = state.current() {
                run.place(&state.pool, slot, data);
            }
            return Ok(None);
        }
        Msg::Start { run_id, epoch, owners, completed } => {
            state.run(run_id)?.start(state, epoch, &owners, &completed)?;
            Msg::Ok
        }
        Msg::Push { run_id, epoch, task_id, slots } => {
            if let Ok(run) = state.run(run_id) {
                run.accept_push(&state.pool, epoch, task_id, slots);
            }
            return Ok(None);
        }
        Msg::Completed { run_id, after, halt } => {
            let run = state.run(run_id)?;
            if halt {
                run.halt();
            }
            let s = run.sched();
            if let Some(e) = &s.failed {
                return Err(e.clone());
            }
            let ids = s.log.get(after as usize..).unwrap_or_default().into();
            Msg::Progress { ids, accepted: if halt { s.accepted.clone() } else { Vec::new() } }
        }
        Msg::Gather { run_id } => {
            state.run(run_id)?.gather(&state.pool, stream).map_err(|e| e.to_string())?;
            return Ok(None);
        }
        Msg::Ping | Msg::Shutdown => Msg::Ok,
        other => return Err(format!("unexpected message for a worker: {other:?}")),
    }))
}

/// An in-process worker for tests and the spawned-workers CLI mode.
pub struct LocalWorker {
    /// Address the worker listens on.
    pub addr: SocketAddr,
    handle: thread::JoinHandle<io::Result<()>>,
}

impl LocalWorker {
    /// Wait for the worker's serve loop to end (after [`shutdown`] or a
    /// soft death).
    pub fn join(self) -> io::Result<()> {
        self.handle.join().map_err(|_| io::Error::other("worker thread panicked"))?
    }
}

/// Bind `127.0.0.1:0` and serve on a background thread.
pub fn spawn_local(opts: WorkerOptions) -> io::Result<LocalWorker> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let handle = thread::spawn(move || serve(listener, opts));
    Ok(LocalWorker { addr, handle })
}

/// Orderly shutdown of a worker by address; errors are reported but a
/// dead worker is simply already shut down.
pub fn shutdown(addr: SocketAddr) -> Result<(), NetError> {
    let mut s = dial(addr, Duration::from_millis(500))?;
    send_msg(&mut s, &Msg::Shutdown)?;
    match recv_msg(&mut s, "shutdown ack", Duration::from_millis(500))? {
        Msg::Ok => Ok(()),
        other => Err(NetError::Proto(format!("expected Ok, got {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::{factorize, shutdown_workers, DistConfig, DistReport};
    use hqr_runtime::{execute_serial_ib, ElimOp};
    use hqr_tile::TiledMatrix;

    /// A worker serving on a background thread, as `spawn_local` starts
    /// one, with its state in reach.
    fn serve_one(opts: WorkerOptions) -> (Arc<WorkerState>, JoinHandle<io::Result<()>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let state = Arc::new(WorkerState::new(&listener, opts).unwrap());
        let serving = Arc::clone(&state);
        (state, thread::spawn(move || serve_state(listener, &serving)))
    }

    /// A flat tree: every panel's rows killed by its diagonal row, by TS
    /// kernels on even rows and TT kernels on odd ones.
    fn flat(mt: usize, nt: usize) -> Vec<ElimOp> {
        (0..nt.min(mt) as u32)
            .flat_map(|k| (k + 1..mt as u32).map(move |i| ElimOp::new(k, i, k, i % 2 == 0)))
            .collect()
    }

    /// Factorize a random input of `graph`'s shape on the fleet at `addrs`
    /// (a 1 × n grid) as run `run_id`, and check the result bitwise
    /// against `execute_serial_ib`.
    fn run_bitwise(addrs: &[SocketAddr], graph: &TaskGraph, ib: usize, run_id: u64) -> DistReport {
        let input = TiledMatrix::random(graph.mt(), graph.nt(), graph.b(), 100 + run_id);
        let cfg = DistConfig { run_id, ..DistConfig::for_workers(addrs.len()) };
        let (a, f, report) = factorize(addrs, graph, &input, ib, &cfg).expect("factorize");
        let mut reference = input.clone();
        let truth = execute_serial_ib(graph, &mut reference, ib);
        let bits = |m: &TiledMatrix| m.to_dense().data().iter().map(|x| x.to_bits()).collect();
        let (got, want): (Vec<u64>, Vec<u64>) = (bits(&a), bits(&reference));
        assert_eq!(got, want, "run {run_id}: matrix diverged");
        assert!(truth.bitwise_eq(&f), "run {run_id}: T factors diverged");
        report
    }

    /// What a worker's current run holds: its shard's slots, and the slots
    /// it recycled, with their epochs.
    fn held(state: &WorkerState) -> (Vec<Slot>, Vec<(u64, Slot)>) {
        let run = state.current().expect("a run");
        let shard: Vec<Slot> = run.shard.lock().unwrap().keys().copied().collect();
        let dropped = run.sched().dropped.clone();
        (shard, dropped)
    }

    /// One worker runs every task, lowest ready id first, which on one
    /// worker is program order: its `Completed` log is exactly `0..n`
    /// (a data-reuse LIFO deque would run a released update before an
    /// older ready one).
    #[test]
    fn a_one_worker_fleet_runs_the_tasks_in_program_order() {
        let (state, serving) = serve_one(WorkerOptions::default());
        let (mt, nt, b) = (6, 4, 8);
        let graph = TaskGraph::build(mt, nt, b, &flat(mt, nt));
        let input = TiledMatrix::random(mt, nt, b, 9);
        factorize(&[state.addr], &graph, &input, 4, &DistConfig::for_workers(1))
            .expect("factorize");
        let log = state.current().expect("a run").sched().log.clone();
        assert_eq!(log, (0..graph.tasks().len() as u64).collect::<Vec<_>>());
        shutdown_workers(&[state.addr]);
        serving.join().unwrap().unwrap();
    }

    /// A `Start` whose A tile was never `Put` fails its first task with a
    /// typed error naming the slot, reported at the next progress poll, and
    /// creates none of the task's factor outputs.
    #[test]
    fn a_missing_input_tile_is_a_typed_error_and_creates_nothing() {
        let (state, serving) = serve_one(WorkerOptions::default());
        let mut conn = TcpStream::connect(state.addr).unwrap();
        let mut rpc = |msg: Msg| {
            send_msg(&mut conn, &msg).unwrap();
            recv_msg(&mut conn, "reply", Duration::from_secs(5)).unwrap()
        };
        let (addrs, tasks) = (vec![state.addr], vec![Task::geqrt(0, 0)]);
        assert_eq!(
            rpc(Msg::Hello { run_id: 1, dims: [1, 1, 4, 4, 1, 1, 0], addrs, tasks }),
            Msg::Ok
        );
        let start = Msg::Start { run_id: 1, epoch: 1, owners: vec![0], completed: vec![] };
        assert_eq!(rpc(start), Msg::Ok);
        let failure = (0..2_000).find_map(|_| {
            match rpc(Msg::Completed { run_id: 1, after: 0, halt: false }) {
                Msg::Err { detail } => Some(detail),
                Msg::Progress { ids, .. } => {
                    assert!(ids.is_empty(), "GEQRT ran without its tile");
                    thread::sleep(Duration::from_millis(2));
                    None
                }
                other => panic!("expected Progress or Err, got {other:?}"),
            }
        });
        let failure = failure.expect("the task never failed");
        assert!(failure.contains("needs A(0,0) of 16 doubles here"), "{failure}");
        let shard = state.current().expect("a run").shard.lock().unwrap().len();
        assert_eq!(shard, 0, "a factor buffer was created");
        shutdown_workers(&[state.addr]);
        serving.join().unwrap().unwrap();
    }

    /// One fleet serves five runs of different shapes, tile sizes and
    /// inputs out of recycled buffers. Every run is bitwise the serial
    /// reference, and after each, per buffer length, no worker's pool and
    /// shard together hold more buffers than the worker had in use at once.
    #[test]
    fn pooled_buffers_leak_nothing_across_runs() {
        let fleet: Vec<_> = (0..2).map(|_| serve_one(WorkerOptions::default())).collect();
        let addrs: Vec<SocketAddr> = fleet.iter().map(|(s, _)| s.addr).collect();
        let shapes = [(6, 4, 8, 4), (4, 4, 8, 8), (8, 3, 4, 2), (5, 2, 8, 3), (6, 4, 8, 4)];
        for (run, &(mt, nt, b, ib)) in shapes.iter().enumerate() {
            let graph = TaskGraph::build(mt, nt, b, &flat(mt, nt));
            run_bitwise(&addrs, &graph, ib, run as u64 + 1);
            let lens = [SlotFamily::A, SlotFamily::Vg, SlotFamily::Tg].map(|f| f.slot_len(b, ib));
            for (w, (state, _)) in fleet.iter().enumerate() {
                let current = state.current().expect("a run");
                let shard = current.shard.lock().unwrap();
                for n in lens.into_iter().chain([hqr_kernels::tau_len(b)]) {
                    let (shelf, most) = state.pool.count(n);
                    let in_shard = shard.values().filter(|buf| buf.len() == n).count();
                    assert!(most > 0, "run {run}, worker {w}: no buffer of {n} doubles was used");
                    assert!(
                        shelf + in_shard <= most,
                        "run {run}, worker {w}: {shelf} + {in_shard} buffers of {n} > {most}"
                    );
                }
            }
        }
        shutdown_workers(&addrs);
        for (state, serving) in fleet {
            serving.join().unwrap().unwrap();
            let tiles = state.pool.count(SlotFamily::A.slot_len(8, 4)).0;
            assert!(tiles > 0, "no dropped tile came back to the pool");
        }
    }

    /// Five identical runs on a two-worker fleet: every buffer the later
    /// runs use was made in the first. Worker 1 is slow, so worker 0's
    /// pushes have all arrived before it consumes the first, and each run
    /// holds as many received slots at once as any.
    #[test]
    fn identical_runs_make_no_buffer_after_the_first() {
        let slow = WorkerOptions { slow_task_ms: 60, ..Default::default() };
        let fleet = [serve_one(WorkerOptions::default()), serve_one(slow)];
        let addrs: Vec<SocketAddr> = fleet.iter().map(|(s, _)| s.addr).collect();
        let graph = TaskGraph::build(4, 2, 8, &flat(4, 2));
        let mut made = Vec::new();
        for run in 1..=5 {
            run_bitwise(&addrs, &graph, 4, run);
            made.push(fleet.each_ref().map(|(state, _)| state.pool.made()));
        }
        assert!(made[0].iter().all(|&n| n > 0), "{made:?}");
        assert!(made.iter().all(|m| *m == made[0]), "buffers made after each run: {made:?}");
        shutdown_workers(&addrs);
        for (_, serving) in fleet {
            serving.join().unwrap().unwrap();
        }
    }

    /// After a fault-free run of the adaptive hierarchical tree on a 1 × 2
    /// fleet, a worker's shard holds only its own columns' slots: every
    /// tile, V copy and T a peer pushed was dropped once its last task here
    /// completed, and so was every V copy of its own.
    #[test]
    fn a_shard_at_the_gather_holds_no_slot_a_peer_pushed() {
        let fleet: Vec<_> = (0..2).map(|_| serve_one(WorkerOptions::default())).collect();
        let addrs: Vec<SocketAddr> = fleet.iter().map(|(s, _)| s.addr).collect();
        let (mt, nt) = (8, 4);
        let setup = hqr::baselines::hqr_adaptive(mt, nt, ProcessGrid::new(1, 2));
        let graph = TaskGraph::build(mt, nt, 4, &setup.elims.to_ops());
        let report = run_bitwise(&addrs, &graph, 2, 1);
        assert!(report.peer_transfers > 0 && report.recoveries.is_empty(), "{report:?}");
        for (w, (state, _)) in fleet.iter().enumerate() {
            let (shard, dropped) = held(state);
            assert!(
                dropped.iter().any(|(_, s)| s.0 == SlotFamily::A),
                "worker {w} dropped no tile"
            );
            let foreign: Vec<_> =
                shard.iter().filter(|&&(fam, _, j)| j % 2 != w || fam == SlotFamily::Vg).collect();
            assert!(foreign.is_empty(), "worker {w} holds {foreign:?} at the gather");
        }
        shutdown_workers(&addrs);
        fleet.into_iter().for_each(|(_, serving)| serving.join().unwrap().unwrap());
    }

    /// The 3 × 6-tile flat tree, and the position of `TSMQR(1, 2; j)`,
    /// which reads `A(2,1)` and `Tk(2,1)` as `TSQRT(1, 2; 1)` left them.
    fn panel_one() -> (TaskGraph, impl Fn(u16) -> usize) {
        let graph = TaskGraph::build(3, 6, 4, &flat(3, 6));
        let tasks = graph.tasks().to_vec();
        let at = move |j| tasks.iter().position(|t| *t == Task::update(1, 2, 1, j, true));
        (graph, move |j| at(j).expect("a TSMQR of panel 1"))
    }

    /// Run `graph` on a 1 × n fleet whose worker `victim`, at 150 ms a
    /// task, dies before the task at `dies_at` (program order is its order:
    /// the others never keep it waiting); returns the survivors' states.
    fn kill_before(
        graph: &TaskGraph,
        n: usize,
        victim: usize,
        dies_at: usize,
    ) -> Vec<Arc<WorkerState>> {
        let grid = ProcessGrid::new(1, n);
        let on_victim = |t: &Task| {
            let (i, j) = t.affinity_tile();
            Layout::Cyclic2D(grid).owner(i, j) == victim
        };
        let before = graph.tasks()[..dies_at].iter().filter(|t| on_victim(t)).count() as u64;
        let doomed = WorkerOptions {
            die_after_tasks: Some(before),
            slow_task_ms: 150,
            ..Default::default()
        };
        let fleet: Vec<_> = (0..n)
            .map(|w| serve_one(if w == victim { doomed } else { WorkerOptions::default() }))
            .collect();
        let addrs: Vec<SocketAddr> = fleet.iter().map(|(s, _)| s.addr).collect();
        let report = run_bitwise(&addrs, graph, 4, 1);
        assert_eq!(report.recoveries.len(), 1, "{:?}", report.recoveries);
        assert_eq!(report.recoveries[0].worker, victim);
        shutdown_workers(&addrs);
        let states = fleet.into_iter().map(|(state, serving)| {
            serving.join().unwrap().unwrap();
            state
        });
        states.enumerate().filter(|&(w, _)| w != victim).map(|(_, state)| state).collect()
    }

    /// A survivor drops a copy it was pushed, then the copy's writer dies:
    /// the coordinator must place it. On a 1 × 2 fleet, worker 1's
    /// `TSQRT(1, 2; 1)` pushes `A(2,1)` and `Tk(2,1)` to worker 0, whose
    /// TSMQRs of columns 2 and 4 are their last readers there; worker 1
    /// runs the TSMQR of column 3 and dies before that of column 5, which
    /// recovery remaps onto worker 0.
    #[test]
    fn a_dropped_copy_whose_writer_dies_is_placed() {
        let (graph, at) = panel_one();
        let survivor = &kill_before(&graph, 2, 1, at(5))[0];
        let (shard, dropped) = held(survivor);
        for slot in [(SlotFamily::A, 2, 1), (SlotFamily::Tk, 2, 1)] {
            assert!(
                dropped.contains(&(1, slot)),
                "{slot:?} not dropped before the kill: {dropped:?}"
            );
            assert!(shard.contains(&slot), "{slot:?} was not placed");
        }
    }

    /// A survivor drops a copy it was pushed, a task that reads it is
    /// remapped onto the survivor, and the copy's living writer pushes it
    /// again. On a 1 × 3 fleet, worker 1's `TSQRT(1, 2; 1)` has readers on
    /// all three workers; worker 2 dies before its TSMQR of column 5, which
    /// lands on worker 0 after worker 0 dropped its copy.
    #[test]
    fn a_dropped_copy_comes_back_with_its_writers_push() {
        let (graph, at) = panel_one();
        let survivor = &kill_before(&graph, 3, 2, at(5))[0];
        let (_, dropped) = held(survivor);
        for slot in [(SlotFamily::A, 2, 1), (SlotFamily::Tk, 2, 1)] {
            let epochs: Vec<u64> = dropped.iter().filter(|d| d.1 == slot).map(|d| d.0).collect();
            assert_eq!(
                epochs,
                [1, 2],
                "{slot:?}: dropped before the kill, pushed and dropped again"
            );
        }
    }
}
