//! The tile worker: a process (or thread) that owns a shard of tiles and
//! runs its own share of the DAG.
//!
//! At `Hello` the worker rebuilds from the task list the `TaskGraph` every
//! other worker holds. From `Start` on it runs the tasks whose affinity
//! tile its grid ranks own, lowest task id first, on one compute thread (a
//! host with more cores runs more workers). When a task finishes, each
//! *other* worker owning one of its successors gets one `Push` with the
//! written slots those successors touch; a received push installs them and
//! releases the local successors. The graph has only last-writer edges and
//! a slot that is read without being written is never written again, so
//! every cross-worker edge carries data and no "I have read it" notice exists.
//! Installing is overwriting: the version the pushed task consumed is gone
//! from this shard, so a halted worker reports which pushes it accepted and
//! recovery counts those tasks as run (see `Msg::Progress`).
//!
//! Every connection has its own thread: pushes are drained and progress
//! polls answered while a kernel runs (the shard lock is held to take and return
//! buffers, never across a kernel, and a send never holds it), so two
//! workers pushing to each other cannot deadlock and a slow worker is
//! *slow*, not dead. Every request is idempotent. A push that cannot be
//! delivered is dropped: its target is dead (the coordinator's poll of it
//! fails, and the next epoch re-pushes to the new owner) or partitioned
//! from this worker alone (the run ends at the stall deadline).
//!
//! Chaos hook: [`WorkerOptions::die_after_tasks`] is a deterministic
//! kill-point — `die_hard` aborts the process (as SIGKILL would), otherwise
//! the worker severs every connection and stops serving.

use crate::error::NetError;
use crate::frame::{dial, read_frame_into, write_frame};
use crate::kernel::{run_task_on_map, Shard, Slot};
use crate::msg::{
    decode_borrowed, decode_tile, encode_into, push_frame, put_frame, recv_msg, send_msg, Msg,
};
use crate::pool::TilePool;
use hqr_runtime::task::SlotFamily;
use hqr_runtime::{last_writers, Task, TaskGraph};
use hqr_tile::{Layout, ProcessGrid};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
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
}

/// How long a push may wait: on a peer's socket, or for this worker's own
/// `Start` of the epoch the push belongs to.
const PEER_TIMEOUT: Duration = Duration::from_secs(5);
const NOT_TO_RUN: u32 = u32::MAX;

/// What the compute thread and the connection handlers share about the
/// current epoch.
#[derive(Default)]
struct Sched {
    /// 0 until the first `Start`.
    epoch: u64,
    /// Grid rank → worker index.
    owners: Vec<usize>,
    /// The task's outputs are in the shard: it ran or was placed here, or
    /// its push was accepted this epoch.
    arrived: Vec<bool>,
    /// Predecessors whose outputs have not arrived, for a task owned here
    /// and not yet run; `NOT_TO_RUN` for every other task.
    deps: Vec<u32>,
    ready: BTreeSet<u32>,
    left: usize,
    /// Tasks run here, in completion order — what `Completed` reads.
    log: Vec<u64>,
    /// Tasks whose push was accepted this epoch — what a halt reports.
    accepted: Vec<u64>,
    /// Set by a halting `Completed`, cleared by `Start`: the compute
    /// thread stops at the next task boundary and pushes are ignored.
    halt: bool,
    failed: Option<String>,
    pushes: u64,
    push_floats: u64,
    compute: Option<JoinHandle<()>>,
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
    shard: Shard,
    sched: Mutex<Sched>,
    /// Wakes the compute thread (a task became ready, or halt) and pushes
    /// waiting for their epoch.
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
        let (shard, sched, work) = (Shard::default(), Mutex::default(), Condvar::new());
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

    /// Stop the compute thread at its next task boundary and wait for it.
    fn halt(&self) {
        self.sched().halt = true;
        self.work.notify_all();
        let handle = self.sched().compute.take();
        let _ = handle.map(JoinHandle::join);
    }

    /// `Start`: adopt the epoch's owner map and completed set, then run. An
    /// epoch is a function of those two and of the shard. A push accepted
    /// earlier overwrote its slots in place, which is why a halt reports it
    /// and `completed` counts its task; beyond that it is forgotten, and
    /// every completed task owned here re-pushes to the owners of its
    /// unfinished successors.
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
        if self.sched().epoch == epoch {
            return Ok(());
        }
        self.halt();
        let owners: Vec<usize> = owners.iter().map(|&w| w as usize).collect();
        let mut done = vec![false; n];
        for &t in completed {
            done[t as usize] = true;
        }
        let mine = |t: usize| self.owner(&owners, &self.graph.tasks()[t]) == self.me;
        let mut guard = self.sched();
        let s = &mut *guard;
        s.arrived = (0..n).map(|t| done[t] && mine(t)).collect();
        s.deps = (0..n).map(|t| if !done[t] && mine(t) { 0 } else { NOT_TO_RUN }).collect();
        s.left = s.deps.iter().filter(|&&d| d == 0).count();
        for t in (0..n).filter(|&t| !s.arrived[t]) {
            for &succ in self.graph.successors(t) {
                s.deps[succ as usize] = s.deps[succ as usize].saturating_add(1);
            }
        }
        s.ready = (0..n as u32).filter(|&t| s.deps[t as usize] == 0).collect();
        (s.epoch, s.halt, s.owners) = (epoch, false, owners.clone());
        s.accepted.clear();
        let (run, st) = (Arc::clone(self), Arc::clone(state));
        s.compute = Some(thread::spawn(move || run.compute(&st, epoch, &owners, &done)));
        drop(guard);
        self.work.notify_all();
        Ok(())
    }

    fn compute(&self, state: &WorkerState, epoch: u64, owners: &[usize], done: &[bool]) {
        let (mut peers, mut frame) = (HashMap::new(), Vec::new());
        let mut push = |t| self.push_outputs(&mut peers, &mut frame, owners, done, epoch, t);
        // What this worker's finished tasks owe the epoch's unfinished ones.
        for (t, task) in self.graph.tasks().iter().enumerate() {
            if done[t] && self.owner(owners, task) == self.me {
                push(t as u32);
            }
        }
        loop {
            let mut s = self.sched();
            let next = loop {
                if s.halt || s.left == 0 || state.dead.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(t) = s.ready.pop_first() {
                    break t;
                }
                s = self.work.wait(s).expect("sched lock: a holder panicked");
            };
            let ran = s.log.len() as u64;
            drop(s);
            if state.opts.die_after_tasks.is_some_and(|limit| ran >= limit) {
                if state.opts.die_hard {
                    // The real thing: no destructors, no goodbyes —
                    // indistinguishable from SIGKILL for every peer.
                    std::process::abort();
                }
                return state.die_soft();
            }
            thread::sleep(Duration::from_millis(state.opts.slow_task_ms));
            let task = &self.graph.tasks()[next as usize];
            let result = run_task_on_map(&self.shard, &state.pool, task, self.graph.b(), self.ib);
            // A worker killed mid-kernel publishes nothing.
            if state.dead.load(Ordering::SeqCst) {
                return;
            }
            let mut s = self.sched();
            if let Err(e) = result {
                s.failed = Some(e.to_string());
                return;
            }
            (s.deps[next as usize], s.arrived[next as usize]) = (NOT_TO_RUN, true);
            s.left -= 1;
            s.log.push(u64::from(next));
            self.release(&mut s, next);
            drop(s);
            push(next);
        }
    }

    /// `t`'s outputs are here: its local successors lose a dependency.
    fn release(&self, s: &mut Sched, t: u32) {
        for &succ in self.graph.successors(t as usize) {
            if s.deps[succ as usize] != NOT_TO_RUN {
                s.deps[succ as usize] -= 1;
                if s.deps[succ as usize] == 0 {
                    s.ready.insert(succ);
                }
            }
        }
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

    /// A peer's push: install and release, exactly once per task and
    /// epoch; anything that does not fit the plan changes nothing.
    fn accept_push(&self, pool: &TilePool, epoch: u64, task_id: u64, slots: Vec<(Slot, &[u8])>) {
        let tasks = self.graph.tasks();
        let Some(task) = usize::try_from(task_id).ok().and_then(|t| tasks.get(t)) else { return };
        let (t, writes) = (task_id as usize, task.writes());
        if slots.iter().any(|&(s, raw)| !writes.contains(&s) || raw.len() != self.slot_len(s) * 8) {
            return;
        }
        let tiles: Vec<_> = slots
            .into_iter()
            .filter_map(|(s, raw)| Some((s, self.decode(pool, s, raw)?)))
            .collect();
        // The sender's `Start` can precede ours: wait for the epoch rather
        // than lose the push (ours is on its way, or the run is over and the
        // wait times out). The sched lock is then held across the install, so
        // a halt or a `Start` sees this push whole or not at all.
        let (mut s, _) = self
            .work
            .wait_timeout_while(self.sched(), PEER_TIMEOUT, |s| s.epoch < epoch)
            .expect("sched lock: a holder panicked");
        // (`owners` is empty until the first `Start`: epoch 0 is no epoch.)
        let stale = s.epoch != epoch || s.halt || s.owners.is_empty();
        if stale || s.arrived[t] || self.owner(&s.owners, task) == self.me {
            return pool.give(tiles.into_iter().map(|(_, buf)| buf), 0);
        }
        self.install(pool, tiles);
        s.arrived[t] = true;
        s.accepted.push(task_id);
        self.release(&mut s, t as u32);
        drop(s);
        self.work.notify_all();
    }

    /// The coordinator's `Put`. Tiles are placed between epochs: a
    /// straggler from a connection the coordinator gave up on must not undo
    /// what a task wrote since.
    fn place(&self, pool: &TilePool, slot: Slot, raw: &[u8]) {
        let Some(buf) = self.decode(pool, slot, raw) else { return };
        let s = self.sched();
        if s.epoch == 0 || s.halt {
            self.install(pool, [(slot, buf)]);
        } else {
            pool.give([buf], 0);
        }
    }

    /// Doubles in `slot`'s buffer in this run.
    fn slot_len(&self, (fam, ..): Slot) -> usize {
        fam.slot_len(self.graph.b(), self.ib)
    }

    /// A received buffer for `slot` decoded into a pooled one if it is
    /// [`Run::slot_len`] long; a buffer of any other size is dropped on
    /// arrival and never enters the shard.
    fn decode(&self, pool: &TilePool, slot: Slot, raw: &[u8]) -> Option<Box<[f64]>> {
        let n = self.slot_len(slot);
        (raw.len() == n * 8).then(|| {
            let mut buf = pool.take(n);
            decode_tile(raw, &mut buf).expect("the size was checked");
            buf
        })
    }

    /// Install `tiles` in the shard; the buffers they replace go back to
    /// `pool`.
    fn install(&self, pool: &TilePool, tiles: impl IntoIterator<Item = (Slot, Box<[f64]>)>) {
        let mut shard = self.shard.lock().expect("shard lock");
        let replaced: Vec<_> =
            tiles.into_iter().filter_map(|(s, buf)| shard.insert(s, buf)).collect();
        let held = shard.len();
        drop(shard);
        pool.give(replaced, held);
    }

    /// `Gather`: stream every slot whose last writer this worker owns,
    /// in slot order, then the push counters. Each frame is encoded under
    /// the shard lock into one reused buffer and written after its release.
    fn gather(&self, stream: &mut TcpStream) -> Result<(), NetError> {
        // The compute thread may still be counting its last push.
        self.halt();
        let s = self.sched();
        let (owners, end) =
            (s.owners.clone(), Msg::End { pushes: s.pushes, push_floats: s.push_floats });
        drop(s);
        let tasks = self.graph.tasks();
        let mut last: Vec<(Slot, u32)> =
            last_writers(&self.graph, &vec![true; tasks.len()]).into_iter().collect();
        last.sort_unstable();
        let mut frame = Vec::new();
        for (slot, w) in last {
            if !owners.is_empty() && self.owner(&owners, &tasks[w as usize]) == self.me {
                let shard = self.shard.lock().expect("shard lock");
                let held =
                    shard.get(&slot).map(|buf| encode_into(&mut frame, &put_frame(slot, buf)));
                drop(shard);
                // A slot that is not here is the coordinator's to rebuild.
                if held.is_some() {
                    write_frame(stream, &frame)?;
                }
            }
        }
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
        if let Some(run) = self.current() {
            // Through the lock, so a compute thread between its check of
            // `dead` and its wait cannot miss the wake-up.
            drop(run.sched());
            run.work.notify_all();
        }
        // The accept loop blocks in `accept`; a connection wakes it.
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
                let lens = [SlotFamily::A, SlotFamily::Tg].map(|fam| run.slot_len((fam, 0, 0)));
                // New run: the previous one's plan and compute thread go, and
                // its shard's buffers go back to the pool. (Halted outside
                // the lock: a dying compute thread takes it.)
                let old = state.run.lock().expect("run lock").replace(run);
                if let Some(old) = old {
                    old.halt();
                    let shard = std::mem::take(&mut *old.shard.lock().expect("shard lock"));
                    let held = shard.len();
                    state.pool.give(shard.into_values(), held);
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
            state.run(run_id)?.gather(stream).map_err(|e| e.to_string())?;
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
    use crate::coord::{factorize, shutdown_workers, DistConfig};
    use hqr_runtime::{execute_serial_ib, ElimOp};
    use hqr_tile::TiledMatrix;

    /// One fleet serves five runs of different shapes, tile sizes and
    /// inputs out of recycled buffers. Every run is bitwise the serial
    /// reference, and no worker's pool ever holds more buffers than the
    /// largest shard that worker held (a shard only grows during a run, so
    /// its size after the run is its largest).
    #[test]
    fn pooled_buffers_leak_nothing_across_runs() {
        let mut fleet = Vec::new();
        for _ in 0..2 {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let state = Arc::new(WorkerState::new(&listener, WorkerOptions::default()).unwrap());
            let serving = Arc::clone(&state);
            fleet.push((state, thread::spawn(move || serve_state(listener, &serving))));
        }
        let addrs: Vec<SocketAddr> = fleet.iter().map(|(s, _)| s.addr).collect();
        let mut largest = [0usize; 2];
        let shapes = [(6, 4, 8, 4), (4, 4, 8, 8), (8, 3, 4, 2), (5, 2, 8, 3), (6, 4, 8, 4)];
        for (run, &(mt, nt, b, ib)) in shapes.iter().enumerate() {
            let elims: Vec<ElimOp> = (0..nt as u32)
                .flat_map(|k| (k + 1..mt as u32).map(move |i| ElimOp::new(k, i, k, i % 2 == 0)))
                .collect();
            let graph = TaskGraph::build(mt, nt, b, &elims);
            let input = TiledMatrix::random(mt, nt, b, 100 + run as u64);
            let cfg = DistConfig { run_id: run as u64 + 1, ..DistConfig::for_workers(2) };
            let (a, f, _) = factorize(&addrs, &graph, &input, ib, &cfg).expect("factorize");
            let mut reference = input.clone();
            let truth = execute_serial_ib(&graph, &mut reference, ib);
            let bits = |m: &TiledMatrix| m.to_dense().data().iter().map(|x| x.to_bits()).collect();
            let (got, want): (Vec<u64>, Vec<u64>) = (bits(&a), bits(&reference));
            assert_eq!(got, want, "run {run}: matrix diverged");
            assert!(truth.bitwise_eq(&f), "run {run}: T factors diverged");
            for (w, (state, _)) in fleet.iter().enumerate() {
                let shard = state.current().expect("a run").shard.lock().unwrap().len();
                largest[w] = largest[w].max(shard);
            }
        }
        shutdown_workers(&addrs);
        for (w, (state, serving)) in fleet.into_iter().enumerate() {
            serving.join().unwrap().unwrap();
            let peak = state.pool.peak();
            assert!(peak > 0, "worker {w} never recycled a buffer");
            assert!(peak <= largest[w], "worker {w}: pool held {peak} > shard {}", largest[w]);
        }
    }
}
