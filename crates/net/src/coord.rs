//! The distributed coordinator: plans a run, streams the matrix out and
//! the factors back, supervises the workers in between, and recovers from
//! their deaths. It executes nothing and relays nothing.
//!
//! Tiles are distributed 2D block-cyclically: tile `(i, j)` belongs to
//! grid rank `owner(i%p, j%q)`, and a `rank → worker` table maps ranks
//! onto live processes (initially the identity; recovery remaps a dead
//! worker's ranks onto survivors). Every worker gets the whole task list
//! at `Hello` and runs the tasks whose affinity tile its ranks own, pushing
//! finished tiles straight to their consumers (see [`crate::worker`]). The
//! coordinator scatters each worker's tiles as one stream with a single
//! acknowledgement at its end, sends `Start`, follows completions through
//! the `Completed` cursor, and has each worker stream back the slots whose
//! last writer it owns.
//!
//! Failure detection is the progress poll: every few milliseconds the
//! coordinator reads each survivor's `Completed` cursor over the one
//! connection it keeps per worker, and a worker answers that connection on
//! its own thread while a kernel runs, so a slow worker is not a dead one.
//! A poll — or any exchange — that fails through the whole retry ladder
//! condemns the worker (partitions are fail-stop: a condemned worker is
//! never spoken to again, so a revived partition cannot corrupt the run);
//! a run with no progress for `stall_timeout` is abandoned. Condemnation
//! triggers recovery: the survivors halt at a task boundary and report what
//! they ran; the dead worker's ranks are remapped onto survivors; every slot
//! version the dead worker wrote (a V copy only while it is still read) is
//! rebuilt *locally* by lineage re-execution (`hqr_runtime::lineage`) from
//! the pristine input and placed on its writer's new owner, which re-pushes
//! it to the survivors that need it; and the survivors restart as a new
//! epoch from the new owner table and the completed set. Kernels are
//! deterministic, so the result is bitwise-identical to a fault-free run.

use crate::error::NetError;
use crate::frame::{dial, read_frame_into, write_list};
use crate::msg::{decode_borrowed, decode_tile, put_frame, recv_msg, send_msg, Msg};
use hqr_runtime::task::SlotFamily;
use hqr_runtime::Slot;
use hqr_runtime::{
    last_writers, live_v_copies, rebuild_closure, recompute_slots, FaultAction, FaultKind,
    FaultPlan, RetryPolicy, TFactors, Task, TaskGraph,
};
use hqr_tile::{Layout, ProcessGrid, TiledMatrix};
use std::collections::HashSet;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// Configuration for one distributed factorization.
#[derive(Clone, Debug)]
pub struct DistConfig {
    /// Virtual process grid; `grid.nodes()` must equal the worker count.
    pub grid: ProcessGrid,
    /// Deadline for any single RPC attempt.
    pub rpc_timeout: Duration,
    /// Retry ladder applied to retryable RPC failures.
    pub retry: RetryPolicy,
    /// Progress stall longer than this aborts the run.
    pub stall_timeout: Duration,
    /// Seeded RPC drops and delays at the coordinator's send site, the one
    /// fault kind the coordinator injects. A drop is an instant timeout (the
    /// frame never leaves and the retry ladder engages), so tests do not sit
    /// out real deadlines; a delay is a real sleep. Killed workers are
    /// driven from the worker side ([`crate::WorkerOptions`]).
    pub fault: FaultPlan,
    /// Run identifier (workers reset state on a new id).
    pub run_id: u64,
}

impl DistConfig {
    /// Sensible defaults for `n` workers: the most square grid with
    /// `p*q == n`, patient RPC deadlines.
    pub fn for_workers(n: usize) -> Self {
        assert!(n > 0, "need at least one worker");
        let mut p = (n as f64).sqrt() as usize;
        while p > 1 && !n.is_multiple_of(p) {
            p -= 1;
        }
        DistConfig {
            grid: ProcessGrid::new(p.max(1), n / p.max(1)),
            rpc_timeout: Duration::from_secs(5),
            retry: RetryPolicy {
                base: Duration::from_millis(10),
                cap: Duration::from_millis(200),
                max_attempts: 3,
            },
            stall_timeout: Duration::from_secs(60),
            fault: FaultPlan::default(),
            run_id: 1,
        }
    }
}

/// One worker-loss recovery, for the report.
#[derive(Clone, Debug, Default)]
pub struct RecoveryEvent {
    /// Which worker was condemned.
    pub worker: usize,
    /// Why.
    pub reason: String,
    /// Unfinished tasks of the dead worker's ranks, moved to survivors.
    pub tasks_requeued: usize,
    /// Slot versions rebuilt and placed on their new owners.
    pub slots_rebuilt: usize,
    /// Lineage tasks re-executed locally to rebuild them.
    pub closure_len: usize,
}

/// What one distributed run did.
#[derive(Clone, Debug, Default)]
pub struct DistReport {
    /// Worker count at start.
    pub workers: usize,
    /// Tasks in the DAG.
    pub tasks_total: usize,
    /// Accepted task completions per worker.
    pub tasks_by_worker: Vec<u64>,
    /// Tile-carrying frames on any link, each counted once whoever sent
    /// it: scatter, worker → worker pushes, gather, recovery placements.
    pub transfers: u64,
    /// Doubles those frames carried.
    pub floats_moved: u64,
    /// The pushes among `transfers`: fault-free, the tree's message count.
    pub peer_transfers: u64,
    /// The doubles among `floats_moved` that crossed the coordinator:
    /// scatter + gather, plus recovery placements.
    pub coordinator_floats: u64,
    /// RPC attempts beyond the first, fleet-wide.
    pub rpc_retries: u64,
    /// Every condemnation + recovery, in order.
    pub recoveries: Vec<RecoveryEvent>,
    /// Wall-clock of the factorization phase (scatter..gather).
    pub elapsed: Duration,
}

/// Pause between rounds of `Completed` reads: how late the last completion
/// or a dead worker is noticed, against one RPC per worker per round.
const POLL_INTERVAL: Duration = Duration::from_millis(4);

/// A lazily-(re)connected channel to one worker.
struct Conn {
    addr: SocketAddr,
    timeout: Duration,
    stream: Option<TcpStream>,
    /// Exchanges attempted so far — what the fault plan is keyed by.
    seq: u64,
}

impl Conn {
    /// Run one exchange. Any failure drops the connection (the next attempt
    /// re-dials), so a late reply to a timed-out request is never mismatched.
    fn exchange<T>(
        &mut self,
        mut f: impl FnMut(&mut TcpStream, Duration) -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        if self.stream.is_none() {
            self.stream = Some(dial(self.addr, self.timeout)?);
        }
        let result = f(self.stream.as_mut().expect("just set"), self.timeout);
        if result.is_err() {
            self.stream = None;
        }
        result
    }
}

fn rpc(s: &mut TcpStream, timeout: Duration, req: &Msg, what: &str) -> Result<Msg, NetError> {
    send_msg(s, req)?;
    recv_msg(s, what, timeout)
}

/// Per-worker connection and verdict shared between threads.
struct Link {
    conn: Mutex<Conn>,
    condemned: AtomicBool,
}

struct Shared {
    links: Vec<Link>,
    cfg: DistConfig,
    retries: AtomicU64,
}

impl Shared {
    fn alive(&self, worker: usize) -> bool {
        !self.links[worker].condemned.load(Ordering::SeqCst)
    }

    fn survivors(&self) -> Vec<usize> {
        (0..self.links.len()).filter(|&w| self.alive(w)).collect()
    }

    /// Retry ladder around one exchange with `worker` — an RPC or a whole
    /// tile stream, either of which can simply be run again — with seeded
    /// fault injection at the send site.
    fn retrying<T>(
        &self,
        worker: usize,
        what: &str,
        mut exchange: impl FnMut(&mut TcpStream, Duration) -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        if !self.alive(worker) {
            return Err(NetError::WorkerDead { worker, reason: "previously condemned".into() });
        }
        let mut conn = self.links[worker].conn.lock().expect("conn lock");
        let mut attempt = 1u32;
        loop {
            let seq = conn.seq;
            conn.seq += 1;
            let action = self.cfg.fault.action(worker, seq);
            if let FaultAction::Delay(d) = action {
                thread::sleep(d);
            }
            let outcome = match action {
                FaultAction::Drop => Err(NetError::Timeout {
                    what: format!("{what} (injected drop)"),
                    after: self.cfg.rpc_timeout,
                }),
                _ => conn.exchange(&mut exchange),
            };
            match outcome {
                Err(e) if e.is_retryable() && self.cfg.retry.allows(attempt + 1) => {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    let salt = (worker as u64) << 32 | seq & 0xFFFF_FFFF;
                    thread::sleep(self.cfg.retry.backoff(attempt, salt));
                    attempt += 1;
                }
                outcome => return outcome,
            }
        }
    }

    fn ask(&self, worker: usize, req: &Msg, what: &str) -> Result<Msg, NetError> {
        match self.retrying(worker, what, |s, timeout| rpc(s, timeout, req, what))? {
            Msg::Err { detail } => Err(NetError::Remote(detail)),
            m => Ok(m),
        }
    }

    /// `ask` for the requests whose only good answer is `Ok`.
    fn ack(&self, worker: usize, req: &Msg, what: &str) -> Result<(), NetError> {
        match self.ask(worker, req, what)? {
            Msg::Ok => Ok(()),
            m => Err(NetError::Proto(format!("{what}: got {m:?}"))),
        }
    }

    /// Stream `tiles` to `worker` as unacknowledged `Put`s, written from
    /// where they live without a copy, closed by one acknowledged `Ping`. A
    /// connection is served in order, so the ack says every tile is
    /// installed; a stream whose connection broke is sent again whole.
    fn put_all<'a>(
        &self,
        worker: usize,
        tiles: impl Iterator<Item = (Slot, &'a [f64])> + Clone,
    ) -> Result<(), NetError> {
        self.retrying(worker, "tile stream", |s, timeout| {
            tiles.clone().try_for_each(|(slot, data)| write_list(s, &put_frame(slot, data)))?;
            match rpc(s, timeout, &Msg::Ping, "tile stream ack")? {
                Msg::Ok => Ok(()),
                m => Err(NetError::Proto(format!("tile stream ack: got {m:?}"))),
            }
        })
    }

    /// Run `f(w)` for every live worker at once, one thread each.
    fn fan_out<T: Send>(&self, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let f = &f;
        thread::scope(|scope| {
            let spawn = |w| scope.spawn(move || f(w));
            let threads: Vec<_> = self.survivors().into_iter().map(spawn).collect();
            threads.into_iter().map(|h| h.join().expect("fan-out panicked")).collect()
        })
    }
}

struct CoordState<'g> {
    graph: &'g TaskGraph,
    input: &'g TiledMatrix,
    ib: usize,
    shared: &'g Shared,
    /// Tile → grid rank: 2D block-cyclic.
    layout: Layout,
    completed: Vec<bool>,
    /// Who ran each completed task (dead or alive).
    ran: Vec<usize>,
    /// How many of each worker's log entries have been read.
    cursor: Vec<u64>,
    /// rank -> live worker index; rank `r` starts on worker `r`.
    rank_owner: Vec<usize>,
    epoch: u64,
    done_count: usize,
    report: DistReport,
}

impl CoordState<'_> {
    fn owner(&self, task: &Task) -> usize {
        let (i, j) = task.affinity_tile();
        self.rank_owner[self.layout.owner(i, j)]
    }

    /// One `Completed` read of `w` (halting it first if `halt`), merged.
    /// Returns the tasks whose pushes `w` accepted, which only a halt lists.
    fn poll(&mut self, w: usize, halt: bool) -> Result<Vec<usize>, NetError> {
        let ask = Msg::Completed { run_id: self.shared.cfg.run_id, after: self.cursor[w], halt };
        let Msg::Progress { ids, accepted } = self.shared.ask(w, &ask, "progress report")? else {
            return Err(NetError::Proto(format!("worker {w} answered a read with no progress")));
        };
        let tasks = self.completed.len();
        let known = |ids: Vec<u64>| -> Result<Vec<usize>, NetError> {
            let unknown = |id| NetError::Proto(format!("worker {w} reports unknown task {id}"));
            let index = |id| usize::try_from(id).ok().filter(|&t| t < tasks).ok_or(unknown(id));
            ids.into_iter().map(index).collect()
        };
        let (ids, accepted) = (known(ids)?, known(accepted)?);
        self.cursor[w] += ids.len() as u64;
        for t in ids {
            self.credit(t, w);
        }
        Ok(accepted)
    }

    fn credit(&mut self, t: usize, worker: usize) {
        if !std::mem::replace(&mut self.completed[t], true) {
            self.ran[t] = worker;
            self.done_count += 1;
            self.report.tasks_by_worker[worker] += 1;
        }
    }

    /// Doubles the buffers of `slots` hold.
    fn floats(&self, slots: impl Iterator<Item = Slot>) -> u64 {
        slots.map(|(fam, ..)| fam.slot_len(self.graph.b(), self.ib) as u64).sum()
    }

    fn count_frames(&mut self, frames: u64, floats: u64, via_coordinator: bool) {
        self.report.transfers += frames;
        self.report.floats_moved += floats;
        if via_coordinator {
            self.report.coordinator_floats += floats;
        } else {
            self.report.peer_transfers += frames;
        }
    }

    /// Scatter, start, follow completions (recovering from losses), gather.
    fn supervise(&mut self) -> Result<(TiledMatrix, TFactors), NetError> {
        let (graph, shared, input, layout) = (self.graph, self.shared, self.input, &self.layout);
        // Scatter: each worker's tiles as one pipelined stream, all workers at
        // once, encoded straight from `input`.
        let coords = (0..graph.nt()).flat_map(|j| (0..graph.mt()).map(move |i| (i, j)));
        let scattered = shared.fan_out(|w| {
            let mine = coords.clone().filter(|&(i, j)| layout.owner(i, j) == w);
            shared.put_all(w, mine.map(|(i, j)| ((SlotFamily::A, i, j), input.tile(i, j))))
        });
        scattered.into_iter().collect::<Result<(), NetError>>()?;
        let floats = self.floats(coords.clone().map(|(i, j)| (SlotFamily::A, i, j)));
        self.count_frames((graph.mt() * graph.nt()) as u64, floats, true);
        let mut doomed: Vec<(usize, String)> = Vec::new();
        self.restart(&mut doomed)?;
        // The result's storage, made while the workers compute. The gather
        // fills every tile some task writes, so only the others are copied.
        let written: HashSet<Slot> = graph.tasks().iter().flat_map(Task::writes).collect();
        let mut a = TiledMatrix::zeros(graph.mt(), graph.nt(), graph.b());
        for (i, j) in coords.filter(|&(i, j)| !written.contains(&(SlotFamily::A, i, j))) {
            a.tile_mut(i, j).copy_from_slice(input.tile(i, j));
        }
        let out = (a, TFactors::allocate_for(graph, self.ib), HashSet::new());

        let mut last_progress = Instant::now();
        while self.done_count < self.report.tasks_total {
            thread::sleep(POLL_INTERVAL);
            let before = self.done_count;
            for w in shared.survivors() {
                if let Err(e) = self.poll(w, false) {
                    doomed.push((w, format!("completion poll failed: {e}")));
                }
            }
            if self.done_count > before || !doomed.is_empty() {
                last_progress = Instant::now();
            }
            if !doomed.is_empty() {
                self.restart(&mut doomed)?;
            } else if last_progress.elapsed() > shared.cfg.stall_timeout {
                let (done, total) = (self.done_count, self.report.tasks_total);
                return Err(NetError::Recovery(format!("stalled at {done}/{total} tasks done")));
            }
        }
        self.gather(Mutex::new(out))
    }

    /// Condemn every worker in `doomed`, recover, and `Start` the survivors
    /// as a new epoch (a run's first `Start` is the empty case). A survivor
    /// that fails a step stays in `doomed` for the caller's next round:
    /// every step is idempotent.
    fn restart(&mut self, doomed: &mut Vec<(usize, String)>) -> Result<(), NetError> {
        let (tasks, shared) = (self.graph.tasks(), self.shared);
        for (w, reason) in doomed.drain(..) {
            if !shared.alive(w) {
                continue;
            }
            shared.links[w].condemned.store(true, Ordering::SeqCst);
            let survivors = shared.survivors();
            if survivors.is_empty() {
                let last = format!("worker {w} condemned ({reason}) and no survivors remain");
                return Err(NetError::Recovery(last));
            }
            let orphaned =
                tasks.iter().zip(&self.completed).filter(|(t, &c)| !c && self.owner(t) == w);
            let tasks_requeued = orphaned.count();
            for (rank, owner) in self.rank_owner.iter_mut().enumerate() {
                if *owner == w {
                    *owner = survivors[rank % survivors.len()];
                }
            }
            let event = RecoveryEvent { worker: w, reason, tasks_requeued, ..Default::default() };
            self.report.recoveries.push(event);
        }
        let survivors = shared.survivors();
        if !self.report.recoveries.is_empty() {
            // Survivors stop at a task boundary and say what they ran, and
            // whose pushes they took in.
            let mut accepted = Vec::new();
            for &w in &survivors {
                match self.poll(w, true) {
                    Ok(pushed) => accepted.extend(pushed),
                    Err(e) => doomed.push((w, format!("halt failed: {e}"))),
                }
            }
            if doomed.is_empty() {
                doomed.extend(self.replace_lost(&accepted).err());
            }
            if !doomed.is_empty() {
                return Ok(());
            }
        }
        self.epoch += 1;
        let owners = self.rank_owner.iter().map(|&w| w as u64).collect();
        let completed = (0..tasks.len() as u64).filter(|&t| self.completed[t as usize]).collect();
        let start = Msg::Start { run_id: shared.cfg.run_id, epoch: self.epoch, owners, completed };
        for &w in &survivors {
            if let Err(e) = shared.ack(w, &start, "start ack") {
                doomed.push((w, format!("start failed: {e}")));
            }
        }
        Ok(())
    }

    /// After the survivors halted: close the completed set, then rebuild and
    /// place every slot version the dead worker wrote; `Err` names a
    /// survivor that could not take one.
    fn replace_lost(&mut self, accepted: &[usize]) -> Result<(), (usize, String)> {
        let (graph, shared, tasks) = (self.graph, self.shared, self.graph.tasks());
        let dead = self.report.recoveries.last().expect("recovering").worker;
        // A push a survivor accepted replaced the slot's previous version in
        // its shard, so its task counts as run; if no survivor's log has it,
        // it ran on the dead worker, whose outputs are then rebuilt below.
        // Leaving it to be run again would apply it to its own output.
        for &t in accepted {
            self.credit(t, dead);
        }
        // A task some survivor ran had all its ancestors run, wherever the
        // report of them was lost: they ran on the dead worker too. Edges
        // point forward, so one descending pass closes the set.
        for t in (0..tasks.len()).rev() {
            if graph.successors(t).iter().any(|&s| self.completed[s as usize]) {
                self.credit(t, dead);
            }
        }
        // Only a writer keeps its version: a worker drops a version it was
        // pushed once no task of its own touches it. Lost, then, and placed
        // on the new owner of its writer: every slot version whose writer's
        // worker is dead — but a V copy no task not completed reads — and
        // a never-written tile of a rank that has left its first worker. (A
        // second recovery places both again: correct, and simpler than
        // remembering where the first one put them.)
        let writers = last_writers(graph, &self.completed);
        let live = live_v_copies(graph, &self.completed).into_iter().map(|t| &tasks[t as usize]);
        let live: HashSet<Slot> =
            live.map(|t| (SlotFamily::Vg, t.i as usize, t.k as usize)).collect();
        let mut lost: Vec<(usize, Slot)> = Vec::new();
        for (&slot, &t) in &writers {
            let spent = slot.0 == SlotFamily::Vg && !live.contains(&slot);
            if !shared.alive(self.ran[t as usize]) && !spent {
                lost.push((self.owner(&tasks[t as usize]), slot));
            }
        }
        for (i, j) in (0..graph.nt()).flat_map(|j| (0..graph.mt()).map(move |i| (i, j))) {
            let (slot, rank) = ((SlotFamily::A, i, j), self.layout.owner(i, j));
            if !writers.contains_key(&slot) && self.rank_owner[rank] != rank {
                lost.push((self.rank_owner[rank], slot));
            }
        }
        lost.sort_unstable();
        let slots: Vec<Slot> = lost.iter().map(|&(_, s)| s).collect();
        let closure = rebuild_closure(graph, &self.completed, &slots);
        let rebuilt = recompute_slots(graph, self.input, self.ib, &closure, &slots)
            .map_err(|e| (dead, format!("lineage rebuild failed: {e}")))?;
        for placed in lost.chunk_by(|a, b| a.0 == b.0) {
            let tiles = placed.iter().map(|(_, slot)| (*slot, &*rebuilt[slot]));
            let sent = shared.put_all(placed[0].0, tiles);
            sent.map_err(|e| (placed[0].0, format!("recovery put failed: {e}")))?;
        }
        let floats = self.floats(lost.iter().map(|&(_, slot)| slot));
        self.count_frames(lost.len() as u64, floats, true);
        let event = self.report.recoveries.last_mut().expect("recovering");
        event.slots_rebuilt += lost.len();
        event.closure_len = closure.len();
        Ok(())
    }

    /// Gather: every live worker streams the slots whose last writer it owns
    /// straight into `out`, all workers at once: each stream's frames are
    /// read into one buffer and every tile is decoded from it into its place
    /// in the result. Anything that does not arrive is rebuilt locally from
    /// lineage, as in recovery. No V copy is gathered: the result keeps V in
    /// its factored tiles; and a T slot arrives as its τ, which is all the
    /// result keeps of it.
    fn gather(
        &mut self,
        out: Mutex<(TiledMatrix, TFactors, HashSet<Slot>)>,
    ) -> Result<(TiledMatrix, TFactors), NetError> {
        let (graph, shared) = (self.graph, self.shared);
        let ask = Msg::Gather { run_id: shared.cfg.run_id };
        let streamed = shared.fan_out(|w| {
            shared.retrying(w, "gather stream", |s, timeout| {
                send_msg(s, &ask)?;
                let mut frame = Vec::new();
                loop {
                    read_frame_into(s, &mut frame, "gather stream", timeout)?;
                    match decode_borrowed(&frame)? {
                        Msg::Put { slot, data } => {
                            let mut out = out.lock().expect("gather lock");
                            let (a, f, seen) = &mut *out;
                            decode_tile(data, home(a, f, slot, data.len() / 8)?)?;
                            seen.insert(slot);
                        }
                        Msg::End { pushes, push_floats } => return Ok((pushes, push_floats)),
                        m => return Err(NetError::Proto(format!("gather stream: got {m:?}"))),
                    }
                }
            })
        });
        let (mut result, mut factors, seen) = out.into_inner().expect("gather lock");
        let tau_len = hqr_kernels::tau_len(graph.b());
        let (tiles, taus): (Vec<Slot>, Vec<Slot>) = seen.iter().partition(|s| s.0 == SlotFamily::A);
        let floats = self.floats(tiles.into_iter()) + (taus.len() * tau_len) as u64;
        self.count_frames(seen.len() as u64, floats, true);
        // A broken stream reports no pushes; what it lacks is rebuilt here.
        for (pushes, push_floats) in streamed.into_iter().flatten() {
            self.count_frames(pushes, push_floats, false);
        }
        let all = last_writers(graph, &self.completed).into_keys();
        let wanted = all.filter(|s| s.0 != SlotFamily::Vg);
        let unreachable: Vec<Slot> = wanted.filter(|s| !seen.contains(s)).collect();
        if !unreachable.is_empty() {
            let closure = rebuild_closure(graph, &self.completed, &unreachable);
            let rebuilt = recompute_slots(graph, self.input, self.ib, &closure, &unreachable);
            for (slot, data) in rebuilt.map_err(NetError::Recovery)? {
                let len = if slot.0 == SlotFamily::A { data.len() } else { tau_len };
                let dst = home(&mut result, &mut factors, slot, len)?;
                match slot.0 {
                    SlotFamily::A => dst.copy_from_slice(&data),
                    _ => hqr_kernels::tau_from_t(graph.b(), self.ib, &data, dst),
                }
            }
        }
        Ok((result, factors))
    }
}

/// Factorize `input` on the workers at `addrs`. Returns the factorized
/// matrix (R in the upper part, V below), the gathered τ factors, and a
/// run report — bitwise-identical to `execute_serial` on the same graph,
/// worker deaths included.
pub fn factorize(
    addrs: &[SocketAddr],
    graph: &TaskGraph,
    input: &TiledMatrix,
    ib: usize,
    cfg: &DistConfig,
) -> Result<(TiledMatrix, TFactors, DistReport), NetError> {
    let (n_workers, n_tasks) = (addrs.len(), graph.tasks().len());
    if cfg.grid.nodes() != n_workers {
        return Err(NetError::Config(format!("{:?} does not fit {n_workers} workers", cfg.grid)));
    }
    cfg.fault.check_kinds("the coordinator", &[FaultKind::Rpc]).map_err(NetError::Config)?;
    let start = Instant::now();
    let link = |&addr| Link {
        conn: Mutex::new(Conn { addr, timeout: cfg.rpc_timeout, stream: None, seq: 0 }),
        condemned: AtomicBool::new(false),
    };
    let shared = Shared {
        links: addrs.iter().map(link).collect(),
        cfg: cfg.clone(),
        retries: AtomicU64::new(0),
    };
    let tasks_by_worker = vec![0; n_workers];
    let mut st = CoordState {
        graph,
        input,
        ib,
        shared: &shared,
        layout: Layout::Cyclic2D(cfg.grid),
        completed: vec![false; n_tasks],
        ran: vec![0; n_tasks],
        cursor: vec![0; n_workers],
        rank_owner: (0..n_workers).collect(),
        epoch: 0,
        done_count: 0,
        report: DistReport {
            workers: n_workers,
            tasks_total: n_tasks,
            tasks_by_worker,
            ..DistReport::default()
        },
    };
    // Handshake: every worker gets the whole plan.
    for w in 0..n_workers {
        let dims = [graph.mt(), graph.nt(), graph.b(), ib, cfg.grid.p, cfg.grid.q, w];
        let (addrs, tasks) = (addrs.to_vec(), graph.tasks().to_vec());
        let hello = Msg::Hello { run_id: cfg.run_id, dims: dims.map(|d| d as u64), addrs, tasks };
        shared.ack(w, &hello, "hello ack")?;
    }
    let (result, factors) = st.supervise()?;
    st.report.rpc_retries = shared.retries.load(Ordering::Relaxed);
    st.report.elapsed = start.elapsed();
    Ok((result, factors, st.report))
}

/// Where a gathered slot of `n` doubles goes in the result.
fn home<'r>(
    a: &'r mut TiledMatrix,
    f: &'r mut TFactors,
    (fam, i, j): Slot,
    n: usize,
) -> Result<&'r mut [f64], NetError> {
    let dst: Option<&mut [f64]> = match fam {
        SlotFamily::A if i < a.mt() && j < a.nt() => Some(a.tile_mut(i, j)),
        _ => f.slot_mut(fam, i, j),
    };
    let homeless = || format!("gathered {fam:?}({i},{j}) of {n} floats has no home in the result");
    dst.filter(|dst| dst.len() == n).ok_or_else(|| NetError::Recovery(homeless()))
}

/// Orderly shutdown of a fleet; dead workers are skipped silently.
pub fn shutdown_workers(addrs: &[SocketAddr]) {
    for &addr in addrs {
        let _ = crate::worker::shutdown(addr);
    }
}
