//! The discrete-event engine: replay a task DAG on a modeled cluster.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use hqr_runtime::exec::Frontier;
use hqr_runtime::trace::{realized_critical_path, RealizedPath};
use hqr_runtime::{
    ExecInstant, ExecTrace, FaultPlan, InstantKind, TaskGraph, TaskRecord, TransferRecord,
};
use hqr_tile::Layout;

use crate::fault::{validate, FaultOverhead, SimError};
use crate::platform::Platform;

/// Result of a simulated execution.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// End-to-end wall-clock time (seconds).
    pub makespan: f64,
    /// Total floating-point operations executed.
    pub total_flops: f64,
    /// Achieved rate in GFlop/s (the paper's y-axis).
    pub gflops: f64,
    /// Fraction of the platform's theoretical peak.
    pub efficiency: f64,
    /// Inter-node messages sent.
    pub messages: usize,
    /// Bytes moved between nodes.
    pub bytes: f64,
    /// Messages per producing-kernel kind, indexed by
    /// [`hqr_runtime::analysis::kind_index`] — shows where the traffic
    /// comes from (e.g. the high-level tree's kills versus update fan-out).
    pub messages_by_kind: [usize; 6],
    /// Per-node core busy time (seconds of core-time actually computing).
    pub node_busy: Vec<f64>,
    /// Realized critical path — the longest weighted chain of task + comm
    /// spans actually scheduled — when the run was traced
    /// ([`SimOptions::trace`]); `None` otherwise.
    pub critical_path: Option<RealizedPath>,
    /// Full recorded timeline when the run was traced, in the executor's
    /// own record (records sorted by start, `wall` the makespan, no
    /// scheduler counters); `None` otherwise.
    pub timeline: Option<ExecTrace>,
    /// Recovery cost when the run was driven by a non-empty fault plan (see
    /// [`simulate_with`]); `None` for fault-free runs.
    pub overhead: Option<FaultOverhead>,
}

impl SimReport {
    /// Average core utilization over the makespan: total busy seconds
    /// divided by `makespan × nodes × cores_per_node`.
    pub fn utilization(&self, platform: &Platform) -> f64 {
        let slot_seconds = self.makespan * (platform.nodes * platform.cores_per_node) as f64;
        if slot_seconds == 0.0 {
            0.0
        } else {
            self.node_busy.iter().sum::<f64>() / slot_seconds
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum EventKind {
    /// All inputs of the task are available on its node. `gen` is the
    /// task's incarnation: a crash bumps it, invalidating queued events.
    Ready { tid: u32, gen: u32 },
    /// The task finished executing.
    Done { tid: u32, gen: u32 },
    /// Node crash (index into the fault plan's crash list).
    NodeCrash(usize),
    /// Link degradation (index into the fault plan's degradation list).
    LinkDegrade(usize),
}

#[derive(Clone, Copy, Debug)]
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest-first.
        other.time.total_cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The scheduling-policy enum shared with the real executor
/// ([`hqr_runtime::sched`]): both backends rank ready tasks with the same
/// static priority keys, so policy comparisons transfer between them.
pub use hqr_runtime::sched::SchedPolicy;

/// What a [`simulate_with`] run does besides replaying the DAG.
#[derive(Clone, Debug)]
pub struct SimOptions {
    /// How each node ranks its ready tasks. Default: panel-first.
    pub policy: SchedPolicy,
    /// Node crashes and link degradations to inject (any other kind is a
    /// [`SimError::Config`]). Default: none.
    pub plan: FaultPlan,
    /// Record the schedule and its realized critical path. Default: off.
    pub trace: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions { policy: SchedPolicy::PanelFirst, plan: FaultPlan::default(), trace: false }
    }
}

/// Simulate the DAG on `platform` with tiles distributed by `layout`
/// (owner-computes: each task runs on the node owning its output tile),
/// using the default panel-first scheduling policy.
///
/// Panics on invalid input; [`simulate_with`] is the fallible form.
///
/// ```
/// use hqr_runtime::{ElimOp, TaskGraph};
/// use hqr_sim::{simulate, Platform};
/// use hqr_tile::Layout;
/// // A 4×1-tile flat-tree panel on one edel node.
/// let elims: Vec<ElimOp> =
///     (1..4).map(|i| ElimOp::new(0, i, 0, true)).collect();
/// let graph = TaskGraph::build(4, 1, 280, &elims);
/// let report = simulate(&graph, &Layout::Single, &Platform::edel());
/// assert!(report.gflops > 0.0);
/// assert_eq!(report.messages, 0, "single node never communicates");
/// ```
pub fn simulate(graph: &TaskGraph, layout: &Layout, platform: &Platform) -> SimReport {
    simulate_with(graph, layout, platform, &SimOptions::default()).unwrap_or_else(|e| panic!("{e}"))
}

/// Simulate under `opts`: its scheduling policy, its fault plan and,
/// when `opts.trace` is set, with the schedule recorded.
///
/// Node crashes abort the node's queued and in-flight tasks and lose every
/// intermediate tile it produced; lineage-based recovery re-executes
/// exactly the lost-but-still-needed producers on the surviving nodes
/// (restaging surviving inputs over the interconnect), and link
/// degradations worsen the LogGP parameters from their trigger time
/// onward. A non-empty plan's report carries a [`FaultOverhead`]: what
/// recovery re-ran and re-sent. Its cost in makespan is a comparison with
/// the fault-free run of the same configuration, which a caller that
/// placed the faults by that run's makespan already holds. The
/// original input tiles are assumed durably re-loadable (e.g. from the
/// parallel file system); only *intermediate* results are lost with a node.
///
/// A traced report carries the full timeline as an [`ExecTrace`] (task
/// records per core lane, inter-node transfers, crash/degrade instants —
/// render it with [`hqr_runtime::chrome_trace_from_exec`]) and the realized
/// critical path extracted from it. A platform with more core lanes than a
/// `u16` can index is a [`SimError::Config`].
///
/// ```
/// use hqr_runtime::{ElimOp, FaultPlan, TaskGraph};
/// use hqr_sim::{simulate_with, Platform, SimOptions};
/// use hqr_tile::Layout;
/// let elims: Vec<ElimOp> = (1..6).map(|i| ElimOp::new(0, i, 0, true)).collect();
/// let graph = TaskGraph::build(6, 1, 120, &elims);
/// let p = Platform { nodes: 3, cores_per_node: 2, ..Platform::edel() };
/// let opts = SimOptions { plan: FaultPlan::default().crash_node(1, 1e-4), ..Default::default() };
/// let r = simulate_with(&graph, &Layout::cyclic_rows(3), &p, &opts).unwrap();
/// let o = r.overhead.unwrap();
/// assert_eq!(o.nodes_lost, 1);
/// assert!(r.makespan > 0.0);
/// ```
pub fn simulate_with(
    graph: &TaskGraph,
    layout: &Layout,
    platform: &Platform,
    opts: &SimOptions,
) -> Result<SimReport, SimError> {
    let SimOptions { policy, ref plan, trace } = *opts;
    validate(plan, platform.nodes)?;
    run_sim(graph, layout, platform, policy, plan, trace)
}

/// Task incarnation states for the fault-aware engine. Anything past
/// BLOCKED — a Ready event queued, queued on a node, running or done —
/// keeps a re-executed predecessor's completion from releasing the task a
/// second time.
const BLOCKED: u8 = 0;
const READY: u8 = 1;
const ENQUEUED: u8 = 2;
const RUNNING: u8 = 3;
const DONE: u8 = 4;

fn run_sim(
    graph: &TaskGraph,
    layout: &Layout,
    platform: &Platform,
    policy: SchedPolicy,
    plan: &FaultPlan,
    trace: bool,
) -> Result<SimReport, SimError> {
    let tasks = graph.tasks();
    let n = tasks.len();
    let nodes = platform.nodes;
    if layout.nodes() > nodes {
        return Err(SimError::Config {
            message: format!(
                "layout addresses {} nodes but platform has {}",
                layout.nodes(),
                nodes
            ),
        });
    }
    let b = graph.b();
    let tile_bytes = Platform::tile_bytes(b);

    let node_of = |tid: usize| -> usize {
        let (i, j) = tasks[tid].affinity_tile();
        layout.owner(i, j)
    };
    // The engine's dependency state and release rule. Without
    // `publish_rest` every released successor is kept, in successor order,
    // so Ready events are queued in that order.
    let (mut frontier, ready) = Frontier::new(graph, policy, false, None);
    let mut avail: Vec<f64> = vec![0.0; n];
    // Fault-engine state: where each task currently lives (crashes re-home
    // tasks onto survivors), its incarnation counter (stale queued events
    // carry an old value), its lifecycle state, and — once done — the node
    // holding its output tile.
    let mut home: Vec<usize> = (0..n).map(node_of).collect();
    let mut gen: Vec<u32> = vec![0; n];
    let mut state: Vec<u8> = vec![BLOCKED; n];
    let mut data_node: Vec<usize> = vec![usize::MAX; n];
    let mut alive: Vec<bool> = vec![true; nodes];
    // Link parameters may degrade mid-run.
    let mut link = platform.link;
    // Reverse adjacency, needed only for crash recovery's lineage walk.
    let preds = if plan.crashes().is_empty() { Vec::new() } else { graph.predecessor_lists() };
    let mut reexecuted = 0usize;
    let mut aborted = 0usize;
    let mut resent_messages = 0usize;
    let mut resent_bytes = 0.0f64;
    let mut nodes_lost = 0usize;
    // One ready heap per node, lowest `(rank, task id)` first.
    let mut queue: Vec<BinaryHeap<Reverse<(u64, u32)>>> =
        (0..nodes).map(|_| BinaryHeap::new()).collect();
    let mut idle: Vec<usize> = vec![platform.cores_per_node; nodes];
    let mut nic_out: Vec<f64> = vec![0.0; nodes];
    let mut nic_in: Vec<f64> = vec![0.0; nodes];
    let mut busy: Vec<f64> = vec![0.0; nodes];
    let cores = platform.cores_per_node;
    let mut rec = if trace { Some(Recorder::new(n, nodes, cores, policy)?) } else { None };

    let mut events: BinaryHeap<Event> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut push = |events: &mut BinaryHeap<Event>, time: f64, kind: EventKind| {
        events.push(Event { time, seq, kind });
        seq += 1;
    };

    for tid in ready {
        state[tid as usize] = READY;
        push(&mut events, 0.0, EventKind::Ready { tid, gen: 0 });
    }
    for (ci, c) in plan.crashes().iter().enumerate() {
        push(&mut events, c.at, EventKind::NodeCrash(ci));
    }
    for (di, d) in plan.degrades().iter().enumerate() {
        push(&mut events, d.at, EventKind::LinkDegrade(di));
    }

    let mut makespan = 0.0f64;
    let mut messages = 0usize;
    let mut bytes = 0.0f64;
    let mut messages_by_kind = [0usize; 6];
    // Scratch for per-completion message deduplication (dest, arrival).
    let mut dests: Vec<(usize, f64)> = Vec::with_capacity(8);

    // Hand queued work to the node's idle cores, best priority first.
    macro_rules! dispatch {
        ($node:expr, $now:expr) => {{
            let node = $node;
            while idle[node] > 0 {
                let Some(Reverse((_, next))) = queue[node].pop() else { break };
                idle[node] -= 1;
                state[next as usize] = RUNNING;
                let dur = platform.kernel_seconds(tasks[next as usize].kind, b);
                busy[node] += dur;
                if let Some(rec) = rec.as_mut() {
                    rec.dispatch(next, node, $now);
                }
                push(
                    &mut events,
                    $now + dur,
                    EventKind::Done { tid: next, gen: gen[next as usize] },
                );
            }
        }};
    }

    // Send `producer`'s output tile from `src` to `dst` at `now`, eagerly,
    // with NIC serialization at both ends (the software overhead occupies
    // both NICs); the arrival time.
    macro_rules! send {
        ($producer:expr, $src:expr, $dst:expr, $now:expr, $recovery:expr) => {{
            let (producer, src, dst) = ($producer, $src, $dst);
            let occupancy = link.overhead + tile_bytes / link.bandwidth;
            let depart = $now.max(nic_out[src]);
            nic_out[src] = depart + occupancy;
            let arrive = (depart + link.latency).max(nic_in[dst]) + occupancy;
            nic_in[dst] = arrive;
            messages += 1;
            messages_by_kind[hqr_runtime::analysis::kind_index(tasks[producer as usize].kind)] += 1;
            bytes += tile_bytes;
            if let Some(rec) = rec.as_mut() {
                let (src, dst, recovery) = (src as u16, dst as u16, $recovery);
                let record = TransferRecord { producer, src, dst, depart, arrive, recovery };
                rec.trace.transfers.push(record);
            }
            arrive
        }};
    }

    while let Some(ev) = events.pop() {
        let now = ev.time;
        match ev.kind {
            EventKind::Ready { tid, gen: g } => {
                // A crash since this event was queued invalidated it; the
                // recovery path re-enqueued the task under a newer gen.
                if g != gen[tid as usize] {
                    continue;
                }
                let node = home[tid as usize];
                state[tid as usize] = ENQUEUED;
                queue[node].push(Reverse((frontier.ranks[tid as usize], tid)));
                dispatch!(node, now);
            }
            EventKind::Done { tid, gen: g } => {
                // Stale completions belong to a crashed node: the core is
                // gone, the output is lost — drop the event entirely.
                if g != gen[tid as usize] {
                    continue;
                }
                makespan = makespan.max(now);
                let src = home[tid as usize];
                state[tid as usize] = DONE;
                data_node[tid as usize] = src;
                idle[src] += 1;
                if let Some(rec) = rec.as_mut() {
                    rec.complete(tid, src, now);
                }
                dests.clear();
                for &s in graph.successors(tid as usize) {
                    let s = s as usize;
                    // A re-executed producer only feeds successors still
                    // waiting; ones that already ran (or are queued/running
                    // off their surviving local copy) get nothing.
                    if state[s] != BLOCKED {
                        continue;
                    }
                    let dst = home[s];
                    let t_avail = if dst == src {
                        now
                    } else if let Some(&(_, arr)) = dests.iter().find(|&&(d, _)| d == dst) {
                        arr
                    } else {
                        let arrive = send!(tid, src, dst, now, false);
                        dests.push((dst, arrive));
                        arrive
                    };
                    if t_avail > now {
                        if let Some(rec) = rec.as_mut() {
                            rec.arrival.insert((tid, s as u32), t_avail);
                        }
                    }
                    avail[s] = avail[s].max(t_avail);
                }
                let release = |s: u32| {
                    let s = s as usize;
                    if state[s] == BLOCKED {
                        state[s] = READY;
                        push(
                            &mut events,
                            avail[s],
                            EventKind::Ready { tid: s as u32, gen: gen[s] },
                        );
                    }
                };
                frontier.complete(graph, tid, release, |_| unreachable!("every release is kept"));
                // The freed core may pick up queued work.
                dispatch!(src, now);
            }
            EventKind::LinkDegrade(di) => {
                let d = plan.degrades()[di];
                link.bandwidth *= d.bandwidth_factor;
                link.latency *= d.latency_factor;
                if let Some(rec) = rec.as_mut() {
                    rec.instant(InstantKind::LinkDegrade, 0, now);
                }
            }
            EventKind::NodeCrash(ci) => {
                let x = plan.crashes()[ci].node;
                if !alive[x] {
                    continue;
                }
                alive[x] = false;
                nodes_lost += 1;
                if let Some(rec) = rec.as_mut() {
                    rec.instant(InstantKind::NodeCrash, x, now);
                }
                let survivors: Vec<usize> = (0..nodes).filter(|&m| alive[m]).collect();
                debug_assert!(!survivors.is_empty(), "plan validation keeps a survivor");
                queue[x].clear();
                idle[x] = 0;
                // Every unfinished task living on the node aborts and is
                // deterministically re-homed onto a survivor; `restage`
                // marks tasks whose inputs must be (re)staged to a new home.
                let mut restage = vec![false; n];
                for t in 0..n {
                    if state[t] != DONE && home[t] == x {
                        if state[t] == RUNNING {
                            aborted += 1;
                        }
                        gen[t] = gen[t].wrapping_add(1);
                        state[t] = BLOCKED;
                        home[t] = survivors[t % survivors.len()];
                        restage[t] = true;
                    }
                }
                // Lineage closure. Delivery is eager: consumers already hold
                // local copies of every input delivered to their node, so a
                // lost output is only re-produced when a *re-homed* task
                // (whose new node holds nothing) transitively needs it.
                // Completed tasks whose output tile sat on a dead node
                // rejoin the unfinished set and are re-homed themselves.
                let mut work: Vec<usize> = (0..n).filter(|&t| restage[t]).collect();
                while let Some(t) = work.pop() {
                    for &p in &preds[t] {
                        let p = p as usize;
                        if state[p] == DONE && !alive[data_node[p]] {
                            state[p] = BLOCKED;
                            gen[p] = gen[p].wrapping_add(1);
                            reexecuted += 1;
                            if !alive[home[p]] {
                                home[p] = survivors[p % survivors.len()];
                            }
                            restage[p] = true;
                            work.push(p);
                        }
                    }
                }
                // A fresh frontier over the unfinished subgraph: tasks
                // already queued or running proceed off their local copies,
                // so only BLOCKED tasks wait on the recovery re-executions.
                let done: Vec<bool> = state.iter().map(|&st| st == DONE).collect();
                let ready;
                (frontier, ready) = Frontier::new(graph, policy, false, Some(&done));
                // Restage surviving inputs onto the new homes (counted as
                // recovery traffic), then re-release the re-homed tasks with
                // no unfinished predecessor. One transfer per (producer,
                // destination).
                let mut sent: BTreeMap<(u32, usize), f64> = BTreeMap::new();
                for t in (0..n).filter(|&t| restage[t]) {
                    let dst = home[t];
                    let mut at = now;
                    for &p in &preds[t] {
                        let p = p as usize;
                        if state[p] != DONE {
                            continue;
                        }
                        let h = data_node[p];
                        if h == dst {
                            continue;
                        }
                        let arrive = match sent.get(&(p as u32, dst)) {
                            Some(&a) => a,
                            None => {
                                resent_messages += 1;
                                resent_bytes += tile_bytes;
                                let arrive = send!(p as u32, h, dst, now, true);
                                sent.insert((p as u32, dst), arrive);
                                arrive
                            }
                        };
                        if let Some(rec) = rec.as_mut() {
                            rec.arrival.insert((p as u32, t as u32), arrive);
                        }
                        at = at.max(arrive);
                    }
                    avail[t] = at;
                }
                for t in ready.into_iter().filter(|&t| restage[t as usize]) {
                    state[t as usize] = READY;
                    push(
                        &mut events,
                        avail[t as usize],
                        EventKind::Ready { tid: t, gen: gen[t as usize] },
                    );
                }
            }
        }
    }
    let remaining = frontier.remaining.into_inner();
    if remaining != 0 {
        return Err(SimError::Deadlock { completed: n - remaining, total: n });
    }

    // Realized critical path over the *final* incarnation of every task:
    // later records overwrite earlier ones (crash re-executions), and the
    // comm weight of an edge is its recorded arrival delay past the
    // producer's completion.
    let (timeline, critical_path) = match rec {
        Some(rec) => {
            let Recorder { trace: mut timeline, arrival, .. } = rec;
            // Incarnations of one task never overlap, so a stable sort by
            // start keeps each task's records in completion order.
            timeline.records.sort_by(|a, b| a.start.total_cmp(&b.start));
            timeline.wall = makespan;
            let mut final_span: Vec<Option<(f64, f64)>> = vec![None; n];
            for r in &timeline.records {
                final_span[r.task as usize] = Some((r.start, r.end));
            }
            let cp = realized_critical_path(
                graph,
                |t| final_span[t as usize],
                |p, s| {
                    let end_p = final_span[p as usize].map_or(0.0, |(_, e)| e);
                    arrival.get(&(p, s)).map_or(0.0, |&a| (a - end_p).max(0.0))
                },
            );
            (Some(timeline), Some(cp))
        }
        None => (None, None),
    };

    let total_flops = graph.total_flops();
    let gflops = if makespan > 0.0 { total_flops / makespan / 1e9 } else { 0.0 };
    let overhead = if plan.is_empty() {
        None
    } else {
        Some(FaultOverhead {
            reexecuted_tasks: reexecuted,
            aborted_tasks: aborted,
            resent_messages,
            resent_bytes,
            nodes_lost,
        })
    };
    Ok(SimReport {
        makespan,
        total_flops,
        gflops,
        efficiency: gflops / platform.peak_gflops(),
        messages,
        bytes,
        messages_by_kind,
        node_busy: busy,
        critical_path,
        timeline,
        overhead,
    })
}

/// Engine-side scribe of a traced [`simulate_with`]: lane bookkeeping plus the
/// accumulating trace, in the real executor's own record, so
/// [`hqr_runtime::chrome_trace_from_exec`] renders a simulated schedule
/// and a measured one alike. Lanes are numbered node-major:
/// `lane = node * cores_per_node + core`. Only exists when tracing was
/// requested, so the fault-free fast path pays one `Option` check per
/// event.
struct Recorder {
    trace: ExecTrace,
    /// Cores per node.
    cores: usize,
    /// Free lanes per node (stack; lane reuse is arbitrary but
    /// deterministic).
    free_lanes: Vec<Vec<u16>>,
    /// Lane the task's current incarnation occupies.
    lane_of: Vec<u16>,
    /// Dispatch time of the task's current incarnation.
    start_of: Vec<f64>,
    /// Absolute data-arrival time per realized cross-node edge
    /// `(producer, consumer)`; local edges carry no entry (zero delay).
    arrival: BTreeMap<(u32, u32), f64>,
}

impl Recorder {
    /// A recorder for `n` tasks on `nodes` nodes of `cores` cores each;
    /// a platform with more lanes than a `u16` lane index can name is a
    /// configuration error.
    fn new(n: usize, nodes: usize, cores: usize, policy: SchedPolicy) -> Result<Self, SimError> {
        // Node indices must fit a `u16` too, even on a zero-core platform.
        let lanes = nodes * cores.max(1);
        if lanes > u16::MAX as usize + 1 {
            return Err(SimError::Config {
                message: format!("a traced run names at most 65536 core lanes, not {lanes}"),
            });
        }
        let lane = |node: usize, core: usize| (node * cores + core) as u16;
        Ok(Recorder {
            trace: ExecTrace {
                nthreads: nodes * cores,
                nodes,
                transfers: Vec::new(),
                policy,
                records: Vec::new(),
                instants: Vec::new(),
                counters: Vec::new(),
                wall: 0.0,
                spill: None,
            },
            cores,
            free_lanes: (0..nodes)
                .map(|x| (0..cores).rev().map(|c| lane(x, c)).collect())
                .collect(),
            lane_of: vec![0; n],
            start_of: vec![0.0; n],
            arrival: BTreeMap::new(),
        })
    }

    /// A task just occupied a core on `node`.
    fn dispatch(&mut self, tid: u32, node: usize, now: f64) {
        let first = (node * self.cores) as u16;
        self.lane_of[tid as usize] = self.free_lanes[node].pop().unwrap_or(first);
        self.start_of[tid as usize] = now;
    }

    /// A task's (non-stale) completion: emit the record, free the lane.
    fn complete(&mut self, tid: u32, node: usize, now: f64) {
        let (worker, start) = (self.lane_of[tid as usize], self.start_of[tid as usize]);
        let record = TaskRecord { task: tid, worker, start, kernel_start: start, end: now };
        self.trace.records.push(record);
        self.free_lanes[node].push(worker);
    }

    /// A crash/degrade instant, drawn on `node`'s first lane.
    fn instant(&mut self, kind: InstantKind, node: usize, time: f64) {
        let worker = (node * self.cores) as u16;
        self.trace.instants.push(ExecInstant { kind, task: None, worker, time });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::LinkModel;
    use hqr_runtime::ElimOp;
    use hqr_tile::{Layout, ProcessGrid};

    fn flat_elims(mt: usize, nt: usize) -> Vec<ElimOp> {
        let mut v = Vec::new();
        for k in 0..mt.min(nt) {
            for i in (k + 1)..mt {
                v.push(ElimOp::new(k as u32, i as u32, k as u32, true));
            }
        }
        v
    }

    fn binary_elims(mt: usize, nt: usize) -> Vec<ElimOp> {
        let mut v = Vec::new();
        for k in 0..mt.min(nt) {
            let rows: Vec<u32> = (k as u32..mt as u32).collect();
            let mut stride = 1;
            while stride < rows.len() {
                let mut idx = 0;
                while idx + stride < rows.len() {
                    v.push(ElimOp::new(k as u32, rows[idx + stride], rows[idx], false));
                    idx += 2 * stride;
                }
                stride *= 2;
            }
        }
        v
    }

    fn single_core_platform() -> Platform {
        Platform { nodes: 1, cores_per_node: 1, ..Platform::edel() }
    }

    #[test]
    fn one_core_makespan_is_total_work() {
        let g = TaskGraph::build(4, 2, 40, &flat_elims(4, 2));
        let p = single_core_platform();
        let r = simulate(&g, &Layout::Single, &p);
        let expect: f64 = g.tasks().iter().map(|t| p.kernel_seconds(t.kind, 40)).sum();
        assert!((r.makespan - expect).abs() < 1e-12 * expect);
        assert_eq!(r.messages, 0);
    }

    #[test]
    fn more_cores_never_hurt_here() {
        let g = TaskGraph::build(8, 4, 40, &binary_elims(8, 4));
        let p1 = Platform { nodes: 1, cores_per_node: 1, ..Platform::edel() };
        let p4 = Platform { nodes: 1, cores_per_node: 4, ..Platform::edel() };
        let r1 = simulate(&g, &Layout::Single, &p1);
        let r4 = simulate(&g, &Layout::Single, &p4);
        assert!(r4.makespan <= r1.makespan + 1e-12);
        assert!(r4.makespan >= r1.makespan / 4.0 - 1e-12, "cannot beat linear speedup");
    }

    #[test]
    fn makespan_at_least_critical_path() {
        let g = TaskGraph::build(6, 3, 40, &flat_elims(6, 3));
        let p = Platform { nodes: 1, cores_per_node: 64, ..Platform::edel() };
        let r = simulate(&g, &Layout::Single, &p);
        // Any single task is a lower bound on the critical path.
        let min_task = p.kernel_seconds(hqr_kernels::KernelKind::Geqrt, 40);
        assert!(r.makespan >= min_task);
        // And the sum/cores bound.
        let total: f64 = g.tasks().iter().map(|t| p.kernel_seconds(t.kind, 40)).sum();
        assert!(r.makespan >= total / 64.0 - 1e-12);
    }

    #[test]
    fn block_flat_beats_cyclic_flat_on_single_panel() {
        // §III-A: with a flat tree in natural order, the block layout needs
        // p−1 pivot hops while the cyclic layout communicates every kill.
        let mt = 24;
        let g = TaskGraph::build(mt, 1, 40, &flat_elims(mt, 1));
        let p = Platform { nodes: 3, cores_per_node: 1, ..Platform::edel() };
        let r_block = simulate(&g, &Layout::block_rows(3, mt), &p);
        let r_cyclic = simulate(&g, &Layout::cyclic_rows(3), &p);
        assert!(r_block.messages < r_cyclic.messages);
        assert!(r_block.makespan < r_cyclic.makespan);
    }

    #[test]
    fn messages_counted_once_per_producer_dest_pair() {
        // GEQRT(0,0)'s V goes to every UNMQR(0,0,j); with all trailing tiles
        // on one remote node that is a single transfer.
        let g = TaskGraph::build(1, 5, 40, &[]);
        // 1×5 tiles: GEQRT + 4 UNMQRs. Put column 0 on node 0, rest on node 1.
        let layout = Layout::Cyclic2D(ProcessGrid::new(1, 2));
        let p = Platform { nodes: 2, cores_per_node: 1, ..Platform::edel() };
        let r = simulate(&g, &layout, &p);
        // UNMQR j=2,4 are on node 0 (j mod 2 == 0), j=1,3 on node 1:
        // exactly one message (GEQRT -> node 1).
        assert_eq!(r.messages, 1);
    }

    #[test]
    fn zero_cost_network_matches_shared_memory() {
        let g = TaskGraph::build(6, 2, 40, &flat_elims(6, 2));
        let fast_link = LinkModel { latency: 0.0, bandwidth: f64::INFINITY, overhead: 0.0 };
        let p2 = Platform { nodes: 2, cores_per_node: 1, link: fast_link, ..Platform::edel() };
        let p_shared = Platform { nodes: 1, cores_per_node: 2, ..Platform::edel() };
        let r2 = simulate(&g, &Layout::cyclic_rows(2), &p2);
        let rs = simulate(&g, &Layout::Single, &p_shared);
        // With a free network the 2×1 distributed run differs from the 1×2
        // shared-memory run only by placement: each task must run on the
        // node owning its tile. That restriction must never let the
        // distributed run finish before the shared-memory one.
        assert!(r2.makespan >= rs.makespan - 1e-12);
    }

    #[test]
    fn utilization_and_busy_are_consistent() {
        let g = TaskGraph::build(6, 6, 40, &flat_elims(6, 6));
        let p = Platform { nodes: 1, cores_per_node: 2, ..Platform::edel() };
        let r = simulate(&g, &Layout::Single, &p);
        let util = r.utilization(&p);
        assert!(util > 0.0 && util <= 1.0 + 1e-12, "utilization {util}");
        let total: f64 = g.tasks().iter().map(|t| p.kernel_seconds(t.kind, 40)).sum();
        assert!((r.node_busy.iter().sum::<f64>() - total).abs() < 1e-9);
    }

    #[test]
    fn gflops_matches_flops_over_makespan() {
        let g = TaskGraph::build(5, 5, 40, &flat_elims(5, 5));
        let p = single_core_platform();
        let r = simulate(&g, &Layout::Single, &p);
        assert!((r.gflops - r.total_flops / r.makespan / 1e9).abs() < 1e-9);
        // One core running TS kernels cannot exceed the TS rate nor fall
        // below the slowest kernel rate.
        assert!(r.gflops <= p.rates.ts_gflops + 1e-9);
        assert!(r.gflops >= p.rates.rate(hqr_kernels::KernelKind::Geqrt) - 1e-9);
    }

    #[test]
    fn binary_tree_scales_better_on_many_cores_tall_matrix() {
        let mt = 32;
        let g_flat = TaskGraph::build(mt, 1, 40, &flat_elims(mt, 1));
        let g_bin = TaskGraph::build(mt, 1, 40, &binary_elims(mt, 1));
        let p = Platform { nodes: 1, cores_per_node: 16, ..Platform::edel() };
        let r_flat = simulate(&g_flat, &Layout::Single, &p);
        let r_bin = simulate(&g_bin, &Layout::Single, &p);
        assert!(
            r_bin.makespan < r_flat.makespan,
            "binary {} should beat flat {} on a tall panel with many cores",
            r_bin.makespan,
            r_flat.makespan
        );
    }

    #[test]
    fn all_policies_complete_and_are_sane() {
        let g = TaskGraph::build(10, 4, 40, &binary_elims(10, 4));
        let p = Platform { nodes: 2, cores_per_node: 4, ..Platform::edel() };
        let lay = Layout::cyclic_rows(2);
        let total: f64 = g.tasks().iter().map(|t| p.kernel_seconds(t.kind, 40)).sum();
        for policy in [SchedPolicy::PanelFirst, SchedPolicy::Fifo, SchedPolicy::CriticalPath] {
            let r =
                simulate_with(&g, &lay, &p, &SimOptions { policy, ..Default::default() }).unwrap();
            assert!(r.makespan >= total / 8.0 - 1e-12, "{policy:?} beats the work bound");
            assert!(r.makespan <= total + 1.0, "{policy:?} slower than fully serial");
        }
    }

    #[test]
    fn critical_path_priority_helps_or_matches_on_deep_dags() {
        // A tall flat-tree DAG has one long chain: critical-path scheduling
        // must not lose to FIFO.
        let g = TaskGraph::build(24, 2, 40, &flat_elims(24, 2));
        let p = Platform { nodes: 1, cores_per_node: 4, ..Platform::edel() };
        let run = |policy| {
            let opts = SimOptions { policy, ..Default::default() };
            simulate_with(&g, &Layout::Single, &p, &opts).unwrap()
        };
        let (cp, ff) = (run(SchedPolicy::CriticalPath), run(SchedPolicy::Fifo));
        assert!(cp.makespan <= ff.makespan + 1e-9, "cp {} vs fifo {}", cp.makespan, ff.makespan);
    }

    #[test]
    fn message_kind_attribution_sums_to_total() {
        let g = TaskGraph::build(12, 4, 40, &binary_elims(12, 4));
        let p = Platform { nodes: 3, cores_per_node: 2, ..Platform::edel() };
        let r = simulate(&g, &Layout::cyclic_rows(3), &p);
        assert_eq!(r.messages_by_kind.iter().sum::<usize>(), r.messages);
        assert!(r.messages > 0);
    }

    #[test]
    #[should_panic(expected = "layout addresses")]
    fn layout_bigger_than_platform_rejected() {
        let g = TaskGraph::build(2, 2, 4, &flat_elims(2, 2));
        let p = single_core_platform();
        let _ = simulate(&g, &Layout::cyclic_rows(4), &p);
    }
}
