//! Opt-in DES timeline recording and its Chrome-trace export.
//!
//! When [`crate::simulate_traced`] runs the engine with tracing enabled,
//! every dispatched task span, every inter-node tile transfer, and every
//! fault event is recorded into a [`SimTimeline`] — the simulator-side
//! counterpart of the real executor's `ExecTrace`. Both serialize through
//! the same writer ([`hqr_runtime::trace::ChromeTraceBuilder`]) so a
//! simulated Fig-8-style Gantt chart and a measured one open identically
//! in Perfetto.
//!
//! Lane conventions (one Chrome-trace *process* per node):
//!
//! | tid                | lane                                   |
//! |--------------------|----------------------------------------|
//! | `0..C`             | cores                                  |
//! | `C`                | NIC tx (outgoing tile transfers)       |
//! | `C+1`              | NIC rx (incoming tile transfers)       |
//!
//! where `C` is the platform's cores per node. Node crashes
//! appear as instants on the crashed node's first lane; link degradations
//! (which are global) on node 0's NIC tx lane.

use std::collections::BTreeMap;

use hqr_runtime::trace::{kind_cname, ChromeTraceBuilder};
use hqr_runtime::TaskGraph;

/// One executed task occurrence on a simulated core. A task
/// re-executed by crash recovery contributes one span per completed
/// incarnation.
#[derive(Clone, Copy, Debug)]
pub struct SimSpan {
    /// Index into [`TaskGraph::tasks`].
    pub task: u32,
    /// Node it ran on.
    pub node: u16,
    /// Core index within the node.
    pub lane: u16,
    /// Start time (s).
    pub start: f64,
    /// End time (s).
    pub end: f64,
}

/// One inter-node tile transfer (eager send or recovery restage).
#[derive(Clone, Copy, Debug)]
pub struct SimTransfer {
    /// Producing task whose output tile moved.
    pub producer: u32,
    /// Sending node.
    pub src: u16,
    /// Receiving node.
    pub dst: u16,
    /// Time the message left the sender's NIC (s).
    pub depart: f64,
    /// Time the payload was available at the receiver (s).
    pub arrive: f64,
    /// True when this was crash-recovery restaging traffic.
    pub recovery: bool,
}

/// What a simulator instant event marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimInstantKind {
    /// A node crashed (the instant's `node` is the victim).
    NodeCrash,
    /// The interconnect degraded (global; `node` is 0 by convention).
    LinkDegrade,
}

/// A point event on the simulated timeline.
#[derive(Clone, Copy, Debug)]
pub struct SimInstant {
    /// What happened.
    pub kind: SimInstantKind,
    /// Node the event is drawn on.
    pub node: u16,
    /// When it happened (s).
    pub time: f64,
}

/// Complete recorded timeline of one simulated execution.
#[derive(Clone, Debug)]
pub struct SimTimeline {
    /// Task spans, in completion order.
    pub spans: Vec<SimSpan>,
    /// Inter-node transfers, in send order.
    pub transfers: Vec<SimTransfer>,
    /// Crash/degrade instants.
    pub instants: Vec<SimInstant>,
    /// Platform shape, captured so the export knows the lane layout.
    pub nodes: usize,
    /// Cores per node.
    pub cores_per_node: usize,
}

impl SimTimeline {
    /// Serialize to Chrome Trace Format JSON (see the module docs for the
    /// lane conventions). Loadable at <https://ui.perfetto.dev>.
    pub fn to_chrome_trace(&self, graph: &TaskGraph) -> String {
        let tasks = graph.tasks();
        let c = self.cores_per_node;
        let (nic_tx, nic_rx) = (c as u32, c as u32 + 1);
        let mut b = ChromeTraceBuilder::new();
        for node in 0..self.nodes {
            let pid = node as u32;
            b.process_name(pid, &format!("node {node}"));
            for core in 0..c {
                b.thread_name(pid, core as u32, &format!("core {core}"), core as i64);
            }
            b.thread_name(pid, nic_tx, "nic tx", nic_tx as i64);
            b.thread_name(pid, nic_rx, "nic rx", nic_rx as i64);
        }
        for s in &self.spans {
            let t = &tasks[s.task as usize];
            b.span(
                s.node as u32,
                s.lane as u32,
                &t.label(),
                t.kind.name(),
                Some(kind_cname(t.kind)),
                s.start,
                s.end,
                &[("task", s.task.to_string()), ("kernel", t.kind.name().to_string())],
            );
        }
        for x in &self.transfers {
            let name = format!("{} -> node {}", tasks[x.producer as usize].label(), x.dst);
            let cat = if x.recovery { "comm-recovery" } else { "comm" };
            let args = [("producer", x.producer.to_string()), ("dst", format!("node {}", x.dst))];
            b.span(x.src as u32, nic_tx, &name, cat, None, x.depart, x.arrive, &args);
            b.span(x.dst as u32, nic_rx, &name, cat, None, x.depart, x.arrive, &args);
        }
        for i in &self.instants {
            let (name, tid) = match i.kind {
                SimInstantKind::NodeCrash => ("node crash", 0),
                SimInstantKind::LinkDegrade => ("link degrade", nic_tx),
            };
            b.instant(i.node as u32, tid, name, "fault", i.time, &[]);
        }
        b.finish()
    }

    /// Busy core-seconds summed from the recorded spans.
    pub fn busy_seconds(&self) -> f64 {
        self.spans.iter().map(|s| s.end - s.start).sum()
    }
}

/// Engine-side scribe: lane bookkeeping plus the accumulating timeline.
/// Only exists when tracing was requested, so the fault-free fast path
/// pays one `Option` check per event.
pub(crate) struct Recorder {
    pub(crate) timeline: SimTimeline,
    /// Free core lanes per node (stack; lane reuse is arbitrary but
    /// deterministic).
    free_cores: Vec<Vec<u16>>,
    /// Lane the task's current incarnation occupies.
    lane_of: Vec<u16>,
    /// Dispatch time of the task's current incarnation.
    start_of: Vec<f64>,
    /// Absolute data-arrival time per realized cross-node edge
    /// `(producer, consumer)`; local edges carry no entry (zero delay).
    pub(crate) arrival: BTreeMap<(u32, u32), f64>,
}

impl Recorder {
    pub(crate) fn new(n: usize, nodes: usize, cores: usize) -> Recorder {
        Recorder {
            timeline: SimTimeline {
                spans: Vec::new(),
                transfers: Vec::new(),
                instants: Vec::new(),
                nodes,
                cores_per_node: cores,
            },
            free_cores: (0..nodes).map(|_| (0..cores as u16).rev().collect()).collect(),
            lane_of: vec![0; n],
            start_of: vec![0.0; n],
            arrival: BTreeMap::new(),
        }
    }

    /// A task just occupied a core on `node`.
    pub(crate) fn dispatch(&mut self, tid: u32, node: usize, now: f64) {
        self.lane_of[tid as usize] = self.free_cores[node].pop().unwrap_or(0);
        self.start_of[tid as usize] = now;
    }

    /// A task's (non-stale) completion: emit the span, free the lane.
    pub(crate) fn complete(&mut self, tid: u32, node: usize, now: f64) {
        let lane = self.lane_of[tid as usize];
        self.timeline.spans.push(SimSpan {
            task: tid,
            node: node as u16,
            lane,
            start: self.start_of[tid as usize],
            end: now,
        });
        self.free_cores[node].push(lane);
    }

    /// An inter-node transfer of `producer`'s output tile.
    pub(crate) fn transfer(
        &mut self,
        producer: u32,
        src: usize,
        dst: usize,
        depart: f64,
        arrive: f64,
        recovery: bool,
    ) {
        self.timeline.transfers.push(SimTransfer {
            producer,
            src: src as u16,
            dst: dst as u16,
            depart,
            arrive,
            recovery,
        });
    }

    /// Record the realized arrival time of edge `(producer, consumer)`.
    pub(crate) fn edge_arrival(&mut self, producer: u32, consumer: u32, at: f64) {
        self.arrival.insert((producer, consumer), at);
    }

    /// A crash/degrade instant.
    pub(crate) fn instant(&mut self, kind: SimInstantKind, node: usize, time: f64) {
        self.timeline.instants.push(SimInstant { kind, node: node as u16, time });
    }
}
