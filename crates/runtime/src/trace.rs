//! Execution-timeline export in Chrome Trace Format (Perfetto-loadable)
//! plus realized-critical-path extraction.
//!
//! Both execution backends — the real work-stealing executor
//! ([`crate::exec::try_execute_traced`]) and the `hqr-sim` discrete-event
//! simulator — record timelines of *what actually ran where and when*. This
//! module is the shared serialization layer: a [`ChromeTraceBuilder`] that
//! emits the JSON object form of the Trace Event Format (`ph: "X"` complete
//! spans, `ph: "i"` instants, `ph: "C"` counters, `ph: "M"` metadata), a
//! structural validator for tests and CI, and a [`realized_critical_path`]
//! extractor that walks the DAG over the *recorded* spans to find the
//! longest weighted chain of task + communication time actually scheduled —
//! the measured counterpart of the analytic critical-path bounds of
//! Bouwmeester et al. (arXiv:1104.4475).
//!
//! Both fill one record, [`ExecTrace`], and [`chrome_trace_from_exec`] is
//! the one renderer. Open the emitted `.trace.json` at
//! <https://ui.perfetto.dev> (or `chrome://tracing`): one process per node,
//! one lane per core and NIC, spans colored by kernel kind.

use crate::exec::ExecTrace;
use crate::graph::TaskGraph;
use crate::task::Task;
use hqr_kernels::KernelKind;

/// Chrome's reserved color name (`cname`) for a kernel kind, so the two
/// kernel families are visually separable in a timeline: factor kernels in
/// the saturated colors, updates in the muted ones.
fn kind_cname(kind: KernelKind) -> &'static str {
    match kind {
        KernelKind::Geqrt => "good",     // green
        KernelKind::Unmqr => "olive",    // muted green
        KernelKind::Tsqrt => "bad",      // orange-red
        KernelKind::Tsmqr => "yellow",   // muted orange
        KernelKind::Ttqrt => "terrible", // red
        KernelKind::Ttmqr => "grey",     // muted
    }
}

/// Escape a string for inclusion inside a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render seconds as integer microseconds (the `ts`/`dur` unit of the
/// Trace Event Format). Sub-microsecond spans are kept visible by rounding
/// durations *up* to 1 µs — a lie of at most 1 µs that beats invisible
/// zero-width spans in the viewer.
fn micros(seconds: f64) -> i64 {
    (seconds * 1e6).round() as i64
}

/// Incremental builder for a Chrome Trace Format JSON document.
///
/// Events are appended pre-rendered; [`ChromeTraceBuilder::finish`] wraps
/// them in the `{"traceEvents": [...]}` object form, which both Perfetto
/// and `chrome://tracing` accept.
#[derive(Debug, Default)]
pub struct ChromeTraceBuilder {
    events: Vec<String>,
}

impl ChromeTraceBuilder {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Name process `pid` (a metadata event; Perfetto shows it as the
    /// group header).
    pub fn process_name(&mut self, pid: u32, name: &str) {
        self.events.push(format!(
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\"ts\":0,\"args\":{{\"name\":\"{}\"}}}}",
            json_escape(name)
        ));
    }

    /// Name lane `tid` of process `pid` and fix its display order.
    pub fn thread_name(&mut self, pid: u32, tid: u32, name: &str, sort_index: i64) {
        self.events.push(format!(
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{pid},\"tid\":{tid},\"ts\":0,\"args\":{{\"name\":\"{}\"}}}}",
            json_escape(name)
        ));
        self.events.push(format!(
            "{{\"ph\":\"M\",\"name\":\"thread_sort_index\",\"pid\":{pid},\"tid\":{tid},\"ts\":0,\"args\":{{\"sort_index\":{sort_index}}}}}"
        ));
    }

    /// A complete span (`ph: "X"`) on lane `(pid, tid)`. `args` are
    /// attached as string key/values shown in the viewer's detail pane.
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &mut self,
        pid: u32,
        tid: u32,
        name: &str,
        cat: &str,
        cname: Option<&str>,
        start_s: f64,
        end_s: f64,
        args: &[(&str, String)],
    ) {
        let ts = micros(start_s);
        let dur = (micros(end_s) - ts).max(1);
        let mut ev = format!(
            "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"dur\":{dur}",
            json_escape(name),
            json_escape(cat)
        );
        if let Some(c) = cname {
            ev.push_str(&format!(",\"cname\":\"{}\"", json_escape(c)));
        }
        ev.push_str(&render_args(args));
        ev.push('}');
        self.events.push(ev);
    }

    /// An instant event (`ph: "i"`, thread scope) on lane `(pid, tid)`.
    pub fn instant(
        &mut self,
        pid: u32,
        tid: u32,
        name: &str,
        cat: &str,
        at_s: f64,
        args: &[(&str, String)],
    ) {
        let mut ev = format!(
            "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{}",
            json_escape(name),
            json_escape(cat),
            micros(at_s)
        );
        ev.push_str(&render_args(args));
        ev.push('}');
        self.events.push(ev);
    }

    /// A counter sample (`ph: "C"`): one stacked series per `(name, value)`
    /// pair, sampled at `at_s`.
    pub fn counter(&mut self, pid: u32, name: &str, at_s: f64, series: &[(&str, f64)]) {
        let body: Vec<String> = series
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", json_escape(k), render_number(*v)))
            .collect();
        self.events.push(format!(
            "{{\"ph\":\"C\",\"name\":\"{}\",\"pid\":{pid},\"tid\":0,\"ts\":{},\"args\":{{{}}}}}",
            json_escape(name),
            micros(at_s),
            body.join(",")
        ));
    }

    /// Serialize to the JSON object form of the Trace Event Format.
    pub fn finish(self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(&self.events.join(",\n"));
        out.push_str("\n]}\n");
        out
    }
}

fn render_args(args: &[(&str, String)]) -> String {
    if args.is_empty() {
        return String::new();
    }
    let body: Vec<String> = args
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)))
        .collect();
    format!(",\"args\":{{{}}}", body.join(","))
}

fn render_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Serialize an [`ExecTrace`], real or simulated, to Chrome Trace Format.
///
/// One process per node (`node n (<policy> policy)`), one `core c` lane per
/// core of the node, and — only when the trace has transfers — a `nic tx`
/// and a `nic rx` lane per node carrying each message on both ends
/// (category `comm`, or `comm-recovery` for restaging traffic). Task spans
/// are colored by kernel kind; on paged runs each is preceded by a
/// `spill`-category "pin" slice for the time the task waited on the
/// storage tier. Fault, SDC, spill, crash and degrade instants sit on their
/// lane, and lanes with scheduler counters get counter tracks sampled at
/// start and end. Real and simulated traces of the same lane count
/// therefore line up lane for lane.
pub fn chrome_trace_from_exec(trace: &ExecTrace, tasks: &[Task]) -> String {
    use crate::exec::InstantKind as K;
    let nodes = trace.nodes.max(1);
    let cores = (trace.nthreads / nodes).max(1);
    let lane = |w: u16| ((w as usize / cores) as u32, (w as usize % cores) as u32);
    let (nic_tx, nic_rx) = (cores as u32, cores as u32 + 1);
    let mut b = ChromeTraceBuilder::new();
    for node in 0..nodes as u32 {
        b.process_name(node, &format!("node {node} ({} policy)", trace.policy));
        for c in 0..cores as u32 {
            b.thread_name(node, c, &format!("core {c}"), c as i64);
        }
        if !trace.transfers.is_empty() {
            b.thread_name(node, nic_tx, "nic tx", nic_tx as i64);
            b.thread_name(node, nic_rx, "nic rx", nic_rx as i64);
        }
    }
    for r in &trace.records {
        let t = &tasks[r.task as usize];
        let (pid, tid) = lane(r.worker);
        let args = [("task", r.task.to_string()), ("kernel", t.kind.name().to_string())];
        if r.kernel_start > r.start {
            // Paged runs: the wait on the storage tier (pin pass) is its
            // own slice, so the kernel slice shows compute only.
            let label = format!("pin {}", t.label());
            b.span(pid, tid, &label, "spill", None, r.start, r.kernel_start, &args);
        }
        let cname = Some(kind_cname(t.kind));
        b.span(pid, tid, &t.label(), t.kind.name(), cname, r.kernel_start, r.end, &args);
    }
    for x in &trace.transfers {
        let name = format!("{} -> node {}", tasks[x.producer as usize].label(), x.dst);
        let cat = if x.recovery { "comm-recovery" } else { "comm" };
        let args = [("producer", x.producer.to_string()), ("dst", format!("node {}", x.dst))];
        b.span(x.src as u32, nic_tx, &name, cat, None, x.depart, x.arrive, &args);
        b.span(x.dst as u32, nic_rx, &name, cat, None, x.depart, x.arrive, &args);
    }
    for i in &trace.instants {
        let (name, category) = match i.kind {
            K::PanicCaught => ("panic caught", "fault"),
            K::Retry => ("retry after rollback", "fault"),
            K::Requeue => ("requeued (poisoned worker)", "fault"),
            K::SdcDetected => ("sdc detected", "sdc"),
            K::SdcRecomputed => ("sdc recomputed", "sdc"),
            K::TileFaulted => ("tile faulted", "spill"),
            K::TileSpilled => ("tile spilled", "spill"),
            K::NodeCrash => ("node crash", "fault"),
            K::LinkDegrade => ("link degrade", "fault"),
        };
        let (pid, tid) = lane(i.worker);
        let args: Vec<_> = i.task.map(|t| ("task", t.to_string())).into_iter().collect();
        b.instant(pid, tid, name, category, i.time, &args);
    }
    for (w, c) in trace.counters.iter().enumerate() {
        let (pid, core) = lane(w as u16);
        // Each track is sampled at zero and at the end of the run.
        let mut track = |name: &str, series: [(&str, f64); 3]| {
            let name = format!("core {core} {name}");
            b.counter(pid, &name, 0.0, &series.map(|(k, _)| (k, 0.0)));
            b.counter(pid, &name, trace.wall, &series);
        };
        let (steals, pops, retries) = (c.steals as f64, c.injector_pops as f64, c.retries as f64);
        track("scheduler", [("steals", steals), ("injector pops", pops), ("retries", retries)]);
        if trace.spill.is_some() {
            // Spill traffic gets its own per-core counter track so the
            // paged store's demand faults / prefetch hits / evictions are
            // visible next to the scheduler series.
            let (f, h, s) = (c.tile_faults as f64, c.prefetch_hits as f64, c.tile_spills as f64);
            track("spill", [("tile faults", f), ("prefetch hits", h), ("tile spills", s)]);
        }
    }
    b.finish()
}

/// One step of a realized critical path: a task span plus the
/// communication (or release) delay that preceded it on the chain.
#[derive(Clone, Copy, Debug)]
pub struct PathStep {
    /// Index into [`TaskGraph::tasks`].
    pub task: u32,
    /// Kernel executed.
    pub kind: KernelKind,
    /// Realized start time (s).
    pub start: f64,
    /// Realized end time (s).
    pub end: f64,
    /// Communication seconds between the previous chain task's completion
    /// and this task's data availability (0 within a node / worker).
    pub comm: f64,
}

/// The longest weighted chain of task + communication spans actually
/// scheduled in a recorded execution — the *realized* critical path, as
/// opposed to the analytic DAG critical path of
/// [`crate::analysis::dag_stats`]. Its length is at least the longest
/// single task span and never exceeds the makespan.
#[derive(Clone, Debug, Default)]
pub struct RealizedPath {
    /// Total chain weight: task seconds plus comm seconds.
    pub length: f64,
    /// Task-execution seconds on the chain.
    pub task_seconds: f64,
    /// Communication seconds on the chain.
    pub comm_seconds: f64,
    /// Chain steps, entry task first.
    pub steps: Vec<PathStep>,
}

impl RealizedPath {
    /// The `n` longest task steps on the chain, by span duration.
    pub fn top_tasks(&self, n: usize) -> Vec<PathStep> {
        let mut v = self.steps.clone();
        v.sort_by(|a, b| (b.end - b.start).total_cmp(&(a.end - a.start)));
        v.truncate(n);
        v
    }
}

/// Extract the realized critical path from recorded spans.
///
/// * `span(t)` returns the final recorded `(start, end)` of task `t`, or
///   `None` if the task never completed (it is then skipped).
/// * `comm(p, s)` returns the communication seconds charged on edge
///   `p -> s` (time from `p`'s completion to the data's availability at
///   `s`'s execution site; 0 for same-site edges).
///
/// One forward sweep in program order (which is topological):
/// `path(t) = dur(t) + max over preds p of (path(p) + comm(p, t))`.
/// Each `path(t)` is clamped to `end(t)` — data availability precedes the
/// realized start, so the clamp only binds when a fault re-executed a
/// producer *after* its consumer ran off a surviving copy — which keeps
/// the chain weight within the makespan by construction.
pub fn realized_critical_path(
    graph: &TaskGraph,
    span: impl Fn(u32) -> Option<(f64, f64)>,
    comm: impl Fn(u32, u32) -> f64,
) -> RealizedPath {
    let n = graph.tasks().len();
    // Best incoming chain weight and its predecessor, per task.
    let mut best_in = vec![0.0f64; n];
    let mut best_pred: Vec<Option<u32>> = vec![None; n];
    let mut path = vec![0.0f64; n];
    let mut argmax: Option<usize> = None;
    for t in 0..n {
        let Some((start, end)) = span(t as u32) else { continue };
        path[t] = (best_in[t] + (end - start)).min(end.max(0.0));
        if argmax.is_none_or(|a| path[t] > path[a]) {
            argmax = Some(t);
        }
        for &s in graph.successors(t) {
            let c = comm(t as u32, s).max(0.0);
            let cand = path[t] + c;
            if cand > best_in[s as usize] {
                best_in[s as usize] = cand;
                best_pred[s as usize] = Some(t as u32);
            }
        }
    }
    let Some(exit) = argmax else { return RealizedPath::default() };
    // Reconstruct the chain backwards from the heaviest path end.
    let mut steps = Vec::new();
    let mut cur = exit as u32;
    loop {
        let (start, end) = span(cur).expect("chain tasks have spans");
        let pred = best_pred[cur as usize];
        let c = pred.map_or(0.0, |p| comm(p, cur).max(0.0));
        steps.push(PathStep {
            task: cur,
            kind: graph.tasks()[cur as usize].kind,
            start,
            end,
            comm: c,
        });
        match pred {
            Some(p) => cur = p,
            None => break,
        }
    }
    steps.reverse();
    let task_seconds: f64 = steps.iter().map(|s| s.end - s.start).sum();
    let comm_seconds: f64 = steps.iter().map(|s| s.comm).sum();
    RealizedPath { length: path[exit], task_seconds, comm_seconds, steps }
}

// ---------------------------------------------------------------------------
// Structural validation (used by tests and the CI trace-artifact job).
// ---------------------------------------------------------------------------

/// A minimal JSON value, produced by the self-contained parser below (the
/// build environment is offline, so no serde).
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser { bytes: s.as_bytes(), pos: 0 }
    }

    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(lead) => {
                    // One code point: `bytes` came from a `&str` and `pos`
                    // is on a boundary, so the leading byte gives its
                    // length (re-checking the rest of the document here
                    // made validation quadratic).
                    let len = match lead {
                        0x00..=0x7f => 1,
                        0x80..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let c = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    out.push_str(c);
                    self.pos += len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

/// Validate that `text` parses as Chrome Trace Format JSON: a top-level
/// object with a `traceEvents` array whose every element carries the
/// required `ph`/`pid`/`tid`/`ts` fields (plus `dur` for complete events).
/// Returns the event count. Used by the test suites and the CI
/// trace-artifact job; intentionally strict about structure, permissive
/// about extra fields.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let mut p = Parser::new(text);
    let doc = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after document"));
    }
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        Some(_) => return Err("`traceEvents` is not an array".into()),
        None => return Err("missing top-level `traceEvents`".into()),
    };
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing string `ph`"))?;
        for key in ["pid", "tid", "ts"] {
            if ev.get(key).and_then(Json::as_num).is_none() {
                return Err(format!("event {i} (ph={ph}): missing numeric `{key}`"));
            }
        }
        match ph {
            "X" => {
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("event {i}: complete event missing `dur`"))?;
                if dur < 0.0 {
                    return Err(format!("event {i}: negative dur {dur}"));
                }
            }
            "i" | "I" | "M" | "C" | "B" | "E" => {}
            other => return Err(format!("event {i}: unknown phase `{other}`")),
        }
    }
    Ok(events.len())
}

/// Validate the SDC instant events of a Chrome trace: every event with
/// `cat == "sdc"` must be an instant (`ph: "i"`) named `"sdc detected"` or
/// `"sdc recomputed"` carrying a `task` argument, and recomputes cannot
/// outnumber detections (each recompute follows a detection). Returns
/// `(detected, recomputed)` counts — both zero for a clean trace.
pub fn validate_sdc_instants(text: &str) -> Result<(usize, usize), String> {
    let mut p = Parser::new(text);
    let doc = p.value()?;
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        _ => return Err("missing top-level `traceEvents` array".into()),
    };
    let (mut detected, mut recomputed) = (0usize, 0usize);
    for (i, ev) in events.iter().enumerate() {
        if ev.get("cat").and_then(Json::as_str) != Some("sdc") {
            continue;
        }
        if ev.get("ph").and_then(Json::as_str) != Some("i") {
            return Err(format!("event {i}: sdc event is not an instant"));
        }
        if ev.get("args").and_then(|a| a.get("task")).is_none() {
            return Err(format!("event {i}: sdc instant missing `args.task`"));
        }
        match ev.get("name").and_then(Json::as_str) {
            Some("sdc detected") => detected += 1,
            Some("sdc recomputed") => recomputed += 1,
            other => return Err(format!("event {i}: unknown sdc instant name {other:?}")),
        }
    }
    if recomputed > detected {
        return Err(format!(
            "{recomputed} sdc recomputes but only {detected} detections — every \
             recompute must follow a detection"
        ));
    }
    Ok((detected, recomputed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elim::ElimOp;

    fn flat_elims(mt: usize, nt: usize) -> Vec<ElimOp> {
        let mut v = Vec::new();
        for k in 0..mt.min(nt) {
            for i in (k + 1)..mt {
                v.push(ElimOp::new(k as u32, i as u32, k as u32, true));
            }
        }
        v
    }

    #[test]
    fn builder_emits_valid_chrome_trace() {
        let mut b = ChromeTraceBuilder::new();
        b.process_name(0, "node \"zero\"");
        b.thread_name(0, 1, "core 1", 1);
        b.span(0, 1, "GEQRT(0,0)", "GEQRT", Some("good"), 0.0, 1.5e-3, &[("task", "0".into())]);
        b.instant(0, 1, "panic caught", "fault", 1e-3, &[]);
        b.counter(0, "steals", 2e-3, &[("steals", 3.0)]);
        assert!(!b.is_empty());
        let json = b.finish();
        let n = validate_chrome_trace(&json).expect("builder output validates");
        assert_eq!(n, 6, "process + 2 thread metadata + span + instant + counter");
    }

    #[test]
    fn sdc_instant_validation_counts_and_rejects() {
        let mut b = ChromeTraceBuilder::new();
        b.instant(0, 1, "sdc detected", "sdc", 1e-3, &[("task", "4".into())]);
        b.instant(0, 1, "sdc recomputed", "sdc", 2e-3, &[("task", "4".into())]);
        b.instant(0, 1, "panic caught", "fault", 3e-3, &[("task", "5".into())]);
        let json = b.finish();
        assert_eq!(validate_sdc_instants(&json), Ok((1, 1)));

        // A recompute without a detection is structurally impossible.
        let mut b = ChromeTraceBuilder::new();
        b.instant(0, 1, "sdc recomputed", "sdc", 1e-3, &[("task", "4".into())]);
        assert!(validate_sdc_instants(&b.finish()).is_err());

        // Unknown sdc names and missing task args are rejected.
        let mut b = ChromeTraceBuilder::new();
        b.instant(0, 1, "sdc exploded", "sdc", 1e-3, &[("task", "4".into())]);
        assert!(validate_sdc_instants(&b.finish()).is_err());
        let mut b = ChromeTraceBuilder::new();
        b.instant(0, 1, "sdc detected", "sdc", 1e-3, &[]);
        assert!(validate_sdc_instants(&b.finish()).is_err());
    }

    #[test]
    fn escaping_survives_hostile_names() {
        let mut b = ChromeTraceBuilder::new();
        b.span(0, 0, "evil \"name\"\\with\nnewline", "cat", None, 0.0, 1.0, &[]);
        let json = b.finish();
        assert!(validate_chrome_trace(&json).is_ok());
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err(), "missing traceEvents");
        assert!(validate_chrome_trace("{\"traceEvents\": 3}").is_err());
        // Complete event without dur.
        let bad = "{\"traceEvents\":[{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":0}]}";
        assert!(validate_chrome_trace(bad).is_err());
        // Unknown phase.
        let bad = "{\"traceEvents\":[{\"ph\":\"?\",\"pid\":0,\"tid\":0,\"ts\":0}]}";
        assert!(validate_chrome_trace(bad).is_err());
        // Trailing garbage.
        assert!(validate_chrome_trace("{\"traceEvents\":[]} x").is_err());
    }

    #[test]
    fn validator_accepts_minimal_document() {
        let ok = "{\"traceEvents\":[{\"ph\":\"i\",\"pid\":1,\"tid\":2,\"ts\":3.5}]}";
        assert_eq!(validate_chrome_trace(ok), Ok(1));
        assert_eq!(validate_chrome_trace("{\"traceEvents\":[]}"), Ok(0));
    }

    #[test]
    fn validator_is_linear_in_document_size() {
        // Regression: each string character used to re-validate the rest
        // of the document as UTF-8 (30 s on a 1.5 MB trace). Multi-byte
        // names keep the code-point decoding honest.
        let event = "{\"name\":\"tâche ⊗ 𝛕\",\"cat\":\"kernel\",\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":12.5,\"dur\":3}";
        let n = (2 << 20) / event.len() + 1;
        let doc = format!("{{\"traceEvents\":[{}]}}", vec![event; n].join(","));
        assert!(doc.len() >= 2 << 20);
        let t0 = std::time::Instant::now();
        assert_eq!(validate_chrome_trace(&doc), Ok(n));
        // Linear parsing takes tens of milliseconds even unoptimized.
        assert!(t0.elapsed().as_secs_f64() < 1.0, "validation took {:?}", t0.elapsed());
    }

    #[test]
    fn realized_cp_on_serial_chain_is_sum_of_durations() {
        // A 3×1 flat tree on one worker: GEQRT then two TSQRTs, strictly
        // sequential — the realized CP is the whole schedule.
        let g = TaskGraph::build(3, 1, 2, &flat_elims(3, 1));
        let n = g.tasks().len();
        // Synthetic spans: task t runs [t, t+1).
        let cp = realized_critical_path(&g, |t| Some((t as f64, t as f64 + 1.0)), |_, _| 0.0);
        assert!((cp.length - n as f64).abs() < 1e-12, "length {}", cp.length);
        assert_eq!(cp.steps.len(), n);
        assert!((cp.task_seconds - n as f64).abs() < 1e-12);
        assert_eq!(cp.comm_seconds, 0.0);
        // Chain respects program (topological) order.
        for w in cp.steps.windows(2) {
            assert!(w[0].task < w[1].task);
        }
    }

    #[test]
    fn realized_cp_includes_comm_and_stays_below_makespan() {
        let g = TaskGraph::build(4, 2, 3, &flat_elims(4, 2));
        // Spans: 0.5 s each, spaced 1 s apart; comm 0.25 s on every edge.
        let span = |t: u32| Some((t as f64, t as f64 + 0.5));
        let cp = realized_critical_path(&g, span, |_, _| 0.25);
        let makespan = g.tasks().len() as f64 - 0.5;
        assert!(cp.length <= makespan + 1e-12);
        assert!(cp.length >= 0.5, "at least one task span");
        assert!(cp.comm_seconds > 0.0);
        assert!((cp.task_seconds + cp.comm_seconds - cp.length).abs() < 1e-9);
    }

    #[test]
    fn top_tasks_sorts_by_duration() {
        let g = TaskGraph::build(3, 1, 2, &flat_elims(3, 1));
        // Make the middle task the longest.
        let span = |t: u32| match t {
            1 => Some((10.0, 13.0)),
            t => Some((t as f64, t as f64 + 1.0)),
        };
        let cp = realized_critical_path(&g, span, |_, _| 0.0);
        let top = cp.top_tasks(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].task, 1);
    }

    #[test]
    fn empty_trace_yields_empty_path() {
        let g = TaskGraph::build(2, 1, 2, &flat_elims(2, 1));
        let cp = realized_critical_path(&g, |_| None, |_, _| 0.0);
        assert_eq!(cp.steps.len(), 0);
        assert_eq!(cp.length, 0.0);
    }
}
