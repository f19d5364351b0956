//! In-memory spans recorded by the harness around every call it makes
//! into the program under test, and their export as a Chrome trace.
//!
//! Spans live in the harness only: the program is measured from outside.
//! They are kept in memory and written once, when the run ends. With
//! recording off (the untraced pass) [`Spans::time`] still times the call,
//! so both passes run the same harness code.

use crate::json::Json;
use hqr_runtime::{validate_chrome_trace, ChromeTraceBuilder};
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    /// The layer (module name) the timed call belongs to.
    pub layer: &'static str,
    /// Seconds since the run's origin.
    pub start: f64,
    pub end: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one operation.
    pub op: Option<u64>,
    /// Trace process: 0 is the harness, 1 the executor's workers.
    pub pid: u32,
    /// Trace lane within the process.
    pub lane: u32,
}

/// Span recorder of one thread of the harness.
pub struct Spans {
    origin: Instant,
    enabled: bool,
    lane: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    last_closed: Option<usize>,
}

/// Trace process id of the harness's own lanes.
pub const PID_HARNESS: u32 = 0;
/// Trace process id of the executor's worker lanes (folded task records).
pub const PID_WORKERS: u32 = 1;

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            origin: Instant::now(),
            enabled,
            lane: 0,
            spans: Vec::new(),
            open: Vec::new(),
            last_closed: None,
        }
    }

    /// A recorder for another thread of the same run: same origin, its
    /// own lane. Merge it back with [`Spans::absorb`].
    pub fn fork(&self, lane: u32) -> Spans {
        Spans { origin: self.origin, lane, ..Spans::new(self.enabled) }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Seconds since the run's origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Run `f` inside a span and return its result with its wall seconds.
    /// Spans opened by `f` become children.
    pub fn time<T>(
        &mut self,
        name: &str,
        layer: &'static str,
        op: Option<u64>,
        f: impl FnOnce(&mut Spans) -> T,
    ) -> (T, f64) {
        let start = self.now();
        let id = self.enabled.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                layer,
                start,
                end: start,
                parent: self.open.last().copied(),
                op: op.or_else(|| self.open.last().and_then(|&p| self.spans[p].op)),
                pid: PID_HARNESS,
                lane: self.lane,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end = self.now();
        if let Some(id) = id {
            self.spans[id].end = end;
            self.open.pop();
            self.last_closed = Some(id);
        }
        (out, end - start)
    }

    /// Index of the span that closed last: right after [`Spans::time`]
    /// returns, the span of that call.
    pub fn last_closed(&self) -> Option<usize> {
        self.last_closed
    }

    /// Record an interval measured elsewhere (an executor task record) as
    /// a child of `parent`. `start`/`end` are seconds since the origin.
    #[allow(clippy::too_many_arguments)]
    pub fn child(
        &mut self,
        parent: Option<usize>,
        name: &str,
        layer: &'static str,
        start: f64,
        end: f64,
        pid: u32,
        lane: u32,
    ) {
        if self.enabled {
            let op = parent.and_then(|p| self.spans[p].op);
            self.spans.push(Span {
                name: name.to_string(),
                layer,
                start,
                end,
                parent,
                op,
                pid,
                lane,
            });
        }
    }

    /// Take over the spans of a forked recorder.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The `(process, lane)` pairs the spans use, ascending.
    fn lanes(&self) -> Vec<(u32, u32)> {
        let mut lanes: Vec<(u32, u32)> = self.spans.iter().map(|s| (s.pid, s.lane)).collect();
        lanes.sort_unstable();
        lanes.dedup();
        lanes
    }

    /// Export spans `range` as a Chrome trace document (naming all of
    /// `lanes`, so that every such document stands alone).
    fn chrome_trace_of(
        &self,
        title: &str,
        lanes: &[(u32, u32)],
        range: std::ops::Range<usize>,
    ) -> String {
        let mut b = ChromeTraceBuilder::new();
        b.process_name(PID_HARNESS, &format!("benchmark harness ({title})"));
        b.process_name(PID_WORKERS, "executor workers (folded ExecTrace records)");
        for &(pid, lane) in lanes {
            let name = match (pid, lane) {
                (PID_HARNESS, 0) => "main".to_string(),
                (PID_HARNESS, l) => format!("client {}", l - 1),
                (_, l) => format!("worker {l}"),
            };
            b.thread_name(pid, lane, &name, lane as i64);
        }
        for (id, s) in self.spans.iter().enumerate().take(range.end).skip(range.start) {
            let mut args = vec![("layer", s.layer.to_string()), ("span", id.to_string())];
            if let Some(p) = s.parent {
                args.push(("parent", p.to_string()));
            }
            if let Some(op) = s.op {
                args.push(("op", op.to_string()));
            }
            b.span(s.pid, s.lane, &s.name, s.layer, None, s.start, s.end, &args);
        }
        b.finish()
    }

    /// Export every span as a Chrome trace document.
    pub fn to_chrome_trace(&self, title: &str) -> String {
        self.chrome_trace_of(title, &self.lanes(), 0..self.spans.len())
    }

    /// Check the export with the repo's own `validate_chrome_trace`.
    ///
    /// That validator re-scans the rest of the document for every string
    /// character, so its cost is quadratic in the document's size: half a
    /// minute for the 1.5 MB trace of a `serve` run. The events are
    /// therefore validated in batches, each a complete document; `text`,
    /// the document written to disk, is parsed whole by the harness's own
    /// parser and must hold the same number of span events.
    pub fn validate_chrome_trace(&self, title: &str, text: &str) -> Result<(), String> {
        const BATCH: usize = 100;
        let lanes = self.lanes();
        let metadata = validate_chrome_trace(&self.chrome_trace_of(title, &lanes, 0..0))?;
        let mut validated = 0;
        for start in (0..self.spans.len()).step_by(BATCH) {
            let batch = start..(start + BATCH).min(self.spans.len());
            validated +=
                validate_chrome_trace(&self.chrome_trace_of(title, &lanes, batch))? - metadata;
        }
        let doc = Json::parse(text)?;
        let events =
            doc.get("traceEvents").and_then(Json::as_arr).ok_or("no `traceEvents` array")?;
        let written =
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).count();
        if (validated, written) != (self.spans.len(), self.spans.len()) {
            return Err(format!(
                "{} spans, {validated} validated, {written} written",
                self.spans.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export() {
        let mut s = Spans::new(true);
        let ((), wall) = s.time("op", "bench", Some(7), |s| {
            let (_, inner) = s.time("inner", "hqr-tile", None, |_| ());
            assert!(inner >= 0.0);
            s.child(Some(0), "task", "hqr-kernels", 0.0, 0.001, PID_WORKERS, 1);
        });
        assert!(wall >= 0.0);
        assert_eq!(s.last_closed(), Some(0));
        let mut forked = s.fork(1);
        forked.time("client op", "hqr-cli::service", Some(8), |_| ());
        s.absorb(forked);
        let spans = s.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, Some(7), "children inherit the op id");
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].lane, 1);
        assert!(spans[0].end >= spans[1].end);
        // 2 process names + 3 lanes x 2 metadata events + 4 spans.
        let text = s.to_chrome_trace("test");
        assert_eq!(validate_chrome_trace(&text), Ok(12));
        assert_eq!(s.validate_chrome_trace("test", &text), Ok(()));
        let truncated = s.chrome_trace_of("test", &s.lanes(), 0..3);
        assert!(s.validate_chrome_trace("test", &truncated).unwrap_err().contains("3 written"));
    }

    #[test]
    fn disabled_recorder_still_times() {
        let mut s = Spans::new(false);
        let (v, wall) = s.time("op", "bench", None, |_| 41 + 1);
        assert_eq!(v, 42);
        assert!(wall >= 0.0);
        assert!(s.spans().is_empty());
    }
}
