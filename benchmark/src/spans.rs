//! The harness's own span recorder.
//!
//! Spans are recorded here, around calls into each layer, and not inside
//! the program: every span has a name, a start, an end, the span that was
//! open when it started (its parent) and the workload it belongs to.  They
//! stay in memory and are written once, at exit, as chrome traceEvents.

use std::time::Instant;

use crate::json::Json;

/// One completed span.  Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub workload: String,
    /// Index of the enclosing span in the tracer's buffer.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans when enabled; when disabled `time` still returns the
/// elapsed time, so the end-to-end runs share the code path and pay two
/// clock reads per operation either way.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, workload: &str) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `work` inside a span named `name`; returns its result and its
    /// wall time in milliseconds.
    pub fn time<T>(&mut self, name: &str, work: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let start_ns = self.now_ns();
        let slot = self.enabled.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                workload: self.workload.clone(),
                parent: self.open.last().copied(),
                start_ns,
                end_ns: start_ns,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let result = work(self);
        let end_ns = self.now_ns();
        if let Some(slot) = slot {
            self.spans[slot].end_ns = end_ns;
            self.open.pop();
        }
        (result, (end_ns - start_ns) as f64 / 1e6)
    }

    /// Adopts spans a child process recorded against its own epoch:
    /// shifted to start at `offset_ns` here and parented under the span
    /// that is open now.
    pub fn adopt(&mut self, child_spans: &[Span], offset_ns: u64) {
        if !self.enabled {
            return;
        }
        let base = self.spans.len();
        let parent_here = self.open.last().copied();
        for span in child_spans {
            self.spans.push(Span {
                parent: span.parent.map(|p| p + base).or(parent_here),
                start_ns: span.start_ns + offset_ns,
                end_ns: span.end_ns + offset_ns,
                ..span.clone()
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Later spans belong to `workload`.
    pub fn set_workload(&mut self, workload: &str) {
        self.workload = workload.to_string();
    }
}

/// The span buffer as a chrome://tracing document, through the workspace's
/// one traceEvents writer.  The category carries the workload and the
/// parent's name; nesting depth picks the lane so parents sit above
/// children.
pub fn render_chrome(spans: &[Span]) -> String {
    let depth = |mut index: usize| {
        let mut depth = 0;
        while let Some(parent) = spans[index].parent {
            depth += 1;
            index = parent;
        }
        depth
    };
    let events: Vec<trace_obs::ChromeEvent> = spans
        .iter()
        .enumerate()
        .map(|(index, span)| trace_obs::ChromeEvent {
            name: span.name.clone(),
            cat: format!(
                "{};parent={}",
                span.workload,
                span.parent.map_or("-", |p| spans[p].name.as_str())
            ),
            pid: 1,
            tid: depth(index),
            ts_ns: span.start_ns,
            dur_ns: span.end_ns - span.start_ns,
        })
        .collect();
    trace_obs::chrome::render(&events)
}

/// Spans as JSON, for the child → parent pipe.
pub fn spans_to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|span| {
                Json::obj([
                    ("name", Json::Str(span.name.clone())),
                    ("workload", Json::Str(span.workload.clone())),
                    (
                        "parent",
                        span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("start_ns", Json::Num(span.start_ns as f64)),
                    ("end_ns", Json::Num(span.end_ns as f64)),
                ])
            })
            .collect(),
    )
}

pub fn spans_from_json(value: &Json) -> Option<Vec<Span>> {
    value
        .as_arr()?
        .iter()
        .map(|span| {
            Some(Span {
                name: span.get("name")?.as_str()?.to_string(),
                workload: span.get("workload")?.as_str()?.to_string(),
                parent: span.get("parent")?.as_f64().map(|p| p as usize),
                start_ns: span.get("start_ns")?.as_f64()? as u64,
                end_ns: span.get("end_ns")?.as_f64()? as u64,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: &str = "text_stream";

    #[test]
    fn nested_spans_record_their_parent_and_workload() {
        let mut tracer = Tracer::new(true, W);
        let ((), outer_ms) = tracer.time("outer", |t| {
            t.time("inner", |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name.as_str(), spans[0].parent), ("outer", None));
        assert_eq!(
            (spans[1].name.as_str(), spans[1].parent),
            ("inner", Some(0))
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(spans.iter().all(|s| s.workload == W));
        assert_eq!((spans[0].end_ns - spans[0].start_ns) as f64 / 1e6, outer_ms);
    }

    #[test]
    fn a_disabled_tracer_times_but_keeps_nothing() {
        let mut tracer = Tracer::new(false, W);
        let (value, ms) = tracer.time("x", |_| 7);
        assert_eq!(value, 7);
        assert!(ms >= 0.0);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn child_spans_survive_the_pipe_and_are_reparented() {
        let mut child = Tracer::new(true, W);
        child.time("op", |t| t.time("leaf", |_| ()).0);
        let wire = spans_to_json(child.spans()).render();
        let back = spans_from_json(&crate::json::parse(&wire).unwrap()).unwrap();
        assert_eq!(back, child.spans());

        let mut parent = Tracer::new(true, W);
        parent.time("spawn", |t| t.adopt(&back, 1_000));
        let spans = parent.spans();
        assert_eq!(
            spans[1].parent,
            Some(0),
            "child root hangs under the open span"
        );
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[1].start_ns, back[0].start_ns + 1_000);
    }

    #[test]
    fn chrome_export_round_trips_through_the_workspace_parser() {
        let mut tracer = Tracer::new(true, W);
        tracer.time("cli.op", |t| t.time("stream.parser", |_| ()).0);
        let events = trace_obs::chrome::parse(&render_chrome(tracer.spans())).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].cat, "text_stream;parent=cli.op");
        assert_eq!((events[0].tid, events[1].tid), (0, 1));
    }
}
