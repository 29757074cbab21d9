//! Shared chrome://tracing "trace event" writer and reader.
//!
//! Two exports in the workspace speak this format: the pipeline-span
//! export ([`crate::RunReport::render_chrome_trace`]) and the reduced
//! timeline export in `trace_report`.  Both render through [`render`], so
//! the two outputs cannot drift apart: one writer owns the event object
//! layout, the microsecond formatting and the string escaping.
//!
//! The document is the chrome://tracing / Perfetto "JSON object format":
//! complete (`"ph":"X"`) events with microsecond `ts`/`dur` values.
//! Timestamps are kept as exact nanosecond integers in [`ChromeEvent`] and
//! formatted as fixed three-decimal microsecond literals, so rendering is
//! pure integer arithmetic and byte-stable across platforms.
//!
//! [`parse`] reads the format back for round-trip tests and tooling.  It
//! is a walk over the tree of [`crate::json::parse`], the workspace's one
//! JSON reader, which keeps a decimal literal exact, so a fractional
//! microsecond converts to whole nanoseconds with integer arithmetic.  Like
//! the run-report walk it is on the xtask lint's decode surface: no
//! indexing, no `unwrap`/`expect`, errors are values.

use crate::json::{self, escape_into, JsonValue};

/// One complete ("X") trace event with exact nanosecond times.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChromeEvent {
    /// Event name (shown on the slice).
    pub name: String,
    /// Category tag (used by the UI for filtering).
    pub cat: String,
    /// Process id lane.
    pub pid: u64,
    /// Thread id lane within the process.
    pub tid: u64,
    /// Start time in nanoseconds (rendered as microseconds).
    pub ts_ns: u64,
    /// Duration in nanoseconds (rendered as microseconds).
    pub dur_ns: u64,
}

/// Renders events as a chrome://tracing "trace event" JSON document
/// (`displayTimeUnit` ms, one complete event per entry, microsecond
/// timestamps, trailing newline).
pub fn render(events: &[ChromeEvent]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        escape_into(&event.name, &mut out);
        out.push_str(",\"cat\":");
        escape_into(&event.cat, &mut out);
        out.push_str(",\"ph\":\"X\",\"pid\":");
        out.push_str(&event.pid.to_string());
        out.push_str(",\"tid\":");
        out.push_str(&event.tid.to_string());
        out.push_str(",\"ts\":");
        out.push_str(&format_us(event.ts_ns));
        out.push_str(",\"dur\":");
        out.push_str(&format_us(event.dur_ns));
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

/// Nanoseconds as a sub-microsecond-exact decimal microsecond count —
/// chrome trace timestamps are microseconds.  Pure integer formatting.
pub(crate) fn format_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Parses a document produced by [`render`] back into its events.
///
/// The document is one object with exactly one `traceEvents` array of
/// event objects.  An event's `ph`, if present, must be `"X"` (a complete
/// event); `pid` and `tid` are integers; `ts` and `dur` are microseconds
/// with at most three fraction digits (sub-nanosecond times cannot be
/// represented).  Other members are ignored.  Never panics.
pub fn parse(input: &str) -> Result<Vec<ChromeEvent>, String> {
    let document = json::parse(input)?;
    let members = document.as_obj().ok_or("a chrome trace is one object")?;
    let mut lists = members.iter().filter(|(key, _)| key == "traceEvents");
    let events = match (lists.next(), lists.next()) {
        (Some((_, events)), None) => events,
        (None, _) => return Err("document has no traceEvents member".to_string()),
        (Some(_), Some(_)) => return Err("duplicate traceEvents member".to_string()),
    };
    let events = events.as_arr().ok_or("traceEvents must be an array")?;
    events.iter().map(event).collect()
}

fn event(value: &JsonValue) -> Result<ChromeEvent, String> {
    let members = value.as_obj().ok_or("a trace event must be an object")?;
    let mut event = ChromeEvent::default();
    for (key, value) in members {
        let string = || {
            let text = value.as_str().map(str::to_string);
            text.ok_or_else(|| format!("{key} must be a string"))
        };
        let integer = || {
            value
                .as_u64()
                .ok_or_else(|| format!("{key} must be an integer"))
        };
        match key.as_str() {
            "name" => event.name = string()?,
            "cat" => event.cat = string()?,
            "ph" if value.as_str() != Some("X") => {
                return Err(format!("phase {} is not a complete event", value.render()));
            }
            "pid" => event.pid = integer()?,
            "tid" => event.tid = integer()?,
            "ts" => event.ts_ns = micros_to_ns(value, key)?,
            "dur" => event.dur_ns = micros_to_ns(value, key)?,
            _ => {}
        }
    }
    Ok(event)
}

/// An integer or decimal microsecond count as exact nanoseconds.
fn micros_to_ns(value: &JsonValue, key: &str) -> Result<u64, String> {
    let (whole, fraction) = match value {
        JsonValue::UInt(us) => (Some(*us), ""),
        JsonValue::Dec(literal) => {
            let (whole, fraction) = literal.split_once('.').unwrap_or((literal, ""));
            (whole.parse().ok(), fraction)
        }
        _ => return Err(format!("{key} must be a number of microseconds")),
    };
    if fraction.len() > 3 {
        return Err(format!("{key} carries at most 3 fraction digits (1 ns)"));
    }
    let fraction: Option<u64> = format!("{fraction:0<3}").parse().ok();
    whole
        .and_then(|us| us.checked_mul(1_000)?.checked_add(fraction?))
        .ok_or_else(|| format!("{key} overflows u64 nanoseconds"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<ChromeEvent> {
        vec![
            ChromeEvent {
                name: "parse".to_string(),
                cat: "pipeline".to_string(),
                pid: 1,
                tid: 0,
                ts_ns: 0,
                dur_ns: 1_500_000,
            },
            ChromeEvent {
                name: "main.2.1".to_string(),
                cat: "reduced".to_string(),
                pid: 3,
                tid: 7,
                ts_ns: 123_456_789,
                dur_ns: 42,
            },
        ]
    }

    #[test]
    fn render_emits_the_legacy_byte_format() {
        let trace = render(&sample_events());
        assert!(trace.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(trace.ends_with("]}\n"));
        assert!(trace.contains(
            "{\"name\":\"parse\",\"cat\":\"pipeline\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0.000,\"dur\":1500.000}"
        ));
        assert!(trace.contains("\"ts\":123456.789,\"dur\":0.042"), "{trace}");
    }

    #[test]
    fn round_trip_is_lossless() {
        let events = sample_events();
        let rendered = render(&events);
        let back = parse(&rendered).unwrap();
        assert_eq!(back, events);
        assert_eq!(render(&back), rendered, "one canonical serialization");
    }

    #[test]
    fn empty_trace_round_trips() {
        let rendered = render(&[]);
        assert_eq!(
            rendered,
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}\n"
        );
        assert_eq!(parse(&rendered).unwrap(), Vec::new());
    }

    #[test]
    fn names_are_escaped_and_recovered() {
        let events = vec![ChromeEvent {
            name: "loop \"x\"\\\n\u{1}".to_string(),
            cat: String::new(),
            pid: 0,
            tid: 0,
            ts_ns: 1,
            dur_ns: 1,
        }];
        let rendered = render(&events);
        assert_eq!(parse(&rendered).unwrap(), events);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse("").is_err());
        assert!(parse("{}").is_err(), "no traceEvents");
        assert!(parse("{\"traceEvents\":[}").is_err());
        assert!(parse("{\"traceEvents\":[]}garbage").is_err());
        // Sub-nanosecond timestamps cannot be represented.
        assert!(parse("{\"traceEvents\":[{\"name\":\"a\",\"ts\":0.0001,\"dur\":1}]}").is_err());
        // Only complete events are in the writer's language.
        assert!(
            parse("{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"B\",\"ts\":0,\"dur\":1}]}").is_err()
        );
        // Negative numbers are not timestamps.
        assert!(parse("{\"traceEvents\":[{\"ts\":-1}]}").is_err());
    }

    #[test]
    fn parser_tolerates_whitespace_and_unknown_members() {
        let doc = "{ \"displayTimeUnit\" : \"ms\" ,\n \"traceEvents\" : [\n  { \"name\" : \"a\" , \"extra\" : 7 , \"ts\" : 2.5 , \"dur\" : 1 }\n ] }";
        let events = parse(doc).unwrap();
        assert_eq!(events.len(), 1);
        let event = events.first().unwrap();
        assert_eq!(event.name, "a");
        assert_eq!(event.ts_ns, 2_500);
        assert_eq!(event.dur_ns, 1_000);
    }
}
