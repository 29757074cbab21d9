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
//! cannot reuse [`crate::json::parse`], which deliberately rejects float
//! literals — chrome timestamps are fractional microseconds — so this file
//! carries its own small reader.  Like the run-report parser it is on the
//! xtask lint's decode surface: no indexing, no `unwrap`/`expect`, errors
//! are values.

use crate::json::escape_into;

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
/// Accepts the subset of the trace-event format that [`render`] emits —
/// one object with a `traceEvents` array of flat complete events — while
/// tolerating unknown scalar members and arbitrary whitespace.  Timestamps
/// must not carry more than three fraction digits (sub-nanosecond times
/// cannot be represented).  Never panics.
pub fn parse(input: &str) -> Result<Vec<ChromeEvent>, String> {
    let mut p = Reader {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.require(b'{')?;
    let mut events = None;
    let mut first = true;
    loop {
        p.skip_ws();
        if p.eat(b'}') {
            break;
        }
        if !first {
            p.require(b',')?;
            p.skip_ws();
        }
        first = false;
        let key = p.string()?;
        p.skip_ws();
        p.require(b':')?;
        p.skip_ws();
        if key == "traceEvents" {
            if events.is_some() {
                return Err("duplicate traceEvents member".to_string());
            }
            events = Some(p.events()?);
        } else {
            p.skip_scalar()?;
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    events.ok_or_else(|| "document has no traceEvents member".to_string())
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        if self.peek() == Some(byte) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn require(&mut self, byte: u8) -> Result<(), String> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                char::from(byte),
                self.pos,
                self.peek().map(char::from)
            ))
        }
    }

    /// Parses a quoted string with the escapes [`escape_into`] can emit.
    fn string(&mut self) -> Result<String, String> {
        self.require(b'"')?;
        let mut out = String::new();
        loop {
            let Some(byte) = self.peek() else {
                return Err("unterminated string".to_string());
            };
            self.pos += 1;
            match byte {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".to_string());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let Some(digit) =
                                    self.peek().and_then(|d| char::from(d).to_digit(16))
                                else {
                                    return Err("bad \\u escape".to_string());
                                };
                                self.pos += 1;
                                code = code * 16 + digit;
                            }
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return Err(format!("\\u{code:04x} is not a scalar")),
                            }
                        }
                        other => {
                            return Err(format!("unknown escape \\{}", char::from(other)));
                        }
                    }
                }
                byte if byte < 0x20 => return Err("raw control byte in string".to_string()),
                _ => {
                    // Re-decode the UTF-8 sequence starting at the byte we
                    // just consumed (input is a &str, so it is valid UTF-8).
                    let start = self.pos - 1;
                    let end = self
                        .bytes
                        .get(start..)
                        .map(|rest| {
                            start
                                + rest
                                    .iter()
                                    .skip(1)
                                    .take_while(|b| **b & 0xC0 == 0x80)
                                    .count()
                                + 1
                        })
                        .unwrap_or(start);
                    if let Some(chunk) = self.bytes.get(start..end) {
                        out.push_str(&String::from_utf8_lossy(chunk));
                    }
                    self.pos = end;
                }
            }
        }
    }

    /// Parses a non-negative decimal number with at most three fraction
    /// digits, returning exact nanoseconds (the literal is microseconds).
    fn number_us_to_ns(&mut self) -> Result<u64, String> {
        let start = self.pos;
        let mut whole: u64 = 0;
        while let Some(digit) = self.peek().filter(u8::is_ascii_digit) {
            whole = whole
                .checked_mul(10)
                .and_then(|w| w.checked_add(u64::from(digit - b'0')))
                .ok_or("number overflows u64")?;
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected a number at byte {start}"));
        }
        let mut frac: u64 = 0;
        let mut frac_digits = 0u32;
        if self.eat(b'.') {
            while let Some(digit) = self.peek().filter(u8::is_ascii_digit) {
                frac_digits += 1;
                if frac_digits > 3 {
                    return Err("timestamps carry at most 3 fraction digits (1 ns)".to_string());
                }
                frac = frac * 10 + u64::from(digit - b'0');
                self.pos += 1;
            }
            if frac_digits == 0 {
                return Err("digits must follow the decimal point".to_string());
            }
        }
        while frac_digits < 3 {
            frac *= 10;
            frac_digits += 1;
        }
        whole
            .checked_mul(1_000)
            .and_then(|ns| ns.checked_add(frac))
            .ok_or_else(|| "timestamp overflows u64 nanoseconds".to_string())
    }

    /// Skips one scalar member value (string or number).
    fn skip_scalar(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'"') {
            self.string().map(|_| ())
        } else {
            self.number_us_to_ns().map(|_| ())
        }
    }

    fn events(&mut self) -> Result<Vec<ChromeEvent>, String> {
        self.require(b'[')?;
        let mut events = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(events);
        }
        loop {
            self.skip_ws();
            events.push(self.event()?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(events);
            }
            self.require(b',')?;
        }
    }

    fn event(&mut self) -> Result<ChromeEvent, String> {
        self.require(b'{')?;
        let mut event = ChromeEvent::default();
        let mut first = true;
        loop {
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(event);
            }
            if !first {
                self.require(b',')?;
                self.skip_ws();
            }
            first = false;
            let key = self.string()?;
            self.skip_ws();
            self.require(b':')?;
            self.skip_ws();
            match key.as_str() {
                "name" => event.name = self.string()?,
                "cat" => event.cat = self.string()?,
                "ph" => {
                    let ph = self.string()?;
                    if ph != "X" {
                        return Err(format!("phase {ph:?} is not a complete event"));
                    }
                }
                "pid" => event.pid = self.integer()?,
                "tid" => event.tid = self.integer()?,
                "ts" => event.ts_ns = self.number_us_to_ns()?,
                "dur" => event.dur_ns = self.number_us_to_ns()?,
                _ => self.skip_scalar()?,
            }
        }
    }

    /// Parses a non-negative integer (pid/tid lanes carry no fraction).
    fn integer(&mut self) -> Result<u64, String> {
        let start = self.pos;
        let mut value: u64 = 0;
        while let Some(digit) = self.peek().filter(u8::is_ascii_digit) {
            value = value
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(digit - b'0')))
                .ok_or("integer overflows u64")?;
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected an integer at byte {start}"));
        }
        if self.peek() == Some(b'.') {
            return Err("pid/tid must be integers".to_string());
        }
        Ok(value)
    }
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
