//! Byte-level record grammar of the text readers.
//!
//! The pull readers in [`crate::parser`] hand over lines as slices of their
//! block buffer, whether the trace is parsed whole or streamed a rank
//! section at a time, and every line goes through the functions in this
//! module, so a trace record is parsed by exactly one piece of code:
//!
//! * [`meaningful_line`] — trims a raw line and skips blanks and `#` comments.
//! * `plain_record_line` — the raw lines a reader passing a section it
//!   does not parse may pass without taking them apart.
//! * [`HeaderBuilder`] — an incremental state machine for the shared header
//!   (`TRACE RANKS <n> NAME <name>` plus the REGION/CONTEXT tables),
//!   producing the [`TraceTables`] every later record is validated against.
//! * [`parse_app_body_line`] — one line of a full-trace body (`RANK`,
//!   `SEG_BEGIN`, `SEG_END`, `EVENT`, `END_RANK`, `END_TRACE`), classified
//!   as an [`AppBodyLine`].
//!
//! Body lines are `&[u8]`, tokenised once by a cursor that splits on the six
//! ASCII `White_Space` bytes (`0x09..=0x0D`, `0x20`), matches keywords as
//! byte strings and parses decimal fields of up to 19 digits in the same
//! pass.  What no writer emits is cold: a `+` prefix or a 20-digit number
//! goes to `str::parse`, error messages are built out of line, and a token
//! that meets a non-ASCII byte is delimited by `str`'s Unicode whitespace
//! (U+00A0, U+2003, …) — the language is the one `split_whitespace` defined.
//! Lines must be UTF-8: the reader checks every non-ASCII line as it
//! leaves the block buffer (which also caps a line at `MAX_LINE_BYTES`);
//! other bytes end the line early or show up replaced in an error message,
//! they never panic.  The header converts its few lines to `&str` and keeps
//! the `split_whitespace` grammar: its names preserve inner blanks verbatim.

use std::fmt::Display;

use trace_model::{
    CollectiveOp, CommInfo, ContextId, ContextTable, Duration, Event, Rank, RegionId, RegionTable,
    Time, TraceRecord,
};

use crate::error::FormatError;

pub use trace_model::TraceTables;

/// The six ASCII `White_Space` bytes — the only separators an ASCII line has.
const fn is_space(byte: u8) -> bool {
    matches!(byte, 0x09..=0x0D | b' ')
}

/// Classifies one raw input line (terminator already removed):
/// `Some(trimmed)` if it carries a record, `None` if the line is skipped
/// (blank or `#` comment).  The text readers route every line through this
/// single rule; a reader passing a section it does not parse applies it
/// too, so the line level has one language.
pub fn meaningful_line(raw: &[u8]) -> Option<&[u8]> {
    let start = raw.iter().position(|&b| !is_space(b))?;
    let end = raw.iter().rposition(|&b| !is_space(b))? + 1;
    let mut line = raw.get(start..end)?;
    // A non-ASCII character at either end may be a Unicode blank.
    if !(line.first()?.is_ascii() && line.last()?.is_ascii()) {
        line = std::str::from_utf8(line).map_or(line, |text| text.trim().as_bytes());
    }
    (!line.is_empty() && !line.starts_with(b"#")).then_some(line)
}

/// Whether a raw line (terminator removed) is a plain record line: ASCII,
/// starting `EVENT` or `SEG_`, and ending in a byte that is not a blank.
/// Such a line is its own [`meaningful_line`], and it is neither a section
/// boundary nor the trailer, so a reader skipping a rank section passes it
/// as a record without looking further; every other line takes the
/// per-line rule.
#[inline]
pub(crate) fn plain_record_line(raw: &[u8]) -> bool {
    (raw.starts_with(b"EVENT") || raw.starts_with(b"SEG_"))
        && raw.last().is_some_and(|&b| !is_space(b))
        && raw.is_ascii()
}

/// Decimal fields of up to this many digits cannot overflow a `u64`
/// (`10^19 - 1 < 2^64`), so they are accumulated without checks.
const INLINE_DIGITS: usize = 19;

/// A single-pass tokenizer over one line.
pub(crate) struct Cursor<'a> {
    line_no: usize,
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(line_no: usize, line: &'a [u8]) -> Self {
        Cursor {
            line_no,
            rest: line,
        }
    }

    /// An error on this cursor's line.
    pub(crate) fn error(&self, message: impl Into<String>) -> FormatError {
        FormatError::at(self.line_no, message)
    }

    fn skip_spaces(&mut self) {
        while let [first, rest @ ..] = self.rest {
            if !is_space(*first) {
                break;
            }
            self.rest = rest;
        }
    }

    /// The next whitespace-delimited token, or `None` at the end of the
    /// line: exactly what `split_whitespace` yields, found with one compare
    /// per byte as long as the token is printable ASCII.
    #[inline]
    pub(crate) fn token(&mut self) -> Option<&'a [u8]> {
        self.skip_spaces();
        let graphic = self.rest.iter().position(|b| !b.is_ascii_graphic());
        let (token, rest) = self.rest.split_at(graphic.unwrap_or(self.rest.len()));
        if rest.first().is_some_and(|&b| !is_space(b)) {
            return self.token_slow();
        }
        self.rest = rest;
        (!token.is_empty()).then_some(token)
    }

    /// The token meets a control character, which belongs to it, or a
    /// non-ASCII byte, which may belong to it or start the Unicode blank
    /// that ends it; `str` knows which.
    #[cold]
    fn token_slow(&mut self) -> Option<&'a [u8]> {
        let text = std::str::from_utf8(self.rest)
            .unwrap_or_default()
            .trim_start();
        let (token, rest) = text.split_at(text.find(char::is_whitespace).unwrap_or(text.len()));
        self.rest = rest.as_bytes();
        (!token.is_empty()).then_some(token.as_bytes())
    }

    /// Parses the next token as `u64`, reporting `what` on failure.
    #[inline]
    pub(crate) fn u64(&mut self, what: &str) -> Result<u64, FormatError> {
        self.skip_spaces();
        let mut value = 0u64;
        let mut rest = self.rest;
        while let [digit @ b'0'..=b'9', tail @ ..] = rest {
            value = value.wrapping_mul(10).wrapping_add(u64::from(digit - b'0'));
            rest = tail;
        }
        let digits = self.rest.len() - rest.len();
        if (1..=INLINE_DIGITS).contains(&digits) && rest.first().is_none_or(|&b| is_space(b)) {
            self.rest = rest;
            return Ok(value);
        }
        self.u64_slow(what)
    }

    #[cold]
    fn u64_slow(&mut self, what: &str) -> Result<u64, FormatError> {
        let token = self.token();
        parse_u64_token(self.line_no, token, what)
    }

    /// Parses the next token as `u32`, reporting `what` on failure; a value
    /// that only fits a `u64` is an error, not a truncation.
    #[inline]
    pub(crate) fn u32(&mut self, what: &str) -> Result<u32, FormatError> {
        let mut start = Cursor::new(self.line_no, self.rest);
        let value = self.u64(what)?;
        u32::try_from(value).map_err(|_| invalid_number(self.line_no, start.token(), what))
    }
}

/// Everything the inline digit loop does not take: a missing token, a `+`
/// prefix, 20 or more digits, stray bytes.  `str::parse` decides, as it did
/// for every token before the byte grammar (and still does for the header).
#[cold]
fn parse_u64_token(
    line: usize,
    token: Option<&[u8]>,
    what: impl Display,
) -> Result<u64, FormatError> {
    token
        .and_then(|t| std::str::from_utf8(t).ok()?.parse().ok())
        .ok_or_else(|| invalid_number(line, token, what))
}

#[cold]
fn invalid_number(line: usize, token: Option<&[u8]>, what: impl Display) -> FormatError {
    match token.map(String::from_utf8_lossy) {
        Some(token) => FormatError::at(line, format!("invalid {what}: {token:?}")),
        None => FormatError::at(line, format!("missing {what}")),
    }
}

/// Incremental parser for the shared trace header.
///
/// Feed it (blank/comment-stripped) lines one at a time: it consumes the
/// `TRACE` line and the REGION/CONTEXT table lines and reports the first
/// line that belongs to the trace body, at which point [`HeaderBuilder::finish`]
/// yields the [`TraceTables`].  The reporting is pull-free, so a reader
/// drives it a line at a time from whatever source it reads.
#[derive(Debug, Default)]
pub struct HeaderBuilder {
    saw_trace_line: bool,
    name: String,
    ranks: usize,
    region_names: Vec<String>,
    context_names: Vec<String>,
}

impl HeaderBuilder {
    /// Creates an empty builder expecting the `TRACE` line first.
    pub fn new() -> Self {
        HeaderBuilder::default()
    }

    /// What the builder expects next, for end-of-input error messages.
    pub fn expecting(&self) -> &'static str {
        if self.saw_trace_line {
            "REGION/CONTEXT table or rank data"
        } else {
            "TRACE line"
        }
    }

    /// Feeds one line.  Returns `true` if the line was part of the header
    /// (and consumed), `false` if the header is complete and the line must
    /// be re-processed by the caller as a body record.
    pub fn feed(&mut self, line_no: usize, line: &[u8]) -> Result<bool, FormatError> {
        let line = std::str::from_utf8(line)
            .map_err(|_| FormatError::at(line_no, "header line is not valid UTF-8"))?;
        let mut tokens = line.split_whitespace();
        if !self.saw_trace_line {
            if tokens.next() != Some("TRACE") || tokens.next() != Some("RANKS") {
                return Err(FormatError::at(
                    line_no,
                    "expected `TRACE RANKS <n> NAME <name>`",
                ));
            }
            let ranks = tokens.next().map(str::as_bytes);
            self.ranks = parse_u64_token(line_no, ranks, "rank count")? as usize;
            if tokens.next() != Some("NAME") {
                return Err(FormatError::at(
                    line_no,
                    "expected NAME after the rank count",
                ));
            }
            // The name is everything after the literal ` NAME ` marker; a
            // missing remainder (empty program name) is tolerated.
            self.name = line
                .split_once(" NAME ")
                .map(|(_, rest)| rest.to_string())
                .unwrap_or_default();
            self.saw_trace_line = true;
            return Ok(true);
        }
        match tokens.next() {
            Some("REGION") => {
                let id = tokens.next();
                let name = Self::table_entry(line_no, line, "region", id, &self.region_names)?;
                self.region_names.push(name);
                Ok(true)
            }
            Some("CONTEXT") => {
                let id = tokens.next();
                let name = Self::table_entry(line_no, line, "context", id, &self.context_names)?;
                self.context_names.push(name);
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Validates one REGION/CONTEXT line against the table built so far and
    /// returns the entry's name.
    fn table_entry(
        line_no: usize,
        line: &str,
        kind: &str,
        id_token: Option<&str>,
        existing: &[String],
    ) -> Result<String, FormatError> {
        let id_token = id_token.map(str::as_bytes);
        let id = parse_u64_token(line_no, id_token, format_args!("{kind} id"))? as usize;
        if id != existing.len() {
            return Err(FormatError::at(
                line_no,
                format!(
                    "{kind} ids must be dense and ascending; expected {} got {id}",
                    existing.len()
                ),
            ));
        }
        let rest = line
            .splitn(3, char::is_whitespace)
            .nth(2)
            .unwrap_or("")
            .to_string();
        if rest.is_empty() {
            return Err(FormatError::at(line_no, format!("missing {kind} name")));
        }
        Ok(rest)
    }

    /// Completes the header, yielding the tables every later record is
    /// validated against.  Errors if the `TRACE` line was never seen.
    pub fn finish(self) -> Result<TraceTables, FormatError> {
        if !self.saw_trace_line {
            return Err(FormatError::structural(
                "unexpected end of input, expected TRACE line",
            ));
        }
        Ok(TraceTables {
            name: self.name,
            declared_ranks: self.ranks,
            regions: RegionTable::from_names(self.region_names),
            contexts: ContextTable::from_names(self.context_names),
        })
    }
}

/// Parses the fields of an `EVENT` line (the cursor is past the keyword)
/// against the tables.
pub(crate) fn event_fields(
    tables: &TraceTables,
    cur: &mut Cursor<'_>,
) -> Result<Event, FormatError> {
    let region = cur.u32("region id")?;
    if (region as usize) >= tables.regions.len() {
        return Err(cur.error(format!("event references unknown region {region}")));
    }
    let start = cur.u64("event start")?;
    let end = cur.u64("event end")?;
    if end < start {
        return Err(cur.error(format!("event end {end} precedes start {start}")));
    }
    let wait = cur.u64("event wait time")?;
    let comm = match cur.token() {
        Some(b"COMPUTE") => CommInfo::Compute,
        Some(b"SEND") => CommInfo::Send {
            peer: Rank(cur.u32("peer rank")?),
            tag: cur.u32("tag")?,
            bytes: cur.u64("byte count")?,
        },
        Some(b"RECV") => CommInfo::Recv {
            peer: Rank(cur.u32("peer rank")?),
            tag: cur.u32("tag")?,
            bytes: cur.u64("byte count")?,
        },
        Some(b"SENDRECV") => CommInfo::SendRecv {
            to: Rank(cur.u32("destination rank")?),
            from: Rank(cur.u32("source rank")?),
            tag: cur.u32("tag")?,
            bytes: cur.u64("byte count")?,
        },
        Some(b"COLLECTIVE") => CommInfo::Collective {
            op: collective_op(cur)?,
            root: Rank(cur.u32("root rank")?),
            comm_size: cur.u32("communicator size")?,
            bytes: cur.u64("byte count")?,
        },
        Some(other) => {
            let other = String::from_utf8_lossy(other);
            return Err(cur.error(format!("unknown event kind {other:?}")));
        }
        None => return Err(cur.error("missing event kind")),
    };
    Ok(Event {
        region: RegionId(region),
        start: Time::from_nanos(start),
        end: Time::from_nanos(end),
        comm,
        wait: Duration::from_nanos(wait),
    })
}

fn collective_op(cur: &mut Cursor<'_>) -> Result<CollectiveOp, FormatError> {
    let Some(name) = cur.token() else {
        return Err(cur.error("missing collective operation name"));
    };
    let known = CollectiveOp::ALL
        .into_iter()
        .find(|op| op.mpi_name().as_bytes() == name);
    known.ok_or_else(|| {
        let name = String::from_utf8_lossy(name);
        cur.error(format!("unknown collective operation {name:?}"))
    })
}

/// Parses the next token as a context id and validates it against the tables.
pub(crate) fn context_ref(
    tables: &TraceTables,
    cur: &mut Cursor<'_>,
) -> Result<ContextId, FormatError> {
    let id = cur.u32("context id")?;
    if (id as usize) >= tables.contexts.len() {
        return Err(cur.error(format!("unknown context id {id}")));
    }
    Ok(ContextId(id))
}

/// One classified line of a full-trace body.
#[derive(Clone, Debug, PartialEq)]
pub enum AppBodyLine {
    /// A `RANK <id>` section opener.
    RankStart(Rank),
    /// A record inside a rank section (marker or event).
    Record(TraceRecord),
    /// The `END_RANK` section closer.
    EndRank,
    /// The `END_TRACE` trailer.
    EndTrace,
}

/// Parses one line of a full-trace body.  `in_rank` selects the records that
/// are valid at this point (and the error message when none applies): inside
/// a rank section only `SEG_BEGIN`/`SEG_END`/`EVENT`/`END_RANK` are allowed,
/// outside only `RANK`/`END_TRACE`.
pub fn parse_app_body_line(
    tables: &TraceTables,
    line_no: usize,
    line: &[u8],
    in_rank: bool,
) -> Result<AppBodyLine, FormatError> {
    let cur = &mut Cursor::new(line_no, line);
    Ok(match (in_rank, cur.token()) {
        (true, Some(b"EVENT")) => {
            AppBodyLine::Record(TraceRecord::Event(event_fields(tables, cur)?))
        }
        (true, Some(marker @ (b"SEG_BEGIN" | b"SEG_END"))) => {
            let context = context_ref(tables, cur)?;
            let time = Time::from_nanos(cur.u64("time stamp")?);
            AppBodyLine::Record(if marker == b"SEG_BEGIN" {
                TraceRecord::SegmentBegin { context, time }
            } else {
                TraceRecord::SegmentEnd { context, time }
            })
        }
        (true, Some(b"END_RANK")) => AppBodyLine::EndRank,
        (false, Some(b"RANK")) => AppBodyLine::RankStart(Rank(cur.u32("rank id")?)),
        (false, Some(b"END_TRACE")) => AppBodyLine::EndTrace,
        (_, other) => return Err(unexpected_record(cur, other, in_rank)),
    })
}

/// The error for a keyword that is not valid in the current section.
#[cold]
pub(crate) fn unexpected_record(
    cur: &Cursor<'_>,
    keyword: Option<&[u8]>,
    in_rank: bool,
) -> FormatError {
    let keyword = keyword.map(String::from_utf8_lossy);
    cur.error(if in_rank {
        format!("unexpected record {keyword:?} inside a rank section")
    } else {
        format!("expected RANK or END_TRACE, found {keyword:?}")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tables() -> TraceTables {
        TraceTables {
            name: "t".into(),
            declared_ranks: 1,
            regions: RegionTable::from_names(vec!["work".into()]),
            contexts: ContextTable::from_names(vec!["main.1".into()]),
        }
    }

    #[test]
    fn header_builder_consumes_tables_and_stops_at_body() {
        let mut b = HeaderBuilder::new();
        assert_eq!(b.expecting(), "TRACE line");
        assert!(b.feed(2, b"TRACE RANKS 3 NAME prog with spaces").unwrap());
        assert_eq!(b.expecting(), "REGION/CONTEXT table or rank data");
        assert!(b.feed(3, b"REGION 0 do work").unwrap());
        assert!(b.feed(4, b"CONTEXT 0 main.1").unwrap());
        assert!(!b.feed(5, b"RANK 0").unwrap(), "body line not consumed");
        let t = b.finish().unwrap();
        assert_eq!(t.name, "prog with spaces");
        assert_eq!(t.declared_ranks, 3);
        assert_eq!(t.regions.names(), ["do work"]);
        assert_eq!(t.contexts.names(), ["main.1"]);
    }

    #[test]
    fn header_builder_rejects_sparse_ids_and_missing_trace_line() {
        let mut b = HeaderBuilder::new();
        assert!(b.feed(1, b"REGION 0 x").is_err());
        let mut b = HeaderBuilder::new();
        b.feed(1, b"TRACE RANKS 0 NAME x").unwrap();
        let err = b.feed(2, b"CONTEXT 1 late").unwrap_err();
        assert!(err.message.contains("dense"), "{err}");
        let err = HeaderBuilder::new().finish().unwrap_err();
        assert_eq!(err.line, 0);
    }

    #[test]
    fn body_lines_are_classified_by_section_state() {
        let t = tables();
        assert_eq!(
            parse_app_body_line(&t, 1, b"RANK 2", false).unwrap(),
            AppBodyLine::RankStart(Rank(2))
        );
        assert_eq!(
            parse_app_body_line(&t, 1, b"END_TRACE", false).unwrap(),
            AppBodyLine::EndTrace
        );
        assert!(matches!(
            parse_app_body_line(&t, 1, b"SEG_BEGIN 0 5", true).unwrap(),
            AppBodyLine::Record(TraceRecord::SegmentBegin { .. })
        ));
        assert_eq!(
            parse_app_body_line(&t, 1, b"END_RANK", true).unwrap(),
            AppBodyLine::EndRank
        );
        // Section-state violations are errors with the section's message.
        let err = parse_app_body_line(&t, 9, b"SEG_BEGIN 0 5", false).unwrap_err();
        assert!(err.message.contains("expected RANK or END_TRACE"), "{err}");
        let err = parse_app_body_line(&t, 9, b"RANK 1", true).unwrap_err();
        assert!(err.message.contains("inside a rank section"), "{err}");
    }

    fn event(line: &str) -> Result<Event, FormatError> {
        match parse_app_body_line(&tables(), 1, line.as_bytes(), true)? {
            AppBodyLine::Record(TraceRecord::Event(event)) => Ok(event),
            other => panic!("{line:?} parsed to {other:?}"),
        }
    }

    #[test]
    fn event_lines_validate_region_references() {
        let ev = event("EVENT 0 5 10 2 COMPUTE").unwrap();
        assert_eq!(ev.start.as_nanos(), 5);
        let err = event("EVENT 7 5 10 2 COMPUTE").unwrap_err();
        assert!(err.message.contains("unknown region"), "{err}");
    }

    #[test]
    fn lines_are_trimmed_and_comments_skipped() {
        assert_eq!(
            meaningful_line(b" \t\x0B\x0C RANK 0 \r"),
            Some(&b"RANK 0"[..])
        );
        assert_eq!(meaningful_line(b""), None);
        assert_eq!(meaningful_line(b" \r"), None);
        assert_eq!(meaningful_line(b"  # note"), None);
        // Unicode blanks at the ends are trimmed like `str::trim` does, also
        // in front of a comment; other non-ASCII characters stay.
        let nbsp = "\u{a0}\u{2003}".as_bytes();
        assert_eq!(
            meaningful_line(&[nbsp, b"RANK 0 ", nbsp].concat()),
            Some(&b"RANK 0"[..])
        );
        assert_eq!(meaningful_line(&[nbsp, b"# note"].concat()), None);
        assert_eq!(meaningful_line("é".as_bytes()), Some("é".as_bytes()));
    }

    #[test]
    fn a_plain_record_line_is_its_own_meaningful_line_and_no_boundary() {
        let plain: [&[u8]; 4] = [
            b"EVENT 0 5 10 2 COMPUTE",
            b"SEG_BEGIN 0 0",
            b"SEG_END 0 100",
            b"EVENT x",
        ];
        for raw in plain {
            assert!(plain_record_line(raw), "{raw:?}");
        }
        let other: [&[u8]; 14] = [
            b"",
            b" EVENT 0 5 10 2 COMPUTE",
            b"\tSEG_BEGIN 0 0",
            b"EVENT 0 5 10 2 COMPUTE\r",
            b"SEG_END 0 100 ",
            b"EVENT 0 \xC3\xA9",
            b"EVEN 0",
            b"SEG 0",
            b"# EVENT",
            b"RANK 0",
            b"END_RANK",
            b"END_TRACE",
            b"TRACE RANKS 1 NAME x",
            b"REGION 0 r",
        ];
        for raw in other {
            assert!(!plain_record_line(raw), "{raw:?}");
        }
        // The predicate implies the line rule keeps the line whole, and no
        // structure keyword starts it.
        let keywords: [&[u8]; 7] = [
            b"RANK",
            b"END_RANK",
            b"END_TRACE",
            b"TRACE",
            b"REGION",
            b"CONTEXT",
            b"#",
        ];
        for keyword in keywords {
            assert!(!plain_record_line(&[keyword, b" 0"].concat()));
        }
        for raw in plain.iter().chain(&other) {
            if plain_record_line(raw) {
                assert_eq!(meaningful_line(raw), Some(*raw));
                assert!(keywords.iter().all(|k| !raw.starts_with(k)), "{raw:?}");
            }
        }
    }

    #[test]
    fn numbers_off_the_inline_path_parse_as_str_parse_does() {
        let start = |line: &str| event(line).map(|ev| ev.start.as_nanos());
        assert_eq!(start("EVENT 0 +5 10 2 COMPUTE"), Ok(5));
        assert_eq!(start("EVENT 0 0000000000000000000005 10 2 COMPUTE"), Ok(5));
        let max = u64::MAX;
        assert_eq!(start(&format!("EVENT 0 {max} {max} 2 COMPUTE")), Ok(max));
        for (bad, message) in [
            (
                "18446744073709551616",
                "invalid event start: \"18446744073709551616\"",
            ),
            ("-5", "invalid event start: \"-5\""),
            ("5x", "invalid event start: \"5x\""),
            ("5é", "invalid event start: \"5é\""),
            ("", "missing event start"),
        ] {
            let err = start(&format!("EVENT 0 {bad}")).unwrap_err();
            assert_eq!((err.line, err.message.as_str()), (1, message));
        }
    }

    #[test]
    fn unicode_blanks_separate_tokens() {
        let spaced = "EVENT\u{a0}0\u{2003}5 10\u{a0}\u{a0}2 SEND\u{3000}1 2 3";
        assert_eq!(event(spaced), event("EVENT 0 5 10 2 SEND 1 2 3"));
        assert!(event(spaced).is_ok());
        // A non-ASCII character that is not a blank belongs to its token.
        let err = event("EVENT 0 5 10 2 COMPUTÉ").unwrap_err();
        assert_eq!(err.message, "unknown event kind \"COMPUTÉ\"");
        let err = parse_app_body_line(&tables(), 3, "ÉVENT 0".as_bytes(), true).unwrap_err();
        assert_eq!(
            err.message,
            "unexpected record Some(\"ÉVENT\") inside a rank section"
        );
        // Bytes that are not text (the parsers never pass any) end the line.
        let err = parse_app_body_line(&tables(), 3, b"EVENT \xff0 5", true).unwrap_err();
        assert_eq!(err.message, "missing region id");
    }

    /// Ids used to be `parse_u64(..)? as u32`: 2^32 aliased 0 and passed the
    /// table checks.  Every `u32` field kind now rejects what does not fit.
    #[test]
    fn u32_fields_reject_values_beyond_u32() {
        let t = tables();
        let over = u64::from(u32::MAX) + 1;
        let body = |line: String, in_rank| parse_app_body_line(&t, 4, line.as_bytes(), in_rank);
        for (line, in_rank, what) in [
            (format!("EVENT {over} 5 10 2 COMPUTE"), true, "region id"),
            (format!("SEG_BEGIN {over} 5"), true, "context id"),
            (format!("SEG_END {over} 5"), true, "context id"),
            (format!("RANK {over}"), false, "rank id"),
            (format!("EVENT 0 5 10 2 SEND {over} 2 3"), true, "peer rank"),
            (format!("EVENT 0 5 10 2 RECV 1 {over} 3"), true, "tag"),
            (
                format!("EVENT 0 5 10 2 SENDRECV {over} 1 2 3"),
                true,
                "destination rank",
            ),
            (
                format!("EVENT 0 5 10 2 SENDRECV 1 {over} 2 3"),
                true,
                "source rank",
            ),
            (
                format!("EVENT 0 5 10 2 COLLECTIVE MPI_Bcast {over} 8 64"),
                true,
                "root rank",
            ),
            (
                format!("EVENT 0 5 10 2 COLLECTIVE MPI_Bcast 0 {over} 64"),
                true,
                "communicator size",
            ),
        ] {
            let err = body(line.clone(), in_rank).unwrap_err();
            assert_eq!(
                (err.line, err.message),
                (4, format!("invalid {what}: \"{over}\"")),
                "{line}"
            );
            let fits = line.replace(&over.to_string(), "0");
            assert!(body(fits, in_rank).is_ok(), "{line}");
        }
        assert!(body(format!("RANK {}", u32::MAX), false).is_ok());
    }
}
