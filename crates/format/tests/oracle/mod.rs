//! The text grammar as it was before the byte-level one: `split_whitespace`
//! tokens, `str::parse` numbers, `str::trim` lines, one `String` per body
//! line.  Kept verbatim as the reference `grammar_equivalence.rs` holds the
//! new grammar to; nothing outside the tests uses it.  Changed: `crate::`
//! paths; `.as_bytes()` for the shared `HeaderBuilder`; the `debug_assert!` on the EVENT keyword (a mutated `EVENTx` line
//! must not panic the reference in debug builds); the event list no longer
//! reserves the count a `STORED` line announces (a mutated count must not
//! abort the reference).
#![allow(dead_code)]

use trace_format::write::{APP_HEADER, REDUCED_HEADER};
use trace_format::{AppBodyLine, FormatError, HeaderBuilder, TraceTables};
use trace_model::{
    AppTrace, CollectiveOp, CommInfo, ContextId, Duration, Event, Rank, RankTrace, ReducedAppTrace,
    ReducedRankTrace, RegionId, Segment, SegmentExec, StoredSegment, Time, TraceRecord,
};

/// Classifies one raw input line: `Some(trimmed)` if it carries a record,
/// `None` if the line is skipped (blank or `#` comment).  Both the
/// in-memory parser and the streaming parser route every line through this
/// single rule, so the two accept exactly the same language at the line
/// level too.
pub fn meaningful_line(raw: &str) -> Option<&str> {
    let trimmed = raw.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        None
    } else {
        Some(trimmed)
    }
}

/// Parses a whitespace token as `u64`, reporting `what` on failure.
pub fn parse_u64(line: usize, token: Option<&str>, what: &str) -> Result<u64, FormatError> {
    let token = token.ok_or_else(|| FormatError::at(line, format!("missing {what}")))?;
    token
        .parse::<u64>()
        .map_err(|_| FormatError::at(line, format!("invalid {what}: {token:?}")))
}

/// Parses a whitespace token as `u32`, reporting `what` on failure.
pub fn parse_u32(line: usize, token: Option<&str>, what: &str) -> Result<u32, FormatError> {
    Ok(parse_u64(line, token, what)? as u32)
}

fn collective_op(line: usize, name: &str) -> Result<CollectiveOp, FormatError> {
    CollectiveOp::ALL
        .into_iter()
        .find(|op| op.mpi_name() == name)
        .ok_or_else(|| FormatError::at(line, format!("unknown collective operation {name:?}")))
}

/// Parses one `EVENT …` line against the tables.
pub fn parse_event_line(
    tables: &TraceTables,
    line_no: usize,
    line: &str,
) -> Result<Event, FormatError> {
    let mut tokens = line.split_whitespace();
    let keyword = tokens.next();
    let _ = keyword;
    let region = parse_u32(line_no, tokens.next(), "region id")?;
    if (region as usize) >= tables.regions.len() {
        return Err(FormatError::at(
            line_no,
            format!("event references unknown region {region}"),
        ));
    }
    let start = parse_u64(line_no, tokens.next(), "event start")?;
    let end = parse_u64(line_no, tokens.next(), "event end")?;
    if end < start {
        return Err(FormatError::at(
            line_no,
            format!("event end {end} precedes start {start}"),
        ));
    }
    let wait = parse_u64(line_no, tokens.next(), "event wait time")?;
    let kind = tokens
        .next()
        .ok_or_else(|| FormatError::at(line_no, "missing event kind"))?;
    let comm = match kind {
        "COMPUTE" => CommInfo::Compute,
        "SEND" => CommInfo::Send {
            peer: Rank(parse_u32(line_no, tokens.next(), "peer rank")?),
            tag: parse_u32(line_no, tokens.next(), "tag")?,
            bytes: parse_u64(line_no, tokens.next(), "byte count")?,
        },
        "RECV" => CommInfo::Recv {
            peer: Rank(parse_u32(line_no, tokens.next(), "peer rank")?),
            tag: parse_u32(line_no, tokens.next(), "tag")?,
            bytes: parse_u64(line_no, tokens.next(), "byte count")?,
        },
        "SENDRECV" => CommInfo::SendRecv {
            to: Rank(parse_u32(line_no, tokens.next(), "destination rank")?),
            from: Rank(parse_u32(line_no, tokens.next(), "source rank")?),
            tag: parse_u32(line_no, tokens.next(), "tag")?,
            bytes: parse_u64(line_no, tokens.next(), "byte count")?,
        },
        "COLLECTIVE" => {
            let op_name = tokens
                .next()
                .ok_or_else(|| FormatError::at(line_no, "missing collective operation name"))?;
            CommInfo::Collective {
                op: collective_op(line_no, op_name)?,
                root: Rank(parse_u32(line_no, tokens.next(), "root rank")?),
                comm_size: parse_u32(line_no, tokens.next(), "communicator size")?,
                bytes: parse_u64(line_no, tokens.next(), "byte count")?,
            }
        }
        other => {
            return Err(FormatError::at(
                line_no,
                format!("unknown event kind {other:?}"),
            ));
        }
    };
    Ok(Event {
        region: RegionId(region),
        start: Time::from_nanos(start),
        end: Time::from_nanos(end),
        comm,
        wait: Duration::from_nanos(wait),
    })
}

/// Validates a context-id token against the tables.
pub fn parse_context_ref(
    tables: &TraceTables,
    line_no: usize,
    token: Option<&str>,
) -> Result<ContextId, FormatError> {
    let id = parse_u32(line_no, token, "context id")?;
    if (id as usize) >= tables.contexts.len() {
        return Err(FormatError::at(line_no, format!("unknown context id {id}")));
    }
    Ok(ContextId(id))
}

/// Parses one line of a full-trace body.  `in_rank` selects the records that
/// are valid at this point (and the error message when none applies): inside
/// a rank section only `SEG_BEGIN`/`SEG_END`/`EVENT`/`END_RANK` are allowed,
/// outside only `RANK`/`END_TRACE`.
pub fn parse_app_body_line(
    tables: &TraceTables,
    line_no: usize,
    line: &str,
    in_rank: bool,
) -> Result<AppBodyLine, FormatError> {
    let mut tokens = line.split_whitespace();
    let keyword = tokens.next();
    if in_rank {
        match keyword {
            Some("END_RANK") => Ok(AppBodyLine::EndRank),
            Some("SEG_BEGIN") => {
                let context = parse_context_ref(tables, line_no, tokens.next())?;
                let time = parse_u64(line_no, tokens.next(), "time stamp")?;
                Ok(AppBodyLine::Record(TraceRecord::SegmentBegin {
                    context,
                    time: Time::from_nanos(time),
                }))
            }
            Some("SEG_END") => {
                let context = parse_context_ref(tables, line_no, tokens.next())?;
                let time = parse_u64(line_no, tokens.next(), "time stamp")?;
                Ok(AppBodyLine::Record(TraceRecord::SegmentEnd {
                    context,
                    time: Time::from_nanos(time),
                }))
            }
            Some("EVENT") => Ok(AppBodyLine::Record(TraceRecord::Event(parse_event_line(
                tables, line_no, line,
            )?))),
            other => Err(FormatError::at(
                line_no,
                format!("unexpected record {other:?} inside a rank section"),
            )),
        }
    } else {
        match keyword {
            Some("END_TRACE") => Ok(AppBodyLine::EndTrace),
            Some("RANK") => {
                let rank_id = parse_u32(line_no, tokens.next(), "rank id")?;
                Ok(AppBodyLine::RankStart(Rank(rank_id)))
            }
            other => Err(FormatError::at(
                line_no,
                format!("expected RANK or END_TRACE, found {other:?}"),
            )),
        }
    }
}

/// A line with its 1-based number, with blank and comment lines skipped.
struct Lines<'a> {
    inner: std::iter::Enumerate<std::str::Lines<'a>>,
}

impl<'a> Lines<'a> {
    fn new(text: &'a str) -> Self {
        Lines {
            inner: text.lines().enumerate(),
        }
    }

    fn next(&mut self) -> Option<(usize, &'a str)> {
        for (index, line) in self.inner.by_ref() {
            if let Some(trimmed) = meaningful_line(line) {
                return Some((index + 1, trimmed));
            }
        }
        None
    }

    fn require(&mut self, what: &str) -> Result<(usize, &'a str), FormatError> {
        self.next().ok_or_else(|| {
            FormatError::structural(format!("unexpected end of input, expected {what}"))
        })
    }
}

/// Checks the magic first line of a trace file.
fn expect_magic(lines: &mut Lines<'_>, magic: &str) -> Result<(), FormatError> {
    let (line_no, first) = lines.require("header")?;
    if first != magic {
        return Err(FormatError::at(
            line_no,
            format!("expected header {magic:?}, found {first:?}"),
        ));
    }
    Ok(())
}

/// Parses the shared header, returning the tables plus the first body line
/// (already consumed from the iterator) for the caller to process.
fn parse_header(
    lines: &mut Lines<'_>,
) -> Result<(TraceTables, Option<(usize, String)>), FormatError> {
    let mut builder = HeaderBuilder::new();
    loop {
        let (line_no, line) = lines.require(builder.expecting())?;
        if !builder.feed(line_no, line.as_bytes())? {
            return Ok((builder.finish()?, Some((line_no, line.to_string()))));
        }
    }
}

/// Parses the text form of a full application trace.
pub fn parse_app_trace(text: &str) -> Result<AppTrace, FormatError> {
    let mut lines = Lines::new(text);
    expect_magic(&mut lines, APP_HEADER)?;
    let (tables, mut pending) = parse_header(&mut lines)?;
    let mut app = AppTrace {
        name: tables.name.clone(),
        regions: tables.regions.clone(),
        contexts: tables.contexts.clone(),
        ranks: Vec::with_capacity(tables.declared_ranks),
    };

    let mut open_rank: Option<RankTrace> = None;
    loop {
        let (line_no, line) = match pending.take() {
            Some((n, l)) => (n, l),
            None => {
                let what = if open_rank.is_some() {
                    "rank records or END_RANK"
                } else {
                    "RANK or END_TRACE"
                };
                let (n, l) = lines.require(what)?;
                (n, l.to_string())
            }
        };
        // `parse_app_body_line` only yields records and END_RANK when told a
        // rank section is open, so these arms report a parser bug as a
        // structural error instead of trusting the invariant with a panic.
        match parse_app_body_line(&tables, line_no, &line, open_rank.is_some())? {
            AppBodyLine::RankStart(rank) => open_rank = Some(RankTrace::new(rank)),
            AppBodyLine::Record(record) => match open_rank.as_mut() {
                Some(rank) => rank.push(record),
                None => {
                    return Err(FormatError::at(line_no, "record outside a rank section"));
                }
            },
            AppBodyLine::EndRank => match open_rank.take() {
                Some(rank) => app.ranks.push(rank),
                None => {
                    return Err(FormatError::at(line_no, "END_RANK outside a rank section"));
                }
            },
            AppBodyLine::EndTrace => break,
        }
    }

    if app.ranks.len() != tables.declared_ranks {
        return Err(FormatError::structural(format!(
            "header declares {} ranks but {} rank sections were found",
            tables.declared_ranks,
            app.ranks.len()
        )));
    }
    Ok(app)
}

/// Parses the text form of a reduced application trace.
pub fn parse_reduced_trace(text: &str) -> Result<ReducedAppTrace, FormatError> {
    let mut lines = Lines::new(text);
    expect_magic(&mut lines, REDUCED_HEADER)?;
    let (tables, mut pending) = parse_header(&mut lines)?;
    let mut reduced = ReducedAppTrace {
        name: tables.name.clone(),
        regions: tables.regions.clone(),
        contexts: tables.contexts.clone(),
        ranks: Vec::with_capacity(tables.declared_ranks),
    };

    loop {
        let (line_no, line) = match pending.take() {
            Some((n, l)) => (n, l),
            None => {
                let (n, l) = lines.require("RANK or END_TRACE")?;
                (n, l.to_string())
            }
        };
        let mut tokens = line.split_whitespace();
        match tokens.next() {
            Some("END_TRACE") => break,
            Some("RANK") => {
                let rank_id = parse_u32(line_no, tokens.next(), "rank id")?;
                let mut rank = ReducedRankTrace::new(trace_model::Rank(rank_id));
                loop {
                    let (line_no, line) = lines.require("STORED/EXEC records or END_RANK")?;
                    let mut tokens = line.split_whitespace();
                    match tokens.next() {
                        Some("END_RANK") => break,
                        Some("STORED") => {
                            let id = parse_u32(line_no, tokens.next(), "stored segment id")?;
                            if id as usize != rank.stored.len() {
                                return Err(FormatError::at(
                                    line_no,
                                    format!(
                                        "stored ids must be dense; expected {} got {id}",
                                        rank.stored.len()
                                    ),
                                ));
                            }
                            let represented =
                                parse_u32(line_no, tokens.next(), "represented count")?;
                            let context = parse_context_ref(&tables, line_no, tokens.next())?;
                            let end = parse_u64(line_no, tokens.next(), "segment end")?;
                            let n_events =
                                parse_u64(line_no, tokens.next(), "event count")? as usize;
                            let mut events = Vec::new();
                            for _ in 0..n_events {
                                let (event_line_no, event_line) = lines.require("EVENT line")?;
                                if !event_line.starts_with("EVENT") {
                                    return Err(FormatError::at(
                                        event_line_no,
                                        "expected EVENT line inside a STORED segment",
                                    ));
                                }
                                events.push(parse_event_line(&tables, event_line_no, event_line)?);
                            }
                            rank.stored.push(StoredSegment {
                                id,
                                segment: Segment {
                                    context,
                                    start: Time::ZERO,
                                    end: Time::from_nanos(end),
                                    events,
                                },
                                represented,
                            });
                        }
                        Some("EXEC") => {
                            let segment = parse_u32(line_no, tokens.next(), "stored segment id")?;
                            if segment as usize >= rank.stored.len() {
                                return Err(FormatError::at(
                                    line_no,
                                    format!(
                                        "execution references unknown stored segment {segment}"
                                    ),
                                ));
                            }
                            let start = parse_u64(line_no, tokens.next(), "execution start")?;
                            rank.execs.push(SegmentExec {
                                segment,
                                start: Time::from_nanos(start),
                            });
                        }
                        other => {
                            return Err(FormatError::at(
                                line_no,
                                format!("unexpected record {other:?} inside a rank section"),
                            ));
                        }
                    }
                }
                reduced.ranks.push(rank);
            }
            other => {
                return Err(FormatError::at(
                    line_no,
                    format!("expected RANK or END_TRACE, found {other:?}"),
                ));
            }
        }
    }

    if reduced.ranks.len() != tables.declared_ranks {
        return Err(FormatError::structural(format!(
            "header declares {} ranks but {} rank sections were found",
            tables.declared_ranks,
            reduced.ranks.len()
        )));
    }
    Ok(reduced)
}
