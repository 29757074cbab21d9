//! Parsers for the text trace format.
//!
//! These parsers materialize a whole trace from an in-memory `&str`.  The
//! line-level record parsing is shared with the streaming path (the
//! `trace_stream` crate) via [`crate::record`], so both parsers accept
//! exactly the same language.

use trace_model::{
    AppTrace, Rank, RankTrace, ReducedAppTrace, ReducedRankTrace, Segment, SegmentExec,
    StoredSegment, Time, MAX_RESERVED_RANKS,
};

use crate::error::FormatError;
use crate::record::{
    context_ref, event_fields, meaningful_line, parse_app_body_line, unexpected_record,
    AppBodyLine, Cursor, HeaderBuilder, TraceTables,
};
use crate::write::{APP_HEADER, REDUCED_HEADER};

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

    fn next(&mut self) -> Option<(usize, &'a [u8])> {
        for (index, line) in self.inner.by_ref() {
            if let Some(trimmed) = meaningful_line(line.as_bytes()) {
                return Some((index + 1, trimmed));
            }
        }
        None
    }

    fn require(&mut self, what: &str) -> Result<(usize, &'a [u8]), FormatError> {
        self.next().ok_or_else(|| {
            FormatError::structural(format!("unexpected end of input, expected {what}"))
        })
    }
}

/// Checks the magic first line of a trace file.
fn expect_magic(lines: &mut Lines<'_>, magic: &str) -> Result<(), FormatError> {
    let (line_no, first) = lines.require("header")?;
    if first != magic.as_bytes() {
        let first = String::from_utf8_lossy(first);
        return Err(FormatError::at(
            line_no,
            format!("expected header {magic:?}, found {first:?}"),
        ));
    }
    Ok(())
}

/// Parses the shared header, returning the tables plus the first body line
/// (already consumed from the iterator) for the caller to process.
fn parse_header<'a>(
    lines: &mut Lines<'a>,
) -> Result<(TraceTables, (usize, &'a [u8])), FormatError> {
    let mut builder = HeaderBuilder::new();
    loop {
        let (line_no, line) = lines.require(builder.expecting())?;
        if !builder.feed(line_no, line)? {
            return Ok((builder.finish()?, (line_no, line)));
        }
    }
}

/// Parses the text form of a full application trace.
pub fn parse_app_trace(text: &str) -> Result<AppTrace, FormatError> {
    let mut lines = Lines::new(text);
    expect_magic(&mut lines, APP_HEADER)?;
    let (tables, first_body_line) = parse_header(&mut lines)?;
    let mut pending = Some(first_body_line);
    let mut app = AppTrace {
        name: tables.name.clone(),
        regions: tables.regions.clone(),
        contexts: tables.contexts.clone(),
        ranks: Vec::with_capacity(tables.declared_ranks.min(MAX_RESERVED_RANKS)),
    };

    let mut open_rank: Option<RankTrace> = None;
    loop {
        let (line_no, line) = match pending.take() {
            Some(first) => first,
            None => lines.require(if open_rank.is_some() {
                "rank records or END_RANK"
            } else {
                "RANK or END_TRACE"
            })?,
        };
        // `parse_app_body_line` only yields records and END_RANK when told a
        // rank section is open, so these arms report a parser bug as a
        // structural error instead of trusting the invariant with a panic.
        match parse_app_body_line(&tables, line_no, line, open_rank.is_some())? {
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

/// `STORED … <n>` announces `n` EVENT lines; no more than this many slots
/// are reserved on the header's word alone.
const MAX_RESERVED_EVENTS: usize = 4096;

/// Parses the text form of a reduced application trace.
pub fn parse_reduced_trace(text: &str) -> Result<ReducedAppTrace, FormatError> {
    let mut lines = Lines::new(text);
    expect_magic(&mut lines, REDUCED_HEADER)?;
    let (tables, first_body_line) = parse_header(&mut lines)?;
    let mut pending = Some(first_body_line);
    let mut reduced = ReducedAppTrace {
        name: tables.name.clone(),
        regions: tables.regions.clone(),
        contexts: tables.contexts.clone(),
        ranks: Vec::with_capacity(tables.declared_ranks.min(MAX_RESERVED_RANKS)),
    };

    loop {
        let (line_no, line) = match pending.take() {
            Some(first) => first,
            None => lines.require("RANK or END_TRACE")?,
        };
        let rank_id = match parse_app_body_line(&tables, line_no, line, false)? {
            AppBodyLine::RankStart(rank_id) => rank_id,
            _ => break,
        };
        reduced
            .ranks
            .push(parse_reduced_rank(&tables, &mut lines, rank_id)?);
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

/// Parses the records of one rank section of a reduced trace, up to and
/// including its `END_RANK`.
fn parse_reduced_rank(
    tables: &TraceTables,
    lines: &mut Lines<'_>,
    rank_id: Rank,
) -> Result<ReducedRankTrace, FormatError> {
    let mut rank = ReducedRankTrace::new(rank_id);
    loop {
        let (line_no, line) = lines.require("STORED/EXEC records or END_RANK")?;
        let cur = &mut Cursor::new(line_no, line);
        match cur.token() {
            Some(b"END_RANK") => return Ok(rank),
            Some(b"STORED") => {
                let id = cur.u32("stored segment id")?;
                if id as usize != rank.stored.len() {
                    let expected = rank.stored.len();
                    let message = format!("stored ids must be dense; expected {expected} got {id}");
                    return Err(cur.error(message));
                }
                let represented = cur.u32("represented count")?;
                let context = context_ref(tables, cur)?;
                let end = cur.u64("segment end")?;
                let n_events = cur.u64("event count")? as usize;
                let mut events = Vec::with_capacity(n_events.min(MAX_RESERVED_EVENTS));
                for _ in 0..n_events {
                    let (line_no, line) = lines.require("EVENT line")?;
                    let cur = &mut Cursor::new(line_no, line);
                    if !cur.token().is_some_and(|t| t.starts_with(b"EVENT")) {
                        return Err(cur.error("expected EVENT line inside a STORED segment"));
                    }
                    events.push(event_fields(tables, cur)?);
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
            Some(b"EXEC") => {
                let segment = cur.u32("stored segment id")?;
                if segment as usize >= rank.stored.len() {
                    let message = format!("execution references unknown stored segment {segment}");
                    return Err(cur.error(message));
                }
                let start = cur.u64("execution start")?;
                rank.execs.push(SegmentExec {
                    segment,
                    start: Time::from_nanos(start),
                });
            }
            other => return Err(unexpected_record(cur, other, true)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::write::{write_app_trace, write_reduced_trace};
    use trace_reduce::{Method, Reducer};
    use trace_sim::{SizePreset, Workload, WorkloadKind};

    #[test]
    fn app_trace_round_trips_exactly() {
        for kind in [
            WorkloadKind::LateSender,
            WorkloadKind::ImbalanceAtMpiBarrier,
            WorkloadKind::Sweep3d8p,
        ] {
            let app = Workload::new(kind, SizePreset::Tiny).generate();
            let text = write_app_trace(&app);
            let parsed = parse_app_trace(&text).expect("round trip must parse");
            assert_eq!(parsed, app, "{kind:?}");
        }
    }

    #[test]
    fn reduced_trace_round_trips_exactly() {
        let app = Workload::new(WorkloadKind::EarlyGather, SizePreset::Tiny).generate();
        for method in [Method::AvgWave, Method::IterK, Method::RelDiff] {
            let reduced = Reducer::with_default_threshold(method).reduce_app(&app);
            let text = write_reduced_trace(&reduced);
            let parsed = parse_reduced_trace(&text).expect("round trip must parse");
            assert_eq!(parsed, reduced, "{method}");
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let text = write_app_trace(&app);
        let commented: String = text
            .lines()
            .flat_map(|l| [l, "", "# a comment"])
            .collect::<Vec<_>>()
            .join("\n");
        let parsed = parse_app_trace(&commented).expect("comments are ignored");
        assert_eq!(parsed, app);
    }

    #[test]
    fn wrong_header_is_rejected_with_line_number() {
        let err = parse_app_trace("BOGUS 9\n").unwrap_err();
        assert_eq!(err.line, 1);
        let err = parse_reduced_trace("TRACEFORMAT 1\n").unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn truncated_input_reports_a_structural_error() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let text = write_app_trace(&app);
        let truncated: String = text.lines().take(10).collect::<Vec<_>>().join("\n");
        let err = parse_app_trace(&truncated).unwrap_err();
        assert_eq!(err.line, 0, "end-of-input errors are structural: {err}");
    }

    #[test]
    fn malformed_records_are_rejected_with_their_line() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let text = write_app_trace(&app);

        // Corrupt the first EVENT line's region id into a huge number.
        let corrupted: Vec<String> = text
            .lines()
            .map(|l| {
                if l.starts_with("EVENT") {
                    let mut parts: Vec<&str> = l.split_whitespace().collect();
                    parts[1] = "9999";
                    parts.join(" ")
                } else {
                    l.to_string()
                }
            })
            .collect();
        let err = parse_app_trace(&corrupted.join("\n")).unwrap_err();
        assert!(err.line > 0);
        assert!(err.message.contains("unknown region"), "{err}");
    }

    #[test]
    fn inverted_event_times_are_rejected() {
        let text = "\
TRACEFORMAT 1
TRACE RANKS 1 NAME bad
REGION 0 do_work
CONTEXT 0 main.1
RANK 0
SEG_BEGIN 0 0
EVENT 0 50 10 0 COMPUTE
SEG_END 0 60
END_RANK
END_TRACE
";
        let err = parse_app_trace(text).unwrap_err();
        assert_eq!(err.line, 7);
        assert!(err.message.contains("precedes"), "{err}");
    }

    #[test]
    fn unknown_collective_and_event_kind_are_rejected() {
        let base = "\
TRACEFORMAT 1
TRACE RANKS 1 NAME bad
REGION 0 MPI_Bcast
CONTEXT 0 main.1
RANK 0
EVENT 0 0 10 0 COLLECTIVE MPI_Bogus 0 8 64
END_RANK
END_TRACE
";
        let err = parse_app_trace(base).unwrap_err();
        assert!(err.message.contains("unknown collective"), "{err}");

        let bad_kind = base.replace("COLLECTIVE MPI_Bogus 0 8 64", "TELEPORT 1 2 3");
        let err = parse_app_trace(&bad_kind).unwrap_err();
        assert!(err.message.contains("unknown event kind"), "{err}");
    }

    #[test]
    fn rank_count_mismatch_is_detected() {
        let text = "\
TRACEFORMAT 1
TRACE RANKS 2 NAME short
REGION 0 do_work
CONTEXT 0 main.1
RANK 0
END_RANK
END_TRACE
";
        let err = parse_app_trace(text).unwrap_err();
        assert!(err.message.contains("rank sections"), "{err}");
    }

    #[test]
    fn exec_referencing_unknown_stored_segment_is_rejected() {
        let text = "\
TRACEFORMAT_REDUCED 1
TRACE RANKS 1 NAME bad
REGION 0 do_work
CONTEXT 0 main.1
RANK 0
EXEC 3 100
END_RANK
END_TRACE
";
        let err = parse_reduced_trace(text).unwrap_err();
        assert!(err.message.contains("unknown stored segment"), "{err}");
    }

    #[test]
    fn reduced_ids_beyond_u32_and_absurd_event_counts_are_rejected() {
        let reduced = |records: &str| {
            parse_reduced_trace(&format!(
                "TRACEFORMAT_REDUCED 1\nTRACE RANKS 1 NAME bad\nREGION 0 do_work\n\
                 CONTEXT 0 main.1\n{records}END_RANK\nEND_TRACE\n"
            ))
        };
        let over = u64::from(u32::MAX) + 1;
        for (records, line, what) in [
            (format!("RANK {over}\n"), 5, "rank id"),
            (
                format!("RANK 0\nSTORED {over} 1 0 5 0\n"),
                6,
                "stored segment id",
            ),
            (
                format!("RANK 0\nSTORED 0 {over} 0 5 0\n"),
                6,
                "represented count",
            ),
            (format!("RANK 0\nSTORED 0 1 {over} 5 0\n"), 6, "context id"),
            (
                format!("RANK 0\nSTORED 0 1 0 5 0\nEXEC {over} 9\n"),
                7,
                "stored segment id",
            ),
        ] {
            let err = reduced(&records).unwrap_err();
            assert_eq!(
                (err.line, err.message),
                (line, format!("invalid {what}: \"{over}\"")),
                "{records}"
            );
            assert!(reduced(&records.replace(&over.to_string(), "0")).is_ok());
        }
        // The announced event count is not trusted with an allocation.
        let err = reduced(&format!("RANK 0\nSTORED 0 1 0 5 {}\n", u64::MAX)).unwrap_err();
        assert_eq!(err.message, "expected EVENT line inside a STORED segment");
    }

    #[test]
    fn a_header_declaring_2_to_the_60_ranks_is_a_typed_error_not_an_allocation() {
        // Three lines are a complete (empty) trace; only the count lies.
        let body = format!("TRACE RANKS {} NAME crafted\nEND_TRACE\n", 1u64 << 60);
        let expected = "header declares 1152921504606846976 ranks but 0 rank sections were found";
        let err = parse_app_trace(&format!("TRACEFORMAT 1\n{body}")).unwrap_err();
        assert_eq!(err.message, expected);
        let err = parse_reduced_trace(&format!("TRACEFORMAT_REDUCED 1\n{body}")).unwrap_err();
        assert_eq!(err.message, expected);
    }

    #[test]
    fn region_ids_must_be_dense() {
        let text = "\
TRACEFORMAT 1
TRACE RANKS 0 NAME sparse
REGION 0 a
REGION 2 b
END_TRACE
";
        let err = parse_app_trace(text).unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.message.contains("dense"), "{err}");
    }
}
