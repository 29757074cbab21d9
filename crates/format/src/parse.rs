//! Whole-trace parsers for the text format.
//!
//! Each is a collect over its [`crate::parser`] pull reader, fed from an
//! in-memory `&str` or, through [`read_app_trace`] / [`read_reduced_trace`],
//! from any [`BufRead`] source: a trace read whole and one read a rank
//! section at a time go through the same code and accept the same language.

use std::io::{self, BufRead};

use trace_model::{AppTrace, ReducedAppTrace};

use crate::error::FormatError;
use crate::parser::{AppReader, ReadError, ReducedReader};

/// Reads a whole full trace from `reader`.
pub fn read_app_trace<R: BufRead, E: ReadError>(reader: R) -> Result<AppTrace, E> {
    let mut reader = AppReader::<R, E>::new(reader)?;
    let mut app = reader.tables().app_trace();
    while let Some(item) = reader.next_item()? {
        app.push_item(item, reader.take_records());
    }
    Ok(app)
}

/// Reads a whole reduced trace from `reader`.
pub fn read_reduced_trace<R: BufRead, E: ReadError>(reader: R) -> Result<ReducedAppTrace, E> {
    let mut reader = ReducedReader::<R, E>::new(reader)?;
    let mut reduced = reader.tables().reduced_trace();
    while let Some(rank) = reader.next_rank()? {
        reduced.ranks.push(rank);
    }
    Ok(reduced)
}

/// The error of a read from memory.  A `&[u8]` never fails to read, and a
/// `&str` is UTF-8, so only the text can be wrong; an I/O error still has
/// a typed form here rather than a panic.
struct InMemory(FormatError);

impl From<FormatError> for InMemory {
    fn from(e: FormatError) -> Self {
        InMemory(e)
    }
}

impl From<io::Error> for InMemory {
    fn from(e: io::Error) -> Self {
        InMemory(FormatError::structural(e.to_string()))
    }
}

/// Parses the text form of a full application trace.
pub fn parse_app_trace(text: &str) -> Result<AppTrace, FormatError> {
    read_app_trace(text.as_bytes()).map_err(|InMemory(e)| e)
}

/// Parses the text form of a reduced application trace.
pub fn parse_reduced_trace(text: &str) -> Result<ReducedAppTrace, FormatError> {
    read_reduced_trace(text.as_bytes()).map_err(|InMemory(e)| e)
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
