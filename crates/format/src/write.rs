//! Writers for the text trace format.
//!
//! The whole-trace functions [`write_app_trace`] and [`write_reduced_trace`]
//! serialize an in-memory trace to a `String`, and [`write_app_trace_to`]
//! and `write_reduced_trace_to` to any [`std::io::Write`].  Each is its
//! parts: a header ([`write_app_header`], [`write_reduced_header`]), rank
//! sections, and [`write_trailer`].  A full trace's section is
//! [`write_rank_start`], its records in batches ([`write_app_records`]) and
//! [`write_rank_end`]; a reduced trace's is [`write_reduced_rank`].
//! Sections are position-independent, so a conversion or a reduction that
//! writes as it goes writes each into a buffer of its own and joins the
//! buffers in rank order, and a producer that streams a trace to disk (the
//! workload simulator's amplified writer) calls the parts itself.

use std::io::{self, Write};

use trace_model::{
    AppTrace, CommInfo, Event, Rank, ReducedAppTrace, ReducedRankTrace, TraceRecord,
};

/// Magic first line of a full-trace file.
pub const APP_HEADER: &str = "TRACEFORMAT 1";
/// Magic first line of a reduced-trace file.
pub const REDUCED_HEADER: &str = "TRACEFORMAT_REDUCED 1";

fn write_tables<W: Write>(
    out: &mut W,
    app_name: &str,
    ranks: usize,
    regions: &[String],
    contexts: &[String],
) -> io::Result<()> {
    writeln!(out, "TRACE RANKS {ranks} NAME {app_name}")?;
    for (id, name) in regions.iter().enumerate() {
        writeln!(out, "REGION {id} {name}")?;
    }
    for (id, name) in contexts.iter().enumerate() {
        writeln!(out, "CONTEXT {id} {name}")?;
    }
    Ok(())
}

fn write_event<W: Write>(out: &mut W, event: &Event) -> io::Result<()> {
    write!(
        out,
        "EVENT {} {} {} {}",
        event.region.as_u32(),
        event.start.as_nanos(),
        event.end.as_nanos(),
        event.wait.as_nanos()
    )?;
    match event.comm {
        CommInfo::Compute => writeln!(out, " COMPUTE"),
        CommInfo::Send { peer, tag, bytes } => {
            writeln!(out, " SEND {} {tag} {bytes}", peer.as_u32())
        }
        CommInfo::Recv { peer, tag, bytes } => {
            writeln!(out, " RECV {} {tag} {bytes}", peer.as_u32())
        }
        CommInfo::SendRecv {
            to,
            from,
            tag,
            bytes,
        } => writeln!(
            out,
            " SENDRECV {} {} {tag} {bytes}",
            to.as_u32(),
            from.as_u32()
        ),
        CommInfo::Collective {
            op,
            root,
            comm_size,
            bytes,
        } => writeln!(
            out,
            " COLLECTIVE {} {} {comm_size} {bytes}",
            op.mpi_name(),
            root.as_u32()
        ),
    }
}

fn write_record<W: Write>(out: &mut W, record: &TraceRecord) -> io::Result<()> {
    match record {
        TraceRecord::SegmentBegin { context, time } => {
            writeln!(out, "SEG_BEGIN {} {}", context.as_u32(), time.as_nanos())
        }
        TraceRecord::SegmentEnd { context, time } => {
            writeln!(out, "SEG_END {} {}", context.as_u32(), time.as_nanos())
        }
        TraceRecord::Event(event) => write_event(out, event),
    }
}

/// Writes the header of a full-trace file (magic line, `TRACE` line,
/// REGION/CONTEXT tables) declaring `ranks` rank sections.
pub fn write_app_header<W: Write>(
    out: &mut W,
    app_name: &str,
    ranks: usize,
    regions: &[String],
    contexts: &[String],
) -> io::Result<()> {
    writeln!(out, "{APP_HEADER}")?;
    write_tables(out, app_name, ranks, regions, contexts)
}

/// Writes the `RANK` line that opens a rank section of either kind.
pub fn write_rank_start<W: Write>(out: &mut W, rank: Rank) -> io::Result<()> {
    writeln!(out, "RANK {}", rank.as_u32())
}

/// Writes `records` into the open rank section of a full-trace file, a
/// line each.
pub fn write_app_records<W: Write>(out: &mut W, records: &[TraceRecord]) -> io::Result<()> {
    records
        .iter()
        .try_for_each(|record| write_record(out, record))
}

/// Writes the `END_RANK` line that closes a rank section of either kind.
pub fn write_rank_end<W: Write>(out: &mut W) -> io::Result<()> {
    writeln!(out, "END_RANK")
}

/// Serializes a full application trace to the text format via `out`:
/// its header, each rank's section and the trailer.
pub fn write_app_trace_to<W: Write>(mut out: W, app: &AppTrace) -> io::Result<W> {
    write_app_header(
        &mut out,
        &app.name,
        app.rank_count(),
        app.regions.names(),
        app.contexts.names(),
    )?;
    for rank in &app.ranks {
        write_rank_start(&mut out, rank.rank)?;
        write_app_records(&mut out, &rank.records)?;
        write_rank_end(&mut out)?;
    }
    write_trailer(&mut out)?;
    Ok(out)
}

/// Serializes a full application trace to the text format.
pub fn write_app_trace(app: &AppTrace) -> String {
    let bytes = write_app_trace_to(Vec::new(), app).expect("writing to a Vec cannot fail");
    String::from_utf8(bytes).expect("the text format is valid UTF-8")
}

/// Writes the header of a reduced-trace file (magic line, `TRACE` line,
/// REGION/CONTEXT tables) declaring `ranks` rank sections.
pub fn write_reduced_header<W: Write>(
    out: &mut W,
    app_name: &str,
    ranks: usize,
    regions: &[String],
    contexts: &[String],
) -> io::Result<()> {
    writeln!(out, "{REDUCED_HEADER}")?;
    write_tables(out, app_name, ranks, regions, contexts)
}

/// Writes one `RANK` … `END_RANK` section of a reduced-trace file.
pub fn write_reduced_rank<W: Write>(out: &mut W, rank: &ReducedRankTrace) -> io::Result<()> {
    write_rank_start(out, rank.rank)?;
    for stored in &rank.stored {
        writeln!(
            out,
            "STORED {} {} {} {} {}",
            stored.id,
            stored.represented,
            stored.segment.context.as_u32(),
            stored.segment.end.as_nanos(),
            stored.segment.events.len()
        )?;
        for event in &stored.segment.events {
            write_event(out, event)?;
        }
    }
    for exec in &rank.execs {
        writeln!(out, "EXEC {} {}", exec.segment, exec.start.as_nanos())?;
    }
    write_rank_end(out)
}

/// Writes the `END_TRACE` trailer that ends a trace file of either kind.
pub fn write_trailer<W: Write>(out: &mut W) -> io::Result<()> {
    writeln!(out, "END_TRACE")
}

/// Serializes a reduced application trace to the text format via `out`:
/// its header, each rank's section and the trailer.
pub(crate) fn write_reduced_trace_to<W: Write>(
    mut out: W,
    reduced: &ReducedAppTrace,
) -> io::Result<W> {
    write_reduced_header(
        &mut out,
        &reduced.name,
        reduced.rank_count(),
        reduced.regions.names(),
        reduced.contexts.names(),
    )?;
    for rank in &reduced.ranks {
        write_reduced_rank(&mut out, rank)?;
    }
    write_trailer(&mut out)?;
    Ok(out)
}

/// Serializes a reduced application trace to the text format.
pub fn write_reduced_trace(reduced: &ReducedAppTrace) -> String {
    let bytes = write_reduced_trace_to(Vec::new(), reduced).expect("writing to a Vec cannot fail");
    String::from_utf8(bytes).expect("the text format is valid UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_app_trace;
    use trace_reduce::{Method, Reducer};
    use trace_sim::{SizePreset, Workload, WorkloadKind};

    #[test]
    fn app_trace_output_has_header_tables_and_trailer() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let text = write_app_trace(&app);
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some(APP_HEADER));
        assert!(text.contains("TRACE RANKS"));
        assert!(text.contains("REGION 0 "));
        assert!(text.contains("CONTEXT 0 "));
        assert!(text.ends_with("END_TRACE\n"));
        assert_eq!(
            text.matches("RANK ").count(),
            app.rank_count(),
            "one RANK header per rank"
        );
        assert_eq!(text.matches("END_RANK").count(), app.rank_count());
    }

    #[test]
    fn every_event_kind_is_written_with_its_parameters() {
        let app = Workload::new(WorkloadKind::ImbalanceAtMpiBarrier, SizePreset::Tiny).generate();
        let text = write_app_trace(&app);
        assert!(text.contains(" COLLECTIVE MPI_Barrier"));
        assert!(text.contains(" COMPUTE"));
        let p2p = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let p2p_text = write_app_trace(&p2p);
        assert!(p2p_text.contains(" SEND ") || p2p_text.contains(" RECV "));
    }

    #[test]
    fn reduced_trace_output_lists_stored_segments_and_execs() {
        let app = Workload::new(WorkloadKind::EarlyGather, SizePreset::Tiny).generate();
        let reduced = Reducer::with_default_threshold(Method::AvgWave).reduce_app(&app);
        let text = write_reduced_trace(&reduced);
        assert!(text.starts_with(REDUCED_HEADER));
        assert_eq!(text.matches("STORED ").count(), reduced.total_stored());
        assert_eq!(text.matches("EXEC ").count(), reduced.total_execs());
        assert!(text.ends_with("END_TRACE\n"));
    }

    #[test]
    fn io_writers_round_trip_through_the_parser() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let bytes = write_app_trace_to(Vec::new(), &app).unwrap();
        let parsed = parse_app_trace(std::str::from_utf8(&bytes).unwrap()).unwrap();
        assert_eq!(parsed, app);
    }
}
