//! Property-based tests for the record codec and the segment model.
//!
//! These exercise the invariants the rest of the workspace relies on: the
//! record, stored-segment and execution rows a container chunk stores
//! decode to exactly what was written for arbitrary well-formed traces, the
//! row readers never panic on arbitrary or corrupted bytes, and segment
//! rebase/offset round-trips.

use proptest::prelude::*;

use trace_model::codec::varint::{read_u64, write_u64};
use trace_model::codec::{
    read_exec, read_record, read_stored_segment, write_exec, write_record, write_stored_segment,
    CodecError, Reader,
};
use trace_model::{
    AppTrace, CollectiveOp, CommInfo, Event, Rank, ReducedAppTrace, ReducedRankTrace, Segment,
    SegmentExec, StoredSegment, Time, TraceRecord,
};

/// Strategy for communication metadata with small, realistic parameters.
fn comm_strategy(n_ranks: u32) -> impl Strategy<Value = CommInfo> {
    let rank = 0..n_ranks.max(1);
    prop_oneof![
        Just(CommInfo::Compute),
        (rank.clone(), 0u32..8, 1u64..65536).prop_map(|(peer, tag, bytes)| CommInfo::Send {
            peer: Rank(peer),
            tag,
            bytes
        }),
        (rank.clone(), 0u32..8, 1u64..65536).prop_map(|(peer, tag, bytes)| CommInfo::Recv {
            peer: Rank(peer),
            tag,
            bytes
        }),
        (rank.clone(), rank.clone(), 0u32..8, 1u64..65536).prop_map(|(to, from, tag, bytes)| {
            CommInfo::SendRecv {
                to: Rank(to),
                from: Rank(from),
                tag,
                bytes,
            }
        }),
        (0usize..CollectiveOp::ALL.len(), rank, 1u64..4096).prop_map(move |(op, root, bytes)| {
            CommInfo::Collective {
                op: CollectiveOp::ALL[op],
                root: Rank(root),
                comm_size: n_ranks,
                bytes,
            }
        }),
    ]
}

/// Strategy producing a well-formed [`AppTrace`] with a handful of ranks,
/// segments and events.
fn app_trace_strategy() -> impl Strategy<Value = AppTrace> {
    (1usize..4, 1usize..5, 1usize..5).prop_flat_map(|(n_ranks, n_segments, n_events)| {
        let comm = comm_strategy(n_ranks as u32);
        let event_durations = prop::collection::vec(
            (1u64..1000, 1u64..500, comm),
            n_ranks * n_segments * n_events,
        );
        event_durations.prop_map(move |durations| {
            let mut app = AppTrace::new("proptest", n_ranks);
            let work = app.regions.intern("do_work");
            let ctx = app.contexts.intern("main.1");
            let mut it = durations.into_iter();
            for r in 0..n_ranks {
                let mut now = Time::from_nanos(r as u64);
                for _ in 0..n_segments {
                    let seg_start = now;
                    app.ranks[r].begin_segment(ctx, seg_start);
                    for _ in 0..n_events {
                        let (gap, dur, comm) = it.next().unwrap();
                        let start = now + Time::from_nanos(gap);
                        let end = start + Time::from_nanos(dur);
                        app.ranks[r].push_event(Event::with_comm(work, start, end, comm));
                        now = end;
                    }
                    app.ranks[r].end_segment(ctx, now + Time::from_nanos(1));
                    now += Time::from_nanos(2);
                }
            }
            app
        })
    })
}

/// Strategy producing a well-formed [`ReducedAppTrace`].
fn reduced_trace_strategy() -> impl Strategy<Value = ReducedAppTrace> {
    (1usize..4, 1usize..4, 1usize..6, 1usize..5).prop_flat_map(
        |(n_ranks, n_stored, n_execs, n_events)| {
            let comm = comm_strategy(n_ranks as u32);
            prop::collection::vec((1u64..400, 1u64..400, comm), n_ranks * n_stored * n_events)
                .prop_map(move |samples| {
                    let mut app = AppTrace::new("proptest_reduced", n_ranks);
                    let work = app.regions.intern("do_work");
                    let ctx = app.contexts.intern("main.1");
                    let mut reduced = ReducedAppTrace::for_app(&app);
                    let mut it = samples.into_iter();
                    for r in 0..n_ranks {
                        let mut rrt = ReducedRankTrace::new(Rank(r as u32));
                        for id in 0..n_stored {
                            let mut events = Vec::new();
                            let mut now = Time::from_nanos(1);
                            for _ in 0..n_events {
                                let (gap, dur, comm) = it.next().unwrap();
                                let start = now + Time::from_nanos(gap);
                                let end = start + Time::from_nanos(dur);
                                events.push(Event::with_comm(work, start, end, comm));
                                now = end;
                            }
                            rrt.stored.push(StoredSegment {
                                id: id as u32,
                                segment: Segment {
                                    context: ctx,
                                    start: Time::ZERO,
                                    end: now + Time::from_nanos(1),
                                    events,
                                },
                                represented: 1,
                            });
                        }
                        for e in 0..n_execs {
                            rrt.execs.push(SegmentExec {
                                segment: (e % n_stored) as u32,
                                start: Time::from_nanos(e as u64 * 10_000),
                            });
                        }
                        reduced.ranks.push(rrt);
                    }
                    reduced
                })
        },
    )
}

/// A rank's records as the rows of a `RECORDS` chunk: the count, then every
/// record delta-timed from zero.
fn record_rows(records: &[TraceRecord]) -> Vec<u8> {
    let mut rows = Vec::new();
    write_u64(&mut rows, records.len() as u64);
    let mut prev = Time::ZERO;
    for record in records {
        prev = write_record(&mut rows, record, prev);
    }
    rows
}

/// A reduced rank as the rows of a `STORED` chunk followed by those of an
/// `EXECS` chunk.
fn reduced_rows(rank: &ReducedRankTrace) -> Vec<u8> {
    let mut rows = Vec::new();
    write_u64(&mut rows, rank.stored.len() as u64);
    for stored in &rank.stored {
        write_stored_segment(&mut rows, stored);
    }
    write_u64(&mut rows, rank.execs.len() as u64);
    let mut prev = Time::ZERO;
    for exec in &rank.execs {
        prev = write_exec(&mut rows, exec, prev);
    }
    rows
}

/// The declared records of `rows`, as [`record_rows`] lays them out.
fn read_record_rows(rows: &[u8]) -> Result<Vec<TraceRecord>, CodecError> {
    let mut reader = Reader::new(rows);
    let mut prev = Time::ZERO;
    let mut records = Vec::new();
    for _ in 0..read_u64(&mut reader)? {
        let (record, time) = read_record(&mut reader, prev)?;
        records.push(record);
        prev = time;
    }
    Ok(records)
}

/// The stored segments and executions of `rows`, as [`reduced_rows`] lays
/// them out.
fn read_reduced_rows(rows: &[u8]) -> Result<(Vec<StoredSegment>, Vec<SegmentExec>), CodecError> {
    let mut reader = Reader::new(rows);
    let mut stored = Vec::new();
    for _ in 0..read_u64(&mut reader)? {
        stored.push(read_stored_segment(&mut reader)?);
    }
    let mut execs = Vec::new();
    let mut prev = Time::ZERO;
    for _ in 0..read_u64(&mut reader)? {
        let (exec, start) = read_exec(&mut reader, prev)?;
        execs.push(exec);
        prev = start;
    }
    Ok((stored, execs))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn app_trace_codec_round_trips(app in app_trace_strategy()) {
        for rank in &app.ranks {
            let rows = record_rows(&rank.records);
            let decoded = read_record_rows(&rows).expect("well-formed records must decode");
            prop_assert_eq!(&rank.records, &decoded);
        }
    }

    #[test]
    fn reduced_trace_codec_round_trips(reduced in reduced_trace_strategy()) {
        for rank in &reduced.ranks {
            let rows = reduced_rows(rank);
            let (stored, execs) =
                read_reduced_rows(&rows).expect("well-formed reduced rows must decode");
            prop_assert_eq!(&rank.stored, &stored);
            prop_assert_eq!(&rank.execs, &execs);
        }
    }

    #[test]
    fn generated_traces_are_well_formed(app in app_trace_strategy()) {
        prop_assert!(app.is_well_formed());
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        // Any result is fine; the property is "no panic".
        let _ = read_record_rows(&bytes);
        let _ = read_reduced_rows(&bytes);
    }

    #[test]
    fn decoder_never_panics_on_corrupted_valid_trace(
        app in app_trace_strategy(),
        reduced in reduced_trace_strategy(),
        flip in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..8),
    ) {
        let mut rows = record_rows(&app.ranks[0].records);
        let mut reduced_rows = reduced_rows(&reduced.ranks[0]);
        for (idx, value) in flip {
            for bytes in [&mut rows, &mut reduced_rows] {
                let i = idx.index(bytes.len());
                bytes[i] ^= value;
            }
        }
        let _ = read_record_rows(&rows);
        let _ = read_reduced_rows(&reduced_rows);
    }

    #[test]
    fn segment_rebase_offset_round_trip(
        base in 0u64..1_000_000,
        start in 0u64..10_000,
        dur in 0u64..10_000,
    ) {
        let e = Event::compute(
            trace_model::RegionId(0),
            Time::from_nanos(base + start),
            Time::from_nanos(base + start + dur),
        );
        let rebased = e.rebased(Time::from_nanos(base));
        prop_assert_eq!(rebased.start.as_nanos(), start);
        prop_assert_eq!(rebased.offset(Time::from_nanos(base)), e);
    }

    #[test]
    fn reconstruction_preserves_exec_and_event_counts(reduced in reduced_trace_strategy()) {
        let app = reduced.reconstruct();
        prop_assert_eq!(app.rank_count(), reduced.rank_count());
        for (rank, rrt) in app.ranks.iter().zip(&reduced.ranks) {
            prop_assert_eq!(rank.segment_instance_count(), rrt.exec_count());
        }
    }
}
