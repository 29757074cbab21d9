//! Online, bounded-memory reduction of a streamed trace.
//!
//! The reducer consumes [`AppItemSource`] items and feeds each record
//! straight into the library's one record loop
//! ([`trace_reduce::RankRecordReducer`]) as it arrives.  At any instant a
//! worker holds the stored representatives of the one rank it is reducing
//! plus at most one in-flight segment — never the full event stream, and
//! never the ranks it has already reduced, which leave with their section.
//! [`StreamStats::peak_resident_segments`] instruments exactly that
//! quantity so tests can assert the bound.

use std::io::BufRead;

use trace_model::{Rank, ReducedAppTrace, ReducedRankTrace, TraceRecord, TraceTables};
use trace_obs::Recorder;
use trace_reduce::{MatchScratch, MatchStats, RankRecordReducer, Reducer};

use crate::error::StreamError;
use crate::parser::AppItem;
use crate::shard::{text, Ran, Stage};
use crate::sink::{Collect, RankSink, Sink};
use crate::source::AppItemSource;

/// Instrumentation counters from one streaming reduction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Rank sections reduced.
    pub ranks: usize,
    /// Event records seen in reduced ranks.
    pub events: usize,
    /// Segments cut from the stream and fed to the reducer.
    pub segments: usize,
    /// Stored representative segments in the output.
    pub stored: usize,
    /// Segment executions in the output.
    pub execs: usize,
    /// Possible matches in the output, summed over its ranks
    /// ([`trace_model::ReducedRankTrace::possible_match_count`]): the
    /// denominator of [`StreamStats::degree_of_matching`].
    pub possible_matches: usize,
    /// Peak number of segments a worker held at once: the stored
    /// representatives of the rank it was reducing plus the segment in
    /// flight.  A reduced rank leaves the worker with its section, so the
    /// streaming guarantee is `peak_resident_segments ≤ workers × (the most
    /// stored in one rank + 1)`, however long the trace is.  For sharded
    /// runs this is the *sum* of the per-worker peaks — an upper bound on
    /// the true concurrent total, since workers generally peak at different
    /// moments — and, as workers claim rank sections as they fall free, it
    /// depends on which worker reduced which section; the bound holds
    /// whatever the assignment.
    pub peak_resident_segments: usize,
    /// Events encountered outside any segment (dropped).
    pub orphan_events: usize,
    /// Segments closed implicitly (missing or mismatched end markers).
    pub unterminated_segments: usize,
    /// The most memory one chunk took in any one reader, in bytes: the
    /// largest of its stored payload, its LZ output and its decoded batch,
    /// `records * size_of::<TraceRecord>()`.  The batch is what counts in
    /// practice — a record is 56 bytes in memory and under ten in a row
    /// payload, so a default 128-segment chunk of ≈ 8 KB decodes to ≈ 45 KB.
    /// Zero for text streams: they buffer one block of lines, not chunks,
    /// and hold at most [`crate::parser::BATCH_RECORDS`] decoded records.
    /// Merging keeps the per-reader
    /// maximum, so the concurrent total of a sharded run is at most
    /// `shards ×` this value.
    pub peak_chunk_bytes: usize,
    /// Text bytes the workers read without parsing them: from the start
    /// of each byte range of the body but the first to its first rank
    /// section, bytes the range before reads again to finish its last
    /// section.  At most the input's length; 0 on one worker and for
    /// containers, and the same for a given file and worker count.
    pub passed_bytes: u64,
    /// Similarity-matching counters from the cached fast path: candidate
    /// comparisons, prefilter rejects, early abandons and matches across
    /// every reduced rank.
    pub matching: MatchStats,
}

impl StreamStats {
    /// Merges counters from another (concurrently collected) run.  Counts
    /// add up exactly; the peaks are also summed, which over-approximates
    /// the true concurrent peak (each worker's resident set coexists with
    /// the others', but their maxima need not coincide in time), so the
    /// merged value is a safe upper bound rather than an observation.
    pub fn absorb(&mut self, other: &StreamStats) {
        self.ranks += other.ranks;
        self.events += other.events;
        self.segments += other.segments;
        self.stored += other.stored;
        self.execs += other.execs;
        self.possible_matches += other.possible_matches;
        self.peak_resident_segments += other.peak_resident_segments;
        self.orphan_events += other.orphan_events;
        self.unterminated_segments += other.unterminated_segments;
        self.peak_chunk_bytes = self.peak_chunk_bytes.max(other.peak_chunk_bytes);
        self.passed_bytes += other.passed_bytes;
        self.matching.absorb(&other.matching);
    }

    /// The output's degree of matching, matches over possible matches
    /// (Section 4.3.2), from the per-rank totals: the value
    /// [`trace_model::ReducedAppTrace::degree_of_matching`] reads off the
    /// assembled trace.  Every execution either stored its segment or
    /// matched, so the matches are the executions less the stored.
    pub fn degree_of_matching(&self) -> f64 {
        if self.possible_matches == 0 {
            1.0
        } else {
            self.execs.saturating_sub(self.stored) as f64 / self.possible_matches as f64
        }
    }

    /// Drains these counters into an observability shard under the
    /// canonical `stream.*` (and nested `match.*`) metric names.  Called
    /// once per run, on the merged total, after the fan-out returns — not
    /// per worker, so sharded runs don't double-count.
    pub fn record_into(&self, obs: &mut trace_obs::ObsShard) {
        if !obs.is_enabled() {
            return;
        }
        use trace_obs::names;
        obs.add(names::STREAM_RANKS, self.ranks as u64);
        obs.add(names::STREAM_EVENTS, self.events as u64);
        obs.add(names::STREAM_SEGMENTS, self.segments as u64);
        obs.add(names::STREAM_STORED, self.stored as u64);
        obs.add(names::STREAM_EXECS, self.execs as u64);
        obs.add(names::STREAM_ORPHAN_EVENTS, self.orphan_events as u64);
        obs.add(
            names::STREAM_UNTERMINATED_SEGMENTS,
            self.unterminated_segments as u64,
        );
        obs.gauge_max(
            names::STREAM_PEAK_RESIDENT_SEGMENTS,
            self.peak_resident_segments as u64,
        );
        obs.gauge_max(names::STREAM_PEAK_CHUNK_BYTES, self.peak_chunk_bytes as u64);
        obs.add(names::STREAM_PASSED_BYTES, self.passed_bytes);
        self.matching.record_into(obs);
    }
}

/// The outcome of a streaming reduction: the reduced trace plus the
/// instrumentation counters.
#[derive(Clone, Debug)]
pub struct StreamReduction {
    /// The reduced application trace (identical to the in-memory path).
    pub reduced: ReducedAppTrace,
    /// Instrumentation counters.
    pub stats: StreamStats,
}

impl StreamReduction {
    /// The outcome of a reduction into a [`Collect`] sink.
    pub(crate) fn collected(run: Ran<Reduce<'_, Collect>>) -> Self {
        let (Collect(reduced), stats) = Reduce::finished(run);
        StreamReduction { reduced, stats }
    }
}

/// Opens the next rank section of `source`: its rank, or `None` at the
/// trailer.  A record or a rank end between sections is a protocol error.
pub(crate) fn next_section<S: AppItemSource>(source: &mut S) -> Result<Option<Rank>, StreamError> {
    match source.next_item()? {
        Some(AppItem::RankStart(rank)) => Ok(Some(rank)),
        Some(AppItem::Record(_)) => Err(StreamError::Protocol("a record outside a rank section")),
        Some(AppItem::RankEnd(_)) => {
            Err(StreamError::Protocol("a rank end outside a rank section"))
        }
        None => Ok(None),
    }
}

/// Opens the rank section `source` holds next, which must be there.
pub(crate) fn open_section<S: AppItemSource>(source: &mut S) -> Result<Rank, StreamError> {
    next_section(source)?.ok_or(StreamError::Protocol(
        "the stream ended before a declared rank section",
    ))
}

/// Hands the records of the rank section just opened on `source` to
/// `copy`, in order, up to its rank end: each record the source yields,
/// then whatever it has decoded behind it (the rest of a container chunk
/// or of a text batch).  An item out of place is a protocol error, as in
/// [`RankWorker::reduce_rank`], which reads a section in one loop of its
/// own: built on this one, it measured 2–3 % slower.
pub(crate) fn copy_records<S: AppItemSource>(
    source: &mut S,
    mut copy: impl FnMut(&[TraceRecord]) -> Result<(), StreamError>,
) -> Result<(), StreamError> {
    loop {
        let misplaced = match source.next_item()? {
            Some(AppItem::Record(first)) => {
                copy(std::slice::from_ref(&first))?;
                copy(source.take_records())?;
                continue;
            }
            Some(AppItem::RankEnd(_)) => return Ok(()),
            Some(AppItem::RankStart(_)) => "a rank start inside a rank section",
            None => "the stream ended inside a rank section",
        };
        return Err(StreamError::Protocol(misplaced));
    }
}

/// What a streaming worker keeps from rank section to rank section: one
/// match scratch (so the matching loop stays allocation free however many
/// ranks flow past), its recorder shard and its counters.
#[derive(Default)]
pub(crate) struct RankWorker {
    scratch: MatchScratch,
    pub(crate) obs: trace_obs::ObsShard,
    pub(crate) stats: StreamStats,
}

impl RankWorker {
    /// Reduces the rank section `source` opens next — the text parser or
    /// the container reader, the loop is identical.
    ///
    /// The section is bracketed by a [`trace_obs::Stage::Rank`] span (the
    /// record loop, [`RankRecordReducer`], fuses segment and match per
    /// record, so the rank is the finest honestly separable unit: two clock
    /// reads per rank; a source times its own decodes — a container's
    /// chunks, text's batches — inside it).
    /// An item out of place — a record or rank end before the rank start, a
    /// second rank start, or the end of the stream — is a protocol error:
    /// the open rank would otherwise be lost.
    pub(crate) fn reduce_rank<S: AppItemSource>(
        &mut self,
        reducer: &Reducer,
        source: &mut S,
    ) -> Result<ReducedRankTrace, StreamError> {
        let RankWorker {
            scratch,
            obs,
            stats,
        } = self;
        // The rank start is read by the same loop as the records: reading
        // it on its own first measured 7 % slower on a text stream.
        let mut active = None;
        while let Some(item) = source.next_item()? {
            match item {
                AppItem::RankStart(rank) => {
                    if active.is_some() {
                        return Err(StreamError::Protocol("a rank start inside a rank section"));
                    }
                    let rank = RankRecordReducer::new(reducer, rank, scratch);
                    active = Some((rank, obs.start()));
                }
                AppItem::Record(first) => {
                    let Some((rank, _)) = active.as_mut() else {
                        return Err(StreamError::Protocol("a record outside a rank section"));
                    };
                    // The record, then whatever the source has decoded
                    // behind it: the rest of a container chunk or of a
                    // text batch.
                    rank.push(&first, obs);
                    let records = source.take_records();
                    records.iter().for_each(|record| rank.push(record, obs));
                }
                AppItem::RankEnd(_) => {
                    let Some((rank, span)) = active.take() else {
                        return Err(StreamError::Protocol("a rank end outside a rank section"));
                    };
                    let peak = rank.peak_resident_segments();
                    stats.peak_resident_segments = stats.peak_resident_segments.max(peak);
                    let reduction = rank.finish(scratch, obs);
                    let seg_stats = reduction.segmentation;
                    stats.events += seg_stats.events_in_segments + seg_stats.orphan_events;
                    stats.segments += seg_stats.segments;
                    stats.orphan_events += seg_stats.orphan_events;
                    stats.unterminated_segments += seg_stats.unterminated_segments;
                    stats.matching.absorb(&reduction.matching);
                    // The output's totals, counted while the rank is here:
                    // it leaves with its section.
                    let reduced = &reduction.reduced;
                    stats.stored += reduced.stored_count();
                    stats.execs += reduced.exec_count();
                    stats.possible_matches += reduced.possible_match_count();
                    stats.ranks += 1;
                    obs.end(trace_obs::Stage::Rank, span);
                    return Ok(reduction.reduced);
                }
            }
        }
        Err(StreamError::Protocol(match active {
            Some(_) => "the stream ended inside a rank section",
            None => "the stream ended before a declared rank section",
        }))
    }
}

/// The reduce stage: each section reduced on the worker that claimed it,
/// and encoded there for `sink`.
pub(crate) struct Reduce<'r, K> {
    pub(crate) reducer: &'r Reducer,
    pub(crate) sink: K,
}

impl<'r, K: RankSink> Reduce<'r, K> {
    /// Opens the reduce stage into the sink `sink` opens on the header.
    pub(crate) fn opening(
        reducer: &'r Reducer,
        sink: impl FnOnce(&TraceTables) -> Result<K, StreamError>,
    ) -> impl FnOnce(&TraceTables) -> Result<Self, StreamError> {
        move |tables| sink(tables).map(|sink| Reduce { reducer, sink })
    }

    /// The sink of a finished run, and its workers' counters merged and
    /// drained into the reducer's recorder once.
    pub(crate) fn finished((stage, workers): Ran<Self>) -> (K, StreamStats) {
        let mut stats = StreamStats::default();
        for (worker, _, _) in workers {
            stats.absorb(&worker.stats);
        }
        stats.record_into(&mut stage.reducer.recorder().shard());
        (stage.sink, stats)
    }
}

impl<'r, K: RankSink> Sink for Reduce<'r, K> {
    type Worker = (RankWorker, K::Worker, &'r Reducer);
    type Section = K::Section;

    fn worker(&self, recorder: &Recorder) -> Self::Worker {
        let worker = RankWorker {
            obs: recorder.shard(),
            ..RankWorker::default()
        };
        (worker, self.sink.worker(recorder), self.reducer)
    }

    fn stitch(&mut self, section: K::Section) -> Result<(), StreamError> {
        self.sink.stitch(section)
    }
}

impl<K: RankSink> Stage for Reduce<'_, K> {
    fn section<S: AppItemSource>(
        (worker, encoder, reducer): &mut Self::Worker,
        source: &mut S,
        _: usize,
    ) -> Result<K::Section, StreamError> {
        K::encode(encoder, worker.reduce_rank(reducer, source)?)
    }

    fn read_out<S: AppItemSource>((worker, _, _): &mut Self::Worker, source: &S) {
        let peak = &mut worker.stats.peak_chunk_bytes;
        *peak = source.peak_chunk_bytes().max(*peak);
        worker.stats.passed_bytes += source.passed_bytes();
    }
}

/// Reduces a full-trace text stream with one pass and bounded memory: the
/// one-worker case of [`crate::reduce_stream_sharded`].
///
/// The output [`trace_model::ReducedAppTrace`] is semantically identical to
/// parsing the whole trace and running
/// [`trace_reduce::Reducer::reduce_app`] — both paths drive the same online
/// segmenter and stored-segments state machines — but the full
/// [`trace_model::AppTrace`] is never constructed.
pub fn reduce_stream<R: BufRead + Send>(
    reducer: &Reducer,
    reader: R,
) -> Result<StreamReduction, StreamError> {
    let stage = Reduce::opening(reducer, Collect::open);
    let run = text(reducer.recorder(), reader, stage);
    run.map(StreamReduction::collected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{one_worker, text_ranges};
    use crate::sink::{OutputFormat, TraceWriter, WrittenReduction};
    use std::io::Cursor;
    use trace_container::{encode_reduced_container, ChunkSpec, Codec, PayloadKind};
    use trace_format::{write_app_trace, write_reduced_trace};
    use trace_model::TraceRecord;
    use trace_reduce::{reduce_app_parallel, Method};
    use trace_sim::{SizePreset, Workload, WorkloadKind};

    #[test]
    fn an_in_memory_reduction_writes_the_bytes_of_storing_the_collected_trace() {
        // Every tiny workload, both output formats, one worker, two, three
        // and more workers than ranks, each worker reading the text trace
        // from memory: the bytes, the totals and the degree of matching
        // are those of the trace `reduce_app_parallel` assembles.
        let reducer = Reducer::with_default_threshold(Method::AvgWave);
        let recorder = reducer.recorder();
        let spec = ChunkSpec::with_segments(2).codec(Codec::DeltaLz);
        for workload in Workload::all(SizePreset::Tiny) {
            let app = workload.generate();
            let input = write_app_trace(&app);
            let reduced = reduce_app_parallel(&reducer, &app, 2);
            let formats = [
                (
                    OutputFormat::Container(spec),
                    encode_reduced_container(&reduced, spec),
                ),
                (
                    OutputFormat::Text,
                    write_reduced_trace(&reduced).into_bytes(),
                ),
            ];
            for workers in [1, 2, 3, app.rank_count() + 3] {
                for (format, expected) in &formats {
                    let case = format!("{} {format:?} on {workers} workers", workload.name());
                    let writer = |tables: &TraceTables| {
                        let kind = PayloadKind::Reduced;
                        TraceWriter::open(Vec::new(), *format, kind, tables, recorder)
                    };
                    let open = |_| Ok(Cursor::new(input.as_bytes()));
                    let stage = Reduce::opening(&reducer, writer);
                    let run = text_ranges(recorder, workers, open, stage).unwrap();
                    let written = WrittenReduction::finished(run).unwrap();
                    assert!(written.out == *expected, "{case}");
                    assert_eq!(written.name, reduced.name, "{case}");
                    let stats = written.stats;
                    assert_eq!(stats.ranks, reduced.rank_count(), "{case}");
                    assert_eq!(stats.stored, reduced.total_stored(), "{case}");
                    assert_eq!(stats.execs, reduced.total_execs(), "{case}");
                    let degree = reduced.degree_of_matching();
                    assert_eq!(stats.degree_of_matching(), degree, "{case}");
                }
            }
        }
    }

    #[test]
    fn streamed_reduction_equals_in_memory_reduction_for_every_method() {
        let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        let text = write_app_trace(&app);
        for method in Method::ALL {
            let reducer = Reducer::with_default_threshold(method);
            let in_memory = reducer.reduce_app(&app);
            let streamed = reduce_stream(&reducer, Cursor::new(text.as_bytes())).unwrap();
            assert_eq!(streamed.reduced, in_memory, "{method}");
            assert_eq!(streamed.stats.execs, in_memory.total_execs(), "{method}");
            assert_eq!(streamed.stats.stored, in_memory.total_stored(), "{method}");
        }
    }

    #[test]
    fn stats_count_ranks_events_and_segments() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let text = write_app_trace(&app);
        let reducer = Reducer::with_default_threshold(Method::RelDiff);
        let streamed = reduce_stream(&reducer, Cursor::new(text.as_bytes())).unwrap();
        assert_eq!(streamed.stats.ranks, app.rank_count());
        assert_eq!(streamed.stats.events, app.total_events());
        let segment_instances: usize = app
            .ranks
            .iter()
            .map(|r| r.segment_instance_count())
            .sum::<usize>();
        assert_eq!(streamed.stats.segments, segment_instances);
        assert_eq!(streamed.stats.orphan_events, 0);
        assert_eq!(streamed.stats.unterminated_segments, 0);
    }

    #[test]
    fn resident_state_is_bounded_by_stored_plus_inflight() {
        // 200 identical iterations on one rank: one representative total,
        // so the peak resident count must stay at 2 (the representative
        // plus the in-flight segment) even though 200 segments stream by.
        let mut text = String::from("TRACEFORMAT 1\nTRACE RANKS 1 NAME loop\n");
        text.push_str("REGION 0 work\nCONTEXT 0 main.1\nRANK 0\n");
        let mut now = 0u64;
        for _ in 0..200 {
            text.push_str(&format!("SEG_BEGIN 0 {now}\n"));
            text.push_str(&format!("EVENT 0 {} {} 0 COMPUTE\n", now + 10, now + 90));
            text.push_str(&format!("SEG_END 0 {}\n", now + 100));
            now += 100;
        }
        text.push_str("END_RANK\nEND_TRACE\n");

        let reducer = Reducer::with_default_threshold(Method::RelDiff);
        let streamed = reduce_stream(&reducer, Cursor::new(text.as_bytes())).unwrap();
        assert_eq!(streamed.stats.segments, 200);
        assert_eq!(streamed.stats.stored, 1);
        assert_eq!(streamed.stats.peak_resident_segments, 2);
    }

    #[test]
    fn items_outside_a_rank_section_are_an_error_not_a_panic() {
        struct Fake(std::vec::IntoIter<AppItem>);
        impl AppItemSource for Fake {
            fn next_item(&mut self) -> Result<Option<AppItem>, StreamError> {
                Ok(self.0.next())
            }
            fn skip_current_rank(&mut self) -> Result<trace_model::Rank, StreamError> {
                Ok(trace_model::Rank(0))
            }
        }
        let rank = trace_model::Rank(0);
        let record = || {
            AppItem::Record(TraceRecord::SegmentBegin {
                context: trace_model::ContextId(0),
                time: trace_model::Time::ZERO,
            })
        };
        let (start, end) = (AppItem::RankStart(rank), AppItem::RankEnd(rank));
        let reducer = Reducer::with_default_threshold(Method::RelDiff);
        // Two declared rank sections, on one worker.
        let reduce = |items: Vec<AppItem>| {
            let fake = Fake(items.into_iter());
            let sink = Collect(ReducedAppTrace::default());
            let mut stage = Reduce {
                reducer: &reducer,
                sink,
            };
            let recorder = reducer.recorder();
            let workers = one_worker(recorder, &mut stage, fake, (0, 2))?;
            Ok::<_, StreamError>(StreamReduction::collected((stage, workers)))
        };
        for (items, message) in [
            (
                vec![record(), start.clone(), end.clone()],
                "a record outside a rank section",
            ),
            (
                vec![start.clone(), end.clone(), end.clone()],
                "a rank end outside a rank section",
            ),
            // Accepting either would lose the open rank's reduction.
            (
                vec![start.clone(), record(), start.clone(), end.clone()],
                "a rank start inside a rank section",
            ),
            (
                vec![start.clone(), end.clone(), start.clone(), record()],
                "the stream ended inside a rank section",
            ),
        ] {
            match reduce(items) {
                Err(StreamError::Protocol(found)) => assert_eq!(found, message),
                other => panic!("{message}: got {other:?}"),
            }
        }
        let run = reduce(vec![start.clone(), record(), end.clone(), start, end]).unwrap();
        let (ranks, stats) = (run.reduced.ranks, run.stats);
        assert_eq!((ranks.len(), stats.ranks, stats.segments), (2, 2, 1));
    }
}
