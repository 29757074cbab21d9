//! Online, bounded-memory reduction of a streamed trace.
//!
//! The reducer consumes [`AppItemSource`] items and feeds each completed
//! segment straight into the stored-segments loop
//! ([`trace_reduce::OnlineRankReducer`]) as it arrives.  At any instant the
//! resident segment state is the stored representatives accumulated so far
//! plus at most one in-flight segment per active rank — never the full
//! event stream.  [`StreamStats::peak_resident_segments`] instruments
//! exactly that quantity so tests can assert the bound.

use std::io::BufRead;

use trace_model::{Rank, ReducedAppTrace, ReducedRankTrace, TraceRecord};
use trace_reduce::{MatchScratch, MatchStats, OnlineRankReducer, OnlineSegmenter, Reducer};

use crate::error::StreamError;
use crate::parser::AppItem;
use crate::shard::{no_second_source, reduce_text};
use crate::source::AppItemSource;

/// Instrumentation counters from one streaming reduction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Rank sections reduced (excludes ranks skipped by other shards).
    pub ranks: usize,
    /// Event records seen in reduced ranks.
    pub events: usize,
    /// Segments cut from the stream and fed to the reducer.
    pub segments: usize,
    /// Stored representative segments in the output.
    pub stored: usize,
    /// Segment executions in the output.
    pub execs: usize,
    /// Peak number of segments resident at once: stored representatives
    /// accumulated so far plus in-flight segments.  The streaming guarantee
    /// is `peak_resident_segments ≤ total stored + workers`, however long
    /// the trace is.  For sharded runs this is the *sum* of the per-worker
    /// peaks — an upper bound on the true concurrent total, since workers
    /// generally peak at different moments — and, as workers claim rank
    /// sections as they fall free, it depends on which worker reduced which
    /// section; the bound holds whatever the assignment.
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
        self.peak_resident_segments += other.peak_resident_segments;
        self.orphan_events += other.orphan_events;
        self.unterminated_segments += other.unterminated_segments;
        self.peak_chunk_bytes = self.peak_chunk_bytes.max(other.peak_chunk_bytes);
        self.matching.absorb(&other.matching);
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
    /// Completes `stats` with the output's stored and execution totals and
    /// drains them into the reducer's recorder, once per run.
    pub(crate) fn drained(
        reducer: &Reducer,
        reduced: ReducedAppTrace,
        mut stats: StreamStats,
    ) -> Self {
        stats.stored = reduced.total_stored();
        stats.execs = reduced.total_execs();
        stats.record_into(&mut reducer.recorder().shard());
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

/// What a streaming worker keeps from rank section to rank section: one
/// match scratch (so the matching loop stays allocation free however many
/// ranks flow past), its recorder shard and its counters.
#[derive(Default)]
pub(crate) struct RankWorker {
    scratch: MatchScratch,
    pub(crate) obs: trace_obs::ObsShard,
    pub(crate) stats: StreamStats,
    /// Stored representatives of the ranks this worker already reduced;
    /// the output keeps them, so they count toward resident state.
    stored_retained: usize,
}

impl RankWorker {
    /// Reduces the rank section `source` opens next — the text parser or
    /// the container reader, the loop is identical.
    ///
    /// The section is bracketed by a [`trace_obs::Stage::Rank`] span (the
    /// loop fuses segment and match per record, so the rank is the finest
    /// honestly separable unit: two clock reads per rank; a source times
    /// its own decodes — a container's chunks, text's batches — inside it,
    /// or, decoding ahead for one worker, beside it on its own thread).
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
            stored_retained,
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
                    let online = OnlineRankReducer::new(reducer, rank, std::mem::take(scratch));
                    active = Some((OnlineSegmenter::new(), online, obs.start()));
                }
                AppItem::Record(first) => {
                    let Some((segmenter, online, _)) = active.as_mut() else {
                        return Err(StreamError::Protocol("a record outside a rank section"));
                    };
                    let mut push = |record: &TraceRecord| {
                        if let Some(segment) = segmenter.push(record) {
                            online.push_segment(segment, obs);
                        }
                        // Only a marker opens or closes a segment, and only
                        // a closed segment can be stored: between markers
                        // the resident count cannot move.
                        if !matches!(record, TraceRecord::Event(_)) {
                            let resident = *stored_retained
                                + online.stored_count()
                                + usize::from(segmenter.has_open_segment());
                            stats.peak_resident_segments =
                                stats.peak_resident_segments.max(resident);
                        }
                    };
                    // The record, then whatever the source has decoded
                    // behind it: the rest of a container chunk or of a
                    // text batch.
                    push(&first);
                    source.take_records().iter().for_each(push);
                }
                AppItem::RankEnd(_) => {
                    let Some((mut segmenter, mut online, span)) = active.take() else {
                        return Err(StreamError::Protocol("a rank end outside a rank section"));
                    };
                    if let Some(segment) = segmenter.finish() {
                        online.push_segment(segment, obs);
                    }
                    let seg_stats = segmenter.stats();
                    stats.events += seg_stats.events_in_segments + seg_stats.orphan_events;
                    stats.segments += seg_stats.segments;
                    stats.orphan_events += seg_stats.orphan_events;
                    stats.unterminated_segments += seg_stats.unterminated_segments;
                    stats.matching.absorb(&online.match_stats());
                    let (reduced, returned) = online.finish();
                    *scratch = returned;
                    *stored_retained += reduced.stored_count();
                    stats.peak_resident_segments =
                        stats.peak_resident_segments.max(*stored_retained);
                    stats.ranks += 1;
                    obs.end(trace_obs::Stage::Rank, span);
                    return Ok(reduced);
                }
            }
        }
        Err(StreamError::Protocol(match active {
            Some(_) => "the stream ended inside a rank section",
            None => "the stream ended before a declared rank section",
        }))
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
    reduce_text(reducer, reader, 1, no_second_source)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use trace_format::write_app_trace;
    use trace_reduce::Method;
    use trace_sim::{SizePreset, Workload, WorkloadKind};

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
            let header = ReducedAppTrace::default();
            crate::shard::reduce_sources(&reducer, header, fake, 2, 1, no_second_source)
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
