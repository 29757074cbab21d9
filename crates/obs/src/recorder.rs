//! The recorder: sharded metric collection with stage span timers.
//!
//! A [`Recorder`] is either disabled (a `None` inside, every operation a
//! no-op) or an `Arc`-shared registry.  Work happens against [`ObsShard`]
//! handles — one per worker thread — which buffer counters and spans
//! locally and merge into the registry on [`ObsShard::finish`] (or drop),
//! so the hot path never takes a lock.  Stage timings use explicit
//! [`ObsShard::start`]/[`ObsShard::end`] pairs rather than RAII guards so
//! a span can bracket code that also records counters on the same shard.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::clock::{Clock, MonotonicClock};
use crate::metrics::MetricSet;
use crate::names::OBS_SPANS_DROPPED;
use crate::report::RunReport;

/// Cap on buffered spans per shard; beyond it spans are counted into the
/// `obs.spans_dropped` counter instead of silently vanishing.
pub(crate) const MAX_SPANS_PER_SHARD: usize = 65_536;

/// A pipeline stage whose duration the recorder can measure.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Reading and decoding an input trace (text or binary).
    Parse,
    /// Cutting a rank's event stream into candidate segments.
    Segment,
    /// Matching candidate segments against stored representatives.
    Match,
    /// Inserting a newly stored representative into the candidate index.
    Index,
    /// Encoding and writing reduced output.
    Store,
    /// Running a codec over a chunk payload (either direction).
    Compress,
    /// Reading and CRC-checking a chunk frame from a container.
    ChunkIo,
    /// One rank section of the fused streaming loop, where parse, segment
    /// and match interleave per record and cannot be timed separately.
    Rank,
}

impl Stage {
    /// Every stage, in taxonomy order.
    pub const ALL: [Stage; 8] = [
        Stage::Parse,
        Stage::Segment,
        Stage::Match,
        Stage::Index,
        Stage::Store,
        Stage::Compress,
        Stage::ChunkIo,
        Stage::Rank,
    ];

    /// The stage's stable snake_case name (part of the JSON schema).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Segment => "segment",
            Stage::Match => "match",
            Stage::Index => "index",
            Stage::Store => "store",
            Stage::Compress => "compress",
            Stage::ChunkIo => "chunk_io",
            Stage::Rank => "rank",
        }
    }

    /// Name of the histogram that accumulates this stage's span durations.
    pub fn histogram_name(self) -> &'static str {
        match self {
            Stage::Parse => "span.parse.ns",
            Stage::Segment => "span.segment.ns",
            Stage::Match => "span.match.ns",
            Stage::Index => "span.index.ns",
            Stage::Store => "span.store.ns",
            Stage::Compress => "span.compress.ns",
            Stage::ChunkIo => "span.chunk_io.ns",
            Stage::Rank => "span.rank.ns",
        }
    }

    /// Parses a stage from its stable name.
    pub fn by_name(name: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.name() == name)
    }
}

/// One completed stage span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Which stage ran.
    pub stage: Stage,
    /// The shard (≈ worker thread) that recorded it.
    pub shard: u32,
    /// Start reading of the recorder's clock, nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// An in-flight span: the clock reading at [`ObsShard::start`], or nothing
/// when the shard is disabled.  `Copy`, so holding one never borrows the
/// shard.
#[derive(Clone, Copy, Debug)]
pub struct SpanStart(Option<u64>);

struct Merged {
    metrics: MetricSet,
    spans: Vec<SpanRecord>,
    dropped_spans: u64,
}

struct RecorderInner {
    clock: Arc<dyn Clock>,
    merged: Mutex<Merged>,
    next_shard: AtomicU32,
}

/// Handle to a run's metric registry, cheap to clone and share.
///
/// Disabled recorders ([`Recorder::disabled`]) carry no allocation and make
/// every recording call a no-op, so instrumented code paths cost nothing
/// when observability is off.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<RecorderInner>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Recorder {
    /// A recorder that records nothing, at no cost.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// A live recorder timing against the real monotonic clock.
    pub fn enabled() -> Recorder {
        Recorder::with_clock(MonotonicClock::new())
    }

    /// A live recorder timing against an injected clock (tests use a
    /// [`crate::ManualClock`] for exactly reproducible reports).
    pub fn with_clock(clock: impl Clock + 'static) -> Recorder {
        Recorder {
            inner: Some(Arc::new(RecorderInner {
                clock: Arc::new(clock),
                merged: Mutex::new(Merged {
                    metrics: MetricSet::default(),
                    spans: Vec::new(),
                    dropped_spans: 0,
                }),
                next_shard: AtomicU32::new(0),
            })),
        }
    }

    /// True when this recorder actually records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a new shard for one worker's recordings.  Shards buffer
    /// locally and merge into the registry when finished or dropped.
    pub fn shard(&self) -> ObsShard {
        match &self.inner {
            None => ObsShard::disabled(),
            Some(inner) => ObsShard {
                inner: Some(Box::new(ShardInner {
                    id: inner.next_shard.fetch_add(1, Ordering::Relaxed),
                    clock: Arc::clone(&inner.clock),
                    home: Arc::clone(inner),
                    metrics: MetricSet::default(),
                    spans: Vec::new(),
                    dropped_spans: 0,
                })),
            },
        }
    }

    /// Snapshots everything merged so far into a [`RunReport`].  Call after
    /// all shards have finished; unfinished shards' data is absent.
    pub fn report(&self) -> RunReport {
        match &self.inner {
            None => RunReport::default(),
            Some(inner) => {
                let merged = inner.merged.lock().unwrap_or_else(PoisonError::into_inner);
                let mut metrics = merged.metrics.clone();
                if merged.dropped_spans > 0 {
                    metrics.add(OBS_SPANS_DROPPED, merged.dropped_spans);
                }
                let mut spans = merged.spans.clone();
                spans.sort_by_key(|s| (s.start_ns, s.shard, s.dur_ns, s.stage));
                RunReport::from_parts(&metrics, spans)
            }
        }
    }
}

struct ShardInner {
    id: u32,
    clock: Arc<dyn Clock>,
    home: Arc<RecorderInner>,
    metrics: MetricSet,
    spans: Vec<SpanRecord>,
    dropped_spans: u64,
}

/// One worker's buffered view of a [`Recorder`].
///
/// Not `Clone`: each worker gets its own shard from [`Recorder::shard`].
/// [`ObsShard::disabled`] allocates nothing, so callers without a recorder
/// can construct one per call site for free.
#[derive(Default)]
pub struct ObsShard {
    inner: Option<Box<ShardInner>>,
}

impl ObsShard {
    /// A shard that records nothing, at no cost.
    pub fn disabled() -> ObsShard {
        ObsShard { inner: None }
    }

    /// True when this shard actually records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `delta` to the named counter.
    #[inline]
    pub fn add(&mut self, name: &'static str, delta: u64) {
        if let Some(inner) = &mut self.inner {
            inner.metrics.add(name, delta);
        }
    }

    /// Raises the named gauge to `value` if larger.
    #[inline]
    pub fn gauge_max(&mut self, name: &'static str, value: u64) {
        if let Some(inner) = &mut self.inner {
            inner.metrics.gauge_max(name, value);
        }
    }

    /// Records `value` into the named histogram.
    #[inline]
    pub fn observe(&mut self, name: &'static str, value: u64) {
        if let Some(inner) = &mut self.inner {
            inner.metrics.observe(name, value);
        }
    }

    /// Reads the clock to open a span.  Pair with [`ObsShard::end`].
    #[inline]
    pub fn start(&self) -> SpanStart {
        SpanStart(self.inner.as_ref().map(|inner| inner.clock.now_ns()))
    }

    /// Closes a span opened by [`ObsShard::start`]: records its duration
    /// into the stage's histogram and buffers a [`SpanRecord`] for the
    /// trace export (up to `MAX_SPANS_PER_SHARD`; overflow is counted,
    /// not silent).
    pub fn end(&mut self, stage: Stage, start: SpanStart) {
        let (Some(inner), SpanStart(Some(start_ns))) = (&mut self.inner, start) else {
            return;
        };
        let dur_ns = inner.clock.now_ns().saturating_sub(start_ns);
        inner.metrics.observe(stage.histogram_name(), dur_ns);
        if inner.spans.len() < MAX_SPANS_PER_SHARD {
            inner.spans.push(SpanRecord {
                stage,
                shard: inner.id,
                start_ns,
                dur_ns,
            });
        } else {
            inner.dropped_spans += 1;
        }
    }

    /// Merges this shard's buffered data into its recorder.  Dropping the
    /// shard does the same; `finish` just makes the flush point explicit.
    pub fn finish(self) {
        drop(self);
    }

    fn flush(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        // A panic mid-merge poisons the lock, not the data: a merge is
        // counter addition and a report is diagnostics, so recover it.
        let mut merged = inner
            .home
            .merged
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        merged.metrics.absorb(&inner.metrics);
        merged.spans.extend_from_slice(&inner.spans);
        merged.dropped_spans += inner.dropped_spans;
    }
}

impl Drop for ObsShard {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use std::sync::Arc as StdArc;

    #[test]
    fn stage_names_round_trip() {
        for stage in Stage::ALL {
            assert_eq!(Stage::by_name(stage.name()), Some(stage));
        }
        assert_eq!(Stage::by_name("nope"), None);
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let recorder = Recorder::disabled();
        assert!(!recorder.is_enabled());
        let mut shard = recorder.shard();
        assert!(!shard.is_enabled());
        shard.add("x", 1);
        let span = shard.start();
        shard.end(Stage::Match, span);
        shard.finish();
        let report = recorder.report();
        assert!(report.counters.is_empty());
        assert!(report.spans.is_empty());
    }

    #[test]
    fn shards_merge_exactly() {
        let clock = ManualClock::new(0);
        let recorder = Recorder::with_clock(clock);
        let mut a = recorder.shard();
        let mut b = recorder.shard();
        a.add("match.comparisons", 3);
        b.add("match.comparisons", 4);
        a.gauge_max("stream.peak_chunk_bytes", 10);
        b.gauge_max("stream.peak_chunk_bytes", 90);
        a.finish();
        b.finish();
        let report = recorder.report();
        assert_eq!(report.counters.get("match.comparisons"), Some(&7));
        assert_eq!(report.gauges.get("stream.peak_chunk_bytes"), Some(&90));
    }

    #[test]
    fn spans_use_the_injected_clock() {
        let clock = StdArc::new(ManualClock::new(100));
        let recorder = Recorder::with_clock(SharedClock(StdArc::clone(&clock)));
        let mut shard = recorder.shard();
        let span = shard.start();
        clock.advance(250);
        shard.end(Stage::Rank, span);
        shard.finish();
        let report = recorder.report();
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.spans[0].stage, Stage::Rank);
        assert_eq!(report.spans[0].start_ns, 100);
        assert_eq!(report.spans[0].dur_ns, 250);
        let h = report.histograms.get(Stage::Rank.histogram_name()).unwrap();
        assert_eq!((h.count, h.sum), (1, 250));
    }

    #[test]
    fn span_overflow_is_counted_not_silent() {
        let clock = ManualClock::new(0);
        let recorder = Recorder::with_clock(clock);
        let mut shard = recorder.shard();
        for _ in 0..(MAX_SPANS_PER_SHARD + 5) {
            let span = shard.start();
            shard.end(Stage::Compress, span);
        }
        shard.finish();
        let report = recorder.report();
        assert_eq!(report.spans.len(), MAX_SPANS_PER_SHARD);
        assert_eq!(report.counters.get(OBS_SPANS_DROPPED), Some(&5));
    }

    #[test]
    fn dropping_a_shard_flushes_it() {
        let recorder = Recorder::with_clock(ManualClock::new(0));
        {
            let mut shard = recorder.shard();
            shard.add("stream.ranks", 2);
        }
        assert_eq!(recorder.report().counters.get("stream.ranks"), Some(&2));
    }

    struct SharedClock(StdArc<ManualClock>);

    impl Clock for SharedClock {
        fn now_ns(&self) -> u64 {
            self.0.now_ns()
        }
    }
}
