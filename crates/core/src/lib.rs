#![forbid(unsafe_code)]
//! Similarity-based trace reduction (the paper's primary contribution).
//!
//! This crate implements the intra-process trace-reduction technique of
//! Mohror & Karavanic (2009) and all nine similarity methods the paper
//! evaluates:
//!
//! * [`segmenter`] — cuts a per-rank trace into [`trace_model::Segment`]s at
//!   the segment markers and rebases each to its start time (Section 3.1),
//!   lending each one out ([`SegmentRef`]) with a hash of its shape.
//! * [`method`] — the method catalogue: `relDiff`, `absDiff`, `Manhattan`,
//!   `Euclidean`, `Chebyshev`, `avgWave`, `haarWave`, `iter_k`, `iter_avg`,
//!   together with the paper's threshold grids and per-method default
//!   thresholds (Section 5.1/5.2).
//! * [`metric`] — the similarity predicates for the distance methods
//!   (Section 3.2).
//! * [`reducer`] — the stored-segments matching algorithm that turns a full
//!   trace into a [`trace_model::ReducedAppTrace`].  A [`Reducer`] is a
//!   method and a recorder (disabled unless [`Reducer::with_recorder`]
//!   attaches one); every driver, here and in `trace_stream`, is one
//!   function of `(&Reducer, source[, workers])`, and all of them run the
//!   same match loop.
//! * [`features`] — cached per-segment features ([`SegmentFeatures`]),
//!   reusable matching buffers ([`MatchScratch`]) and the allocation-free,
//!   prefiltered, early-abandoning similarity kernels the match loop runs.
//! * [`index`] — the reducer's one candidate search: a duration-sorted
//!   window over the cached features, scanning small buckets directly and
//!   returning surviving candidates in insertion order, so first-match
//!   semantics are preserved bit-identically (`docs/index-design.md`).  The
//!   naive loop it replaced is test support only; the differential suite
//!   requires bit-identical reduced traces from both.
//! * [`parallel`] — the in-memory application loop: per-rank reduction on
//!   crossbeam scoped threads (each rank's trace is reduced independently,
//!   exactly as the paper's intra-process technique allows), with
//!   [`Reducer::reduce_app`] as its one-worker case.
//! * [`dtw`] / [`extended`] — the extended method catalogue (dynamic time
//!   warping, cosine, normalized Euclidean, CDF 9/7 wavelet, delta-time
//!   histograms) that the paper's conclusion lists as future work, plugged
//!   into the same stored-segments algorithm via
//!   [`reducer::reduce_rank_with_predicate`].
//!
//! # Quick start
//!
//! ```
//! use trace_reduce::{Method, MethodConfig, Reducer};
//! use trace_sim::{SizePreset, Workload, WorkloadKind};
//!
//! // Generate a small trace with a known performance problem.
//! let full = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
//!
//! // Reduce it with the average-wavelet metric at the paper's default
//! // threshold, then reconstruct an approximate full trace.
//! let reducer = Reducer::new(MethodConfig::with_default_threshold(Method::AvgWave));
//! let reduced = reducer.reduce_app(&full);
//! let approx = reduced.reconstruct();
//!
//! assert_eq!(approx.rank_count(), full.rank_count());
//! assert!(reduced.degree_of_matching() > 0.5);
//!
//! // Observed, the same run reduces to the same trace.
//! let recorder = trace_obs::Recorder::enabled();
//! assert_eq!(reducer.with_recorder(&recorder).reduce_app(&full), reduced);
//! assert!(recorder.report().counters.contains_key("match.comparisons"));
//! ```

#![warn(missing_docs)]

pub mod dtw;
pub mod extended;
pub mod features;
pub mod index;
pub mod method;
pub mod metric;
pub mod parallel;
pub mod reducer;
pub mod segmenter;

pub use dtw::{dtw_distance, dtw_within, normalized_dtw_distance};
pub use extended::{segments_match_extended, ExtendedConfig, ExtendedMethod, ExtendedReducer};
pub use features::{segments_match_cached, MatchScratch, MatchStats, SegmentFeatures};
pub use method::{Method, MethodConfig};
pub use metric::segments_match;
pub use parallel::{reduce_app_parallel, reduce_app_parallel_with_stats, scoped_workers};
pub use reducer::{
    reduce_app_with_predicate, reduce_rank_with_predicate, OnlineRankReducer, RankReduction,
    Reducer,
};
pub use segmenter::{segments_of_rank, OnlineSegmenter, SegmentRef, SegmentationStats};
