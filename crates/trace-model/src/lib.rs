#![forbid(unsafe_code)]
//! Trace data model for similarity-based trace reduction.
//!
//! This crate defines the event-trace representation shared by the whole
//! workspace:
//!
//! * [`time::Time`] — fixed-point (nanosecond) time stamps with saturating
//!   arithmetic and float conversions used by the similarity metrics.
//! * [`ids`] — interned identifiers for code regions, segment contexts and
//!   ranks, together with their string tables.
//! * [`event::Event`] — one completed program activity (function invocation,
//!   message-passing call, computation phase) with entry/exit time stamps and
//!   optional communication metadata.
//! * [`record::TraceRecord`] — the raw, per-rank stream written by the
//!   tracer: segment begin/end markers interleaved with events.
//! * [`trace::RankTrace`] / [`trace::AppTrace`] — full per-rank and merged
//!   application traces.
//! * [`segment::Segment`] — a rebased slice of a rank trace delimited by
//!   segment markers; the unit of similarity comparison.
//! * [`reduced::ReducedRankTrace`] / [`reduced::ReducedAppTrace`] — the
//!   output of the reduction: representative segments plus the
//!   `(segment id, start time)` execution log.
//! * [`codec`] — the compact binary record encoding the container stores,
//!   and the byte count every file-size measurement in the evaluation
//!   uses.
//! * [`stats`] — small numeric helpers (percentiles, means) shared by the
//!   evaluation and analysis crates.
//!
//! The model follows Section 3 of Mohror & Karavanic, *Evaluating
//! Similarity-based Trace Reduction Techniques for Scalable Performance
//! Analysis* (2009).

#![warn(missing_docs)]

pub mod codec;
pub mod event;
pub mod ids;
pub mod record;
pub mod reduced;
pub mod segment;
pub mod stats;
pub mod time;
pub mod trace;

pub use event::{CollectiveOp, CommInfo, Event};
pub use ids::{ContextId, ContextTable, Rank, RegionId, RegionTable};
pub use record::TraceRecord;
pub use reduced::{ReducedAppTrace, ReducedRankTrace, SegmentExec, StoredSegment};
pub use segment::{Segment, SegmentKey};
pub use time::{Duration, Time};
pub use trace::{AppTrace, RankTrace, MAX_RESERVED_RANKS};
