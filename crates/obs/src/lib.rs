//! Self-instrumentation for the trace-reduction pipeline.
//!
//! The pipeline's stages (parse, segment, match, index, store, compress,
//! chunk I/O) each kept private counters that benches printed ad-hoc.
//! This crate unifies them: a [`Recorder`] owns a run's metrics — counters,
//! high-water gauges and log-bucketed histograms — plus stage span timers,
//! collected through per-worker [`ObsShard`]s that merge lock-free on the
//! hot path and exactly at the end.
//!
//! Three properties the rest of the workspace relies on:
//!
//! * **Zero-cost when disabled.**  [`Recorder::disabled`] and
//!   [`ObsShard::disabled`] allocate nothing and reduce every recording
//!   call to a `None` check, so instrumented code paths are free in
//!   ordinary runs.
//! * **Never behaviour-changing.**  Recording observes, it does not steer;
//!   reduction output is bit-identical with observability on or off
//!   (enforced by the `obs_neutrality` test in `trace_stream`).
//! * **The one audited clock.**  The xtask determinism lint bans
//!   `Instant`/`SystemTime` across core crates, this one included; timing
//!   flows through the injectable [`Clock`] trait, and the only monotonic
//!   implementation lives in [`clock`] behind audited `lint:allow`
//!   entries.  Tests inject a [`ManualClock`] and assert exact reports.
//!
//! Reports come out of [`Recorder::report`] as a [`RunReport`] with three
//! sinks: a text summary ([`RunReport::render_text`]), versioned JSON
//! ([`RunReport::render_json`], schema in `docs/observability.md`) and a
//! chrome://tracing span export ([`RunReport::render_chrome_trace`]).
//!
//! The crate also owns the workspace's worker threads: the one fan-out,
//! [`ordered()`], where every crate that runs ranks in parallel gives each
//! worker a shard.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod clock;
pub mod json;
pub mod metrics;
pub mod names;
pub mod ordered;
pub mod recorder;
pub mod report;

pub use chrome::ChromeEvent;
pub use clock::{Clock, ManualClock, MonotonicClock};
pub use metrics::{Histogram, MetricSet};
pub use ordered::{ordered, WorkerPanic};
pub use recorder::{ObsShard, Recorder, SpanRecord, SpanStart, Stage};
pub use report::{HistogramSnapshot, RunReport};
