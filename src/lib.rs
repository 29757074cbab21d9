#![forbid(unsafe_code)]
//! Umbrella crate re-exporting the trace-reduction workspace public API.
//!
//! See the individual crates for details:
//! * [`trace_model`] — trace/event/segment data model and binary codec.
//! * [`trace_sim`] — virtual-time message-passing simulator and workloads.
//! * [`trace_reduce`] — segmentation, the nine similarity methods, reduction,
//!   reconstruction, and (as [`wavelet`]) the discrete wavelet transforms the
//!   wavelet metrics use.
//! * [`trace_analysis`] — EXPERT-like wait-state analysis and trend comparison.
//! * [`trace_eval`] — evaluation criteria and the paper's experiment drivers.
//! * [`trace_format`] — OTF-style text trace format writer/parser.
//! * [`trace_stream`] — online, bounded-memory streaming reduction over
//!   text trace files and chunked binary containers (incremental parsers,
//!   online reducer, sharded drivers).
//! * [`trace_container`] — chunked, indexed binary trace container
//!   (`.trc` v2) with CRC-checked chunks and a seekable index footer.
//! * [`trace_compress`] — per-chunk compression codecs for the container:
//!   trace-aware column transforms and a self-contained LZ byte backend.
//! * [`trace_obs`] — self-instrumentation: unified metrics registry, stage
//!   span timers and machine-readable run reports (text/JSON/chrome-trace).
//! * [`trace_report`] — reduced-trace analysis reports: per-rank divergence,
//!   region trie, HTML / chrome://tracing / text sinks.

pub use trace_analysis as analysis;
pub use trace_compress as compress;
pub use trace_container as container;
pub use trace_eval as eval;
pub use trace_format as format;
pub use trace_model as model;
pub use trace_obs as obs;
pub use trace_reduce as reduce;
pub use trace_reduce::wavelet;
pub use trace_report as report;
pub use trace_sim as sim;
pub use trace_stream as stream;
