//! Analysis reports over *reduced* traces.
//!
//! Reduction is only useful if someone can look at the result.  This
//! crate turns a [`trace_model::ReducedAppTrace`] — plus, optionally, the
//! original full trace and the [`trace_obs::RunReport`] of the reduce
//! that produced it — into one analysis model ([`ReportModel`]) and
//! renders that model through three sinks that cannot disagree:
//!
//! * **Text** ([`render_text`]): `trace_eval` tables plus the severity
//!   ASCII chart, for terminals and logs.
//! * **HTML** ([`render_html`]): a single self-contained static file with
//!   no external assets, deterministic byte-for-byte, with a
//!   machine-readable JSON island serialised by the canonical writer in
//!   [`trace_obs::json`].
//! * **chrome://tracing** ([`render_chrome_trace`]): the reduced timeline
//!   itself — one complete event per segment execution — through the same
//!   shared [`trace_obs::chrome`] writer the pipeline-span export uses.
//!
//! The model side computes per-rank divergence (which ranks' stored
//! representatives drift from their peers, scored against an element-wise
//! median baseline and cross-checked with the paper's own similarity
//! kernels — see [`divergence`]), a region/callpath trie of where the
//! reduced timeline spends time ([`trie`]), match-quality and pipeline
//! summaries, and — given the original — the paper's four criteria from
//! `trace_eval`'s one evaluator ([`model`]).
//!
//! Everything here is deterministic: ordered collections only, no clocks,
//! no randomness, total float ordering.  The crate sits on the xtask
//! determinism and decode-surface lint lists.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod divergence;
pub mod html;
pub mod model;
pub mod text;
pub mod timeline;
pub mod trie;

pub use divergence::{DivergenceReport, RankDivergence};
pub use html::render_html;
pub use model::{
    build_model, FullComparison, PipelineSummary, RankSummary, ReportModel, ReportOptions,
    StageSummary, WaitState,
};
pub use text::render_text;
pub use timeline::{reduced_timeline, render_chrome_trace};
pub use trie::{RegionStat, RegionTrie, TrieNode};
