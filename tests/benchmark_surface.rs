//! Tier-1 pin of the library surface `benchmark/` links against.
//!
//! `benchmark/` is a workspace of its own, so `cargo build && cargo test` at
//! the repository root never compiles it: an API change that would stop the
//! benchmark building goes unseen until the PR driver runs it.  This file
//! names, with the exact argument and return types, every library item
//! listed in `benchmark/README.md`, section "What the harness links
//! against".  It checks nothing at run time — if it compiles, the harness
//! still links.  Change an item here only together with that section (and
//! the benchmark PR it asks for).

use std::fs::File;
use std::io::BufReader;

use trace_compress::{compress, decompress, CompressError, PayloadClass};
use trace_container::{
    decode_app_any, decode_reduced_any, encode_app_container, encode_reduced_container,
    read_app_container, ChunkSpec, Codec, ContainerError,
};
use trace_eval::approximation_distance_us;
use trace_format::{parse_app_trace, write_app_trace, FormatError};
use trace_model::{AppTrace, Rank, RankTrace, ReducedAppTrace, Segment};
use trace_obs::{chrome, json, names, ChromeEvent, RunReport, Stage};
use trace_reduce::{reduce_app_parallel, segments_of_rank, Method, MethodConfig, Reducer};
use trace_sim::dynload::{dyn_load_balance, DynLoadParams};
use trace_sim::sweep3d::{sweep3d, Sweep3dParams};
use trace_stream::{AppItem, StreamError, StreamParser};
use trace_tools::{parse_args, run, Invocation};

type Parser = StreamParser<BufReader<File>>;
type BlockCodec = fn(Codec, PayloadClass, &[u8]) -> Result<Vec<u8>, CompressError>;

#[test]
fn every_item_the_benchmark_links_keeps_its_signature() {
    // trace_tools: the CLI, in process.
    let _: fn(&[String]) -> Result<Invocation, String> = parse_args;
    let _: fn(&Invocation) -> Result<String, String> = run;

    // trace_sim: the two generators and the parameter fields the harness sets.
    let _: fn(&str, &Sweep3dParams) -> AppTrace = sweep3d;
    let _: fn(&DynLoadParams) -> AppTrace = dyn_load_balance;
    let _: fn() -> Sweep3dParams = Sweep3dParams::paper_32p;
    let _: fn() -> Sweep3dParams = Sweep3dParams::small;
    let _: fn() -> DynLoadParams = DynLoadParams::paper;
    let _ = |p: Sweep3dParams| -> (usize, u64) { (p.iterations, p.seed) };
    let _ = |p: DynLoadParams| -> (usize, usize, u64) { (p.iterations, p.rebalance_every, p.seed) };

    // trace_format: the in-memory text writer and parser.
    let _: fn(&AppTrace) -> String = write_app_trace;
    let _: fn(&str) -> Result<AppTrace, FormatError> = parse_app_trace;

    // trace_stream: the pull parser, drained and skipped.
    let _: fn(BufReader<File>) -> Result<Parser, StreamError> = StreamParser::new;
    let _: fn(&mut Parser) -> Result<Option<AppItem>, StreamError> = StreamParser::next_item;
    let _: fn(&mut Parser) -> Result<Rank, StreamError> = StreamParser::skip_current_rank;
    let _: fn(Rank) -> AppItem = AppItem::RankStart;

    // trace_container: whole-trace encode and decode.
    let _: fn(&AppTrace, ChunkSpec) -> Vec<u8> = encode_app_container;
    let _: fn(&ReducedAppTrace, ChunkSpec) -> Vec<u8> = encode_reduced_container;
    let _ = |bytes: &[u8]| -> Result<AppTrace, ContainerError> { read_app_container(bytes) };
    let _: fn(&[u8]) -> Result<AppTrace, ContainerError> = decode_app_any;
    let _: fn(&[u8]) -> Result<ReducedAppTrace, ContainerError> = decode_reduced_any;
    let _: fn(Codec) -> ChunkSpec = ChunkSpec::with_codec;
    let _ = [Codec::None, Codec::Lz, Codec::DeltaLz];

    // trace_compress: one block, either direction.
    let _: BlockCodec = compress;
    let _: BlockCodec = decompress;
    let _ = PayloadClass::Opaque;

    // trace_reduce: the segmenter and the two in-memory drivers.
    let _: fn(MethodConfig) -> Reducer = Reducer::new;
    let _: fn(&Reducer, &AppTrace) -> ReducedAppTrace = Reducer::reduce_app;
    let _: fn(&Reducer, &AppTrace, usize) -> ReducedAppTrace = reduce_app_parallel;
    let _: fn(&RankTrace) -> Vec<Segment> = segments_of_rank;
    let _: fn(Method, f64) -> MethodConfig = MethodConfig::new;
    let _: fn(Method) -> MethodConfig = MethodConfig::with_default_threshold;
    let _ = |c: MethodConfig| -> (Method, f64) { (c.method, c.threshold) };
    let _ = [Method::AvgWave, Method::RelDiff];

    // trace_model: what the harness reads off a reduced trace.
    let _: fn(&ReducedAppTrace) -> AppTrace = ReducedAppTrace::reconstruct;
    let _: fn(&ReducedAppTrace) -> usize = ReducedAppTrace::total_execs;
    let _: fn(&ReducedAppTrace) -> usize = ReducedAppTrace::total_stored;
    let _: fn(&ReducedAppTrace) -> f64 = ReducedAppTrace::degree_of_matching;
    let _ = |app: &AppTrace| -> usize { app.ranks.len() };

    // trace_eval: the paper's criterion 3.
    let _: fn(&AppTrace, &AppTrace) -> f64 = approximation_distance_us;

    // trace_obs: the run report the CLI writes, the stage taxonomy, the
    // counter names `benchmark/src/layers.rs` reads, and the chrome / JSON
    // helpers the harness's own span export is built on.
    let _: fn(&str) -> Result<RunReport, String> = RunReport::from_json;
    let _ = |report: &RunReport, stage: Stage| -> (u64, u64, u64) {
        (
            report
                .counters
                .get(names::MATCH_COMPARISONS)
                .copied()
                .unwrap_or(0),
            report
                .gauges
                .get(names::STREAM_PEAK_CHUNK_BYTES)
                .copied()
                .unwrap_or(0),
            report
                .histograms
                .get(stage.histogram_name())
                .map_or(0, |h| h.sum),
        )
    };
    let _: [Stage; 8] = Stage::ALL;
    let _: [Stage; 8] = [
        Stage::Parse,
        Stage::Segment,
        Stage::Match,
        Stage::Index,
        Stage::Store,
        Stage::Compress,
        Stage::ChunkIo,
        Stage::Rank,
    ];
    let _: [&str; 8] = [
        names::MATCH_COMPARISONS,
        names::MATCH_ELIGIBLE,
        names::MATCH_INDEX_WINDOW_PRUNES,
        names::MATCH_INDEX_PIVOT_PRUNES,
        names::STREAM_SEGMENTS,
        names::STREAM_PEAK_RESIDENT_SEGMENTS,
        names::STREAM_PEAK_CHUNK_BYTES,
        names::CHUNK_READS,
    ];
    let _: fn(&[ChromeEvent]) -> String = chrome::render;
    let _: fn(&str) -> Result<Vec<ChromeEvent>, String> = chrome::parse;
    let _: fn(&str, &mut String) = json::escape_into;
    let _ = |name: String, cat: String| ChromeEvent {
        name,
        cat,
        pid: 1u64,
        tid: 0u64,
        ts_ns: 0u64,
        dur_ns: 0u64,
    };
}
