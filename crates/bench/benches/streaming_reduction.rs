//! Streaming vs in-memory reduction (the `trace_stream` subsystem).
//!
//! Both pipelines start from the same text-format bytes and produce the
//! same `ReducedAppTrace`; the measurement compares parse-then-reduce (full
//! `AppTrace` materialized) against the one-pass bounded-memory streaming
//! reducer, plus the sharded streaming driver.  Size the trace with
//! `TRACE_REPRO_PRESET=paper|small|tiny` (default tiny so CI stays fast).

use std::io::Cursor;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use trace_bench::preset_from_env;
use trace_format::parse_app_trace;
use trace_reduce::{Method, Reducer};
use trace_sim::{SizePreset, Workload, WorkloadKind};
use trace_stream::{reduce_stream, reduce_stream_sharded};

/// The run replayed back-to-back so even the tiny preset streams an order
/// of magnitude more segments than the reducer retains.
const REPEATS: usize = 10;

fn bench_streaming_reduction(c: &mut Criterion) {
    let preset = preset_from_env(SizePreset::Tiny);
    let workload = Workload::new(WorkloadKind::DynLoadBalance, preset);
    eprintln!(
        "[streaming] generating {} at {preset:?} preset, {REPEATS}x amplified...",
        workload.name()
    );
    let text = workload
        .write_text_amplified_to(Vec::new(), REPEATS)
        .expect("writing to a Vec cannot fail");
    let reducer = Reducer::with_default_threshold(Method::AvgWave);

    // Report the memory and pruning story once, through the same run-report
    // formatter the CLI's `--obs` flag uses (one rendering, no bench-local
    // stat formatting to drift out of sync).
    let reduction = reduce_stream(&reducer, Cursor::new(text.as_slice())).unwrap();
    println!(
        "streaming {}: {} bytes of text",
        workload.name(),
        text.len()
    );
    let recorder = trace_obs::Recorder::enabled();
    let mut shard = recorder.shard();
    reduction.stats.record_into(&mut shard);
    shard.finish();
    println!("{}", recorder.report().render_text());

    let mut group = c.benchmark_group("streaming/reduce");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("in_memory"), |b| {
        b.iter(|| {
            let app = parse_app_trace(std::str::from_utf8(&text).unwrap()).unwrap();
            reducer.reduce_app(&app)
        })
    });
    group.bench_function(BenchmarkId::from_parameter("stream"), |b| {
        b.iter(|| reduce_stream(&reducer, Cursor::new(text.as_slice())).unwrap())
    });
    for shards in [2usize, 4] {
        group.bench_function(
            BenchmarkId::from_parameter(format!("stream_shards_{shards}")),
            |b| {
                b.iter(|| {
                    reduce_stream_sharded(&reducer, shards, |_| Ok(Cursor::new(text.clone())))
                        .unwrap()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_streaming_reduction);
criterion_main!(benches);
