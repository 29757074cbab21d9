//! Binary ingestion pipelines: monolithic v1 decode vs chunked v2
//! streaming vs index-sharded parallel ingestion (the `trace_container`
//! subsystem).
//!
//! All three pipelines produce the same `ReducedAppTrace`; the measurement
//! compares decode-then-reduce over a fully materialized buffer against
//! the one-pass chunked reader and against workers seeking straight to
//! their rank sections via the index footer.  Size the trace with
//! `TRACE_REPRO_PRESET=paper|small|tiny` (default tiny so CI stays fast).

use std::io::Cursor;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use trace_bench::preset_from_env;
use trace_container::{encode_app_container, read_app_container, ChunkSpec};
use trace_model::codec::{decode_app_trace, encode_app_trace};
use trace_reduce::{Method, Reducer};
use trace_sim::{SizePreset, Workload, WorkloadKind};
use trace_stream::{reduce_container_file, reduce_container_stream};

/// The run replayed back-to-back so even the tiny preset streams an order
/// of magnitude more chunks than the reader ever buffers.
const REPEATS: usize = 10;

fn bench_container_ingestion(c: &mut Criterion) {
    let preset = preset_from_env(SizePreset::Tiny);
    let workload = Workload::new(WorkloadKind::DynLoadBalance, preset);
    eprintln!(
        "[container] generating {} at {preset:?} preset, {REPEATS}x amplified...",
        workload.name()
    );
    let container = workload
        .write_container_amplified_to(Vec::new(), REPEATS, ChunkSpec::default())
        .expect("writing to a Vec cannot fail");
    // The same amplified trace as one monolithic v1 buffer.
    let app = read_app_container(&container[..]).expect("container decodes");
    let monolithic = encode_app_trace(&app);
    let reducer = Reducer::with_default_threshold(Method::AvgWave);

    // Report the memory story once, through the same run-report formatter
    // the CLI's `--obs` flag uses (a monolithic decode holds the whole v1
    // buffer; the streaming reader only `stream.peak_chunk_bytes`).
    let reduction = reduce_container_stream(&reducer, Cursor::new(&container)).unwrap();
    println!(
        "container {}: v1 {} bytes, v2 {} bytes",
        workload.name(),
        monolithic.len(),
        container.len()
    );
    let recorder = trace_obs::Recorder::enabled();
    let mut shard = recorder.shard();
    reduction.stats.record_into(&mut shard);
    shard.finish();
    println!("{}", recorder.report().render_text());

    // The sharded driver needs a real file for the seekable index footer.
    let mut path = std::env::temp_dir();
    path.push(format!("trace_bench_container_{}.trc", std::process::id()));
    std::fs::write(&path, &container).expect("temp file");

    let mut group = c.benchmark_group("container/ingest");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("monolithic_v1"), |b| {
        b.iter(|| {
            let app = decode_app_trace(&monolithic).unwrap();
            reducer.reduce_app(&app)
        })
    });
    group.bench_function(BenchmarkId::from_parameter("container_stream"), |b| {
        b.iter(|| reduce_container_stream(&reducer, Cursor::new(&container)).unwrap())
    });
    for shards in [2usize, 4] {
        group.bench_function(
            BenchmarkId::from_parameter(format!("container_shards_{shards}")),
            |b| b.iter(|| reduce_container_file(&reducer, &path, shards).unwrap()),
        );
    }
    group.finish();

    let _ = std::fs::remove_file(&path);

    // Encoding cost: monolithic buffer vs chunked writer, across chunk sizes.
    let mut group = c.benchmark_group("container/encode");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("monolithic_v1"), |b| {
        b.iter(|| encode_app_trace(&app))
    });
    for segments_per_chunk in [16usize, 128] {
        group.bench_function(
            BenchmarkId::from_parameter(format!("container_chunks_{segments_per_chunk}")),
            |b| b.iter(|| encode_app_container(&app, ChunkSpec::with_segments(segments_per_chunk))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_container_ingestion);
criterion_main!(benches);
