//! Per-chunk compression (`trace_compress` through `trace_container`):
//! bytes on disk and ingestion throughput per codec, against the
//! monolithic v1 and uncompressed chunked v2 baselines.
//!
//! For every codec the pipeline output is the identical `ReducedAppTrace`;
//! what changes is the file size (printed as a ratio against `none`) and
//! the decode/reduce wall time of the streaming and index-sharded readers.
//! Size the trace with `TRACE_REPRO_PRESET=paper|small|tiny` (default tiny
//! so CI stays fast).

use std::io::Cursor;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use trace_bench::preset_from_env;
use trace_container::{read_app_container, ChunkSpec, Codec};
use trace_model::codec::encode_app_trace;
use trace_reduce::{Method, Reducer};
use trace_sim::{SizePreset, Workload, WorkloadKind};
use trace_stream::{reduce_container_file, reduce_container_stream};

/// The run replayed back-to-back so even the tiny preset streams many more
/// chunks than the reader ever buffers.
const REPEATS: usize = 10;

fn bench_compression(c: &mut Criterion) {
    let preset = preset_from_env(SizePreset::Tiny);
    let workload = Workload::new(WorkloadKind::Sweep3d8p, preset);
    eprintln!(
        "[compression] generating {} at {preset:?} preset, {REPEATS}x amplified...",
        workload.name()
    );
    let baseline = workload
        .write_container_amplified_to(Vec::new(), REPEATS, ChunkSpec::default())
        .expect("writing to a Vec cannot fail");
    let app = read_app_container(&baseline[..]).expect("container decodes");
    let monolithic = encode_app_trace(&app);
    let reducer = Reducer::with_default_threshold(Method::AvgWave);

    // One compressed container per codec, with the size story printed once.
    println!(
        "compression {}: monolithic v1 {} bytes, container v2 none {} bytes",
        workload.name(),
        monolithic.len(),
        baseline.len()
    );
    let containers: Vec<(Codec, Vec<u8>)> = Codec::ALL
        .into_iter()
        .map(|codec| {
            let bytes = workload
                .write_container_amplified_to(Vec::new(), REPEATS, ChunkSpec::with_codec(codec))
                .expect("writing to a Vec cannot fail");
            println!(
                "  codec {:<8} {:>10} bytes  ({:.2}x vs none)",
                codec.name(),
                bytes.len(),
                baseline.len() as f64 / bytes.len() as f64
            );
            (codec, bytes)
        })
        .collect();

    // Ingestion: stream-reduce each codec (decompression is on this path).
    let mut group = c.benchmark_group("compression/ingest");
    group.sample_size(10);
    for (codec, bytes) in &containers {
        group.bench_function(BenchmarkId::from_parameter(codec.name()), |b| {
            b.iter(|| reduce_container_stream(&reducer, Cursor::new(bytes)).unwrap())
        });
    }
    group.finish();

    // Index-sharded ingestion over the compressed file: seeks + parallel
    // decompression per worker.
    let mut path = std::env::temp_dir();
    path.push(format!(
        "trace_bench_compression_{}.trc",
        std::process::id()
    ));
    let mut group = c.benchmark_group("compression/ingest_sharded_x4");
    group.sample_size(10);
    for (codec, bytes) in &containers {
        std::fs::write(&path, bytes).expect("temp file");
        group.bench_function(BenchmarkId::from_parameter(codec.name()), |b| {
            b.iter(|| reduce_container_file(&reducer, &path, 4).unwrap())
        });
    }
    group.finish();
    let _ = std::fs::remove_file(&path);

    // Encode cost: what compression adds to the writer.
    let mut group = c.benchmark_group("compression/encode");
    group.sample_size(10);
    for codec in Codec::ALL {
        group.bench_function(BenchmarkId::from_parameter(codec.name()), |b| {
            b.iter(|| trace_container::encode_app_container(&app, ChunkSpec::with_codec(codec)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_compression);
criterion_main!(benches);
