//! Overhead of the observability layer (the `trace_obs` subsystem).
//!
//! Every driver records through the [`trace_obs::Recorder`] its `Reducer`
//! carries; the default is a disabled recorder whose shards are `None`
//! inside, so the paths must cost nothing when recording is off and stay
//! within the documented budget (<= 2% on the matching path, see
//! EXPERIMENTS.md) when it is on.  This bench measures both states for the
//! in-memory reducer and the streaming reducer on the same workload.  Size
//! the trace with `TRACE_REPRO_PRESET=paper|small|tiny` (default tiny so
//! CI stays fast).

use std::io::Cursor;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use trace_bench::preset_from_env;
use trace_format::parse_app_trace;
use trace_obs::Recorder;
use trace_reduce::{Method, Reducer};
use trace_sim::{SizePreset, Workload, WorkloadKind};
use trace_stream::reduce_stream;

/// The run replayed back-to-back (same amplification as the other
/// streaming benches) so the measured work is the matching pipeline, not
/// the fixed per-run recorder setup and merge.
const REPEATS: usize = 10;

fn bench_obs_overhead(c: &mut Criterion) {
    let preset = preset_from_env(SizePreset::Tiny);
    let workload = Workload::new(WorkloadKind::DynLoadBalance, preset);
    eprintln!(
        "[obs] generating {} at {preset:?} preset, {REPEATS}x amplified...",
        workload.name()
    );
    let text = workload
        .write_text_amplified_to(Vec::new(), REPEATS)
        .expect("writing to a Vec cannot fail");
    let app = parse_app_trace(std::str::from_utf8(&text).expect("generated text is UTF-8"))
        .expect("generated text parses");
    let disabled = Reducer::with_default_threshold(Method::AvgWave);
    let enabled = || disabled.clone().with_recorder(&Recorder::enabled());

    // Each enabled iteration pays the whole realistic cost: recorder
    // construction, span recording, counter draining and the final merge.
    let mut group = c.benchmark_group("obs/overhead");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("in_memory_disabled"), |b| {
        b.iter(|| disabled.reduce_app(&app))
    });
    group.bench_function(BenchmarkId::from_parameter("in_memory_enabled"), |b| {
        b.iter(|| enabled().reduce_app(&app))
    });
    group.bench_function(BenchmarkId::from_parameter("stream_disabled"), |b| {
        b.iter(|| reduce_stream(&disabled, Cursor::new(text.as_slice())).unwrap())
    });
    group.bench_function(BenchmarkId::from_parameter("stream_enabled"), |b| {
        b.iter(|| reduce_stream(&enabled(), Cursor::new(text.as_slice())).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
