//! Similarity-matching fast path vs the naive reference loop.
//!
//! The stored-segments match loop is the innermost layer every reduction
//! method flows through; this bench isolates it by reducing the same
//! workload twice per method — once through the cached-feature fast path
//! (`Reducer`, the production path) and once through the naive reference
//! the differential suites use (`reduce_app_reference`, which recomputes
//! measurement vectors and wavelet transforms per comparison).  Both
//! produce the identical `ReducedAppTrace` (asserted before measuring);
//! throughput is reported in segments/s.  Size the workload with
//! `TRACE_REPRO_PRESET=paper|small|tiny` (default tiny so CI stays fast).

#[path = "../../core/tests/support/reference.rs"]
mod reference;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use reference::reduce_app_reference;
use trace_bench::preset_from_env;
use trace_reduce::{reduce_app_parallel_with_stats, Method, MethodConfig, Reducer};
use trace_sim::{SizePreset, Workload, WorkloadKind};

fn bench_similarity_matching(c: &mut Criterion) {
    let preset = preset_from_env(SizePreset::Tiny);
    let workload = Workload::new(WorkloadKind::DynLoadBalance, preset);
    eprintln!(
        "[matching] generating {} at {preset:?} preset...",
        workload.name()
    );
    let app = workload.generate();
    let segments: usize = app.ranks.iter().map(|r| r.segment_instance_count()).sum();

    // Report the pruning story once per method: how many candidate
    // comparisons the match loop ran and how many never needed a full
    // kernel (resolved by an O(1) prefilter or an early abandon).
    println!(
        "matching {}: {} ranks, {} segment instances",
        workload.name(),
        app.rank_count(),
        segments
    );
    for method in Method::ALL {
        let config = MethodConfig::with_default_threshold(method);
        let reducer = Reducer::new(config);
        let (fast, stats) = reduce_app_parallel_with_stats(&reducer, &app, 1);
        assert_eq!(
            fast,
            reduce_app_reference(config, &app),
            "{method}: fast path must be bit-identical to the reference"
        );
        println!(
            "  {}: {} of {} eligible candidates visited ({:.1}%), {} window-pruned, \
             {:.1}% prefilter-rejected, {:.1}% early-abandoned, {} full kernels",
            config.label(),
            stats.comparisons,
            stats.eligible,
            100.0 * stats.visited_fraction(),
            stats.index_window_prunes,
            100.0 * stats.prefilter_reject_rate(),
            100.0 * stats.early_abandon_rate(),
            stats.full_kernels
        );
    }

    let mut group = c.benchmark_group("matching/reduce");
    group.sample_size(10);
    group.throughput(Throughput::Elements(segments as u64));
    for method in Method::ALL {
        let config = MethodConfig::with_default_threshold(method);
        group.bench_function(BenchmarkId::new("fast", method.name()), |b| {
            b.iter(|| Reducer::new(config).reduce_app(&app))
        });
        group.bench_function(BenchmarkId::new("reference", method.name()), |b| {
            b.iter(|| reduce_app_reference(config, &app))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_similarity_matching);
criterion_main!(benches);
