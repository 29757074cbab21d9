//! Stored-set-size sweep: the candidate index vs a linear scan vs the
//! naive reference.
//!
//! The candidate index exists so per-segment matching cost stays bounded
//! as the stored-representative set grows.  This bench makes that scaling
//! claim measurable: `dyn_load_balance` is regenerated with its drift
//! range (and therefore its stored set) scaled 1×..16× while the match
//! rate stays high — the matching-heavy regime of the paper — and each
//! size is reduced through the reducer.  The printed table reports the
//! visited fraction (comparisons / eligible stored candidates) per method
//! and size, beside what a linear first-match scan would have visited:
//! `MatchStats::candidates()`, the visited comparisons plus the window
//! prunes.  The indexed fraction must *fall* as the stored set grows while
//! the linear scan's stays flat.  The sweep endpoints are then timed
//! against the naive reference, after checking it reduces to the same
//! bits.
//!
//! The aggregate assertion at the largest swept size (indexed strictly
//! below linear on visited candidates) runs at every preset, so CI's tiny
//! smoke run fails the build if an index regression makes pruning decay.
//! Size with `TRACE_REPRO_PRESET=paper|small|tiny` (default tiny).

#[path = "../../core/tests/support/reference.rs"]
mod reference;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use reference::reduce_app_reference;
use trace_bench::{matching_sweep_scales, preset_from_env, scaled_dynload};
use trace_reduce::{reduce_app_parallel_with_stats, Method, MethodConfig, Reducer};
use trace_sim::SizePreset;

fn metric_methods() -> impl Iterator<Item = Method> {
    Method::ALL.into_iter().filter(|m| m.is_distance_method())
}

fn bench_matching_scaling(c: &mut Criterion) {
    let preset = preset_from_env(SizePreset::Tiny);
    let scales = matching_sweep_scales(preset);
    eprintln!("[matching_scaling] generating dyn_load_balance sweep at {preset:?} preset...");
    let apps: Vec<_> = scales
        .iter()
        .map(|&scale| (scale, scaled_dynload(preset, scale)))
        .collect();

    println!("stored-set-size sweep (dyn_load_balance, {preset:?} preset, default thresholds):");
    println!(
        "| scale | method | stored | degree of matching | indexed visited | linear visited | indexed fraction | linear fraction |"
    );
    println!("|---:|---|---:|---:|---:|---:|---:|---:|");
    let (mut indexed_total, mut linear_total) = (0usize, 0usize);
    for (scale, app) in &apps {
        let largest = *scale == *scales.last().unwrap();
        for method in metric_methods() {
            let config = MethodConfig::with_default_threshold(method);
            let (reduced, indexed) = reduce_app_parallel_with_stats(&Reducer::new(config), app, 1);
            let linear = indexed.candidates();
            println!(
                "| {scale} | {} | {} | {:.3} | {} | {} | {:.1}% | {:.1}% |",
                config.label(),
                reduced.total_stored(),
                reduced.degree_of_matching(),
                indexed.comparisons,
                linear,
                100.0 * indexed.visited_fraction(),
                100.0 * linear as f64 / indexed.eligible.max(1) as f64,
            );
            if largest {
                indexed_total += indexed.comparisons;
                linear_total += linear;
            }
        }
    }
    // The scaling guarantee CI smoke-checks at the tiny preset: at the
    // largest swept stored-set size the index must visit strictly fewer
    // candidates than the linear scan across the metric methods.
    assert!(
        indexed_total < linear_total,
        "index pruning regressed: visited {indexed_total} vs linear {linear_total} \
         at the largest swept size"
    );
    println!(
        "largest size aggregate: indexed visited {indexed_total} vs linear {linear_total} \
         ({:.1}% of the scan)",
        100.0 * indexed_total as f64 / linear_total as f64
    );

    let mut group = c.benchmark_group("matching/scaling");
    group.sample_size(10);
    // Time only the sweep endpoints: the interior sizes exist for the
    // counter curve above, the wall-clock trend is visible from the ends.
    for (scale, app) in [&apps[0], apps.last().unwrap()] {
        let segments: usize = app.ranks.iter().map(|r| r.segment_instance_count()).sum();
        group.throughput(Throughput::Elements(segments as u64));
        for method in [Method::Euclidean, Method::AvgWave] {
            let config = MethodConfig::with_default_threshold(method);
            assert_eq!(
                Reducer::new(config).reduce_app(app),
                reduce_app_reference(config, app),
                "{method} x{scale}: the reducer must be bit-identical to the reference"
            );
            group.bench_function(
                BenchmarkId::new(format!("indexed/{}", method.name()), scale),
                |b| b.iter(|| Reducer::new(config).reduce_app(app)),
            );
            group.bench_function(
                BenchmarkId::new(format!("reference/{}", method.name()), scale),
                |b| b.iter(|| reduce_app_reference(config, app)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_matching_scaling);
criterion_main!(benches);
