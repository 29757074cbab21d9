//! Records the benchmark numbers published in `EXPERIMENTS.md`.
//!
//! Run with `TRACE_REPRO_PRESET=paper cargo run --release -p trace_bench
//! --example record_experiments` and paste the markdown output into
//! `EXPERIMENTS.md`.  Smaller presets (`small`, `tiny`) produce the same
//! tables at reduced scale for quick sanity checks.

use std::io::Cursor;
use std::time::Instant;

use trace_bench::{matching_sweep_scales, preset_from_env, scaled_dynload};
use trace_container::{read_app_container, ChunkSpec, Codec};
use trace_eval::file_size_percent;
use trace_format::parse_app_trace;
use trace_model::codec::{decode_app_trace, encode_app_trace};
use trace_reduce::{
    reduce_app_parallel_with_stats, reduce_app_reference, CandidateSearch, MatchStats, Method,
    MethodConfig, Reducer,
};
use trace_sim::{SizePreset, Workload, WorkloadKind};
use trace_stream::{
    reduce_container_file, reduce_container_stream, reduce_stream, reduce_stream_sharded,
};

fn main() {
    let preset = preset_from_env(SizePreset::Paper);
    eprintln!("[record_experiments] generating all 18 workloads at {preset:?} preset...");
    let workloads = Workload::all(preset);
    let traces: Vec<_> = workloads.iter().map(Workload::generate).collect();
    let total_events: usize = traces.iter().map(|t| t.total_events()).sum();
    println!("preset: {preset:?} — 18 workloads, {total_events} events total\n");

    // Table 1: per-method aggregates over all 18 workloads.
    println!("| method | mean file size (% of full) | mean degree of matching | reduce wall time (ms, 18 workloads) |");
    println!("|---|---:|---:|---:|");
    for method in Method::ALL {
        let config = MethodConfig::with_default_threshold(method);
        let reducer = Reducer::new(config);
        let mut size_sum = 0.0;
        let mut match_sum = 0.0;
        let started = Instant::now();
        let reduced: Vec<_> = traces.iter().map(|t| reducer.reduce_app(t)).collect();
        let wall = started.elapsed();
        for (full, red) in traces.iter().zip(&reduced) {
            size_sum += file_size_percent(full, red);
            match_sum += red.degree_of_matching();
        }
        println!(
            "| {} | {:.2} | {:.3} | {:.1} |",
            config.label(),
            size_sum / traces.len() as f64,
            match_sum / traces.len() as f64,
            wall.as_secs_f64() * 1e3
        );
    }

    // Table 2: per-workload detail at the paper's representative method
    // (avgWave at its default threshold).
    let config = MethodConfig::with_default_threshold(Method::AvgWave);
    let reducer = Reducer::new(config);
    println!("\n| workload | events | file size (% of full) | degree of matching |");
    println!("|---|---:|---:|---:|");
    for (workload, full) in workloads.iter().zip(&traces) {
        let reduced = reducer.reduce_app(full);
        println!(
            "| {} | {} | {:.2} | {:.3} |",
            workload.name(),
            full.total_events(),
            file_size_percent(full, &reduced),
            reduced.degree_of_matching()
        );
    }

    // Table 3: streaming vs in-memory reduction over an amplified trace.
    let repeats = 10;
    let workload = Workload::new(WorkloadKind::DynLoadBalance, preset);
    eprintln!(
        "[record_experiments] amplifying {} x{repeats} for the streaming comparison...",
        workload.name()
    );
    let text = workload
        .write_text_amplified_to(Vec::new(), repeats)
        .expect("writing to a Vec cannot fail");

    let started = Instant::now();
    let app = parse_app_trace(std::str::from_utf8(&text).unwrap()).unwrap();
    let in_memory = reducer.reduce_app(&app);
    let in_memory_wall = started.elapsed();

    let started = Instant::now();
    let streamed = reduce_stream(&reducer, Cursor::new(text.as_slice())).unwrap();
    let stream_wall = started.elapsed();
    assert_eq!(
        streamed.reduced, in_memory,
        "streaming must match in-memory"
    );

    let started = Instant::now();
    let sharded = reduce_stream_sharded(&reducer, 4, |_| Ok(Cursor::new(text.clone()))).unwrap();
    let sharded_wall = started.elapsed();
    assert_eq!(sharded.reduced, in_memory, "sharding must match in-memory");

    println!(
        "\nstreaming comparison ({} x{repeats}, {} bytes of text, {} segments, avgWave):\n",
        workload.name(),
        text.len(),
        streamed.stats.segments
    );
    println!("| pipeline | wall time (ms) | peak resident segments |");
    println!("|---|---:|---:|");
    println!(
        "| parse + in-memory reduce | {:.1} | {} (all segments) |",
        in_memory_wall.as_secs_f64() * 1e3,
        streamed.stats.segments
    );
    println!(
        "| streaming reduce | {:.1} | {} |",
        stream_wall.as_secs_f64() * 1e3,
        streamed.stats.peak_resident_segments
    );
    println!(
        "| streaming reduce, 4 shards | {:.1} | {} |",
        sharded_wall.as_secs_f64() * 1e3,
        sharded.stats.peak_resident_segments
    );

    // Table 4: text vs binary encodings of the same amplified trace, and
    // the binary ingestion pipelines over the chunked container.
    eprintln!("[record_experiments] encoding the amplified trace as v1 and v2 binaries...");
    let v1 = encode_app_trace(&app);
    let v2 = workload
        .write_container_amplified_to(Vec::new(), repeats, ChunkSpec::default())
        .expect("writing to a Vec cannot fail");
    let mut container_path = std::env::temp_dir();
    container_path.push(format!("record_experiments_{}.trc", std::process::id()));
    std::fs::write(&container_path, &v2).expect("temp container file");

    let started = Instant::now();
    let decoded = decode_app_trace(&v1).expect("v1 decodes");
    let v1_reduced = reducer.reduce_app(&decoded);
    let v1_wall = started.elapsed();

    let started = Instant::now();
    let container_streamed = reduce_container_stream(&reducer, Cursor::new(&v2)).unwrap();
    let container_wall = started.elapsed();
    assert_eq!(
        container_streamed.reduced, v1_reduced,
        "container streaming must match the in-memory binary path"
    );

    let started = Instant::now();
    let container_sharded = reduce_container_file(&reducer, &container_path, 4).unwrap();
    let container_sharded_wall = started.elapsed();
    assert_eq!(
        container_sharded.reduced, v1_reduced,
        "index-sharded ingestion must match"
    );
    let _ = std::fs::remove_file(&container_path);

    println!(
        "\nbinary container comparison (same amplified trace; text {} bytes, \
         binary v1 {} bytes, container v2 {} bytes, {:.1}% container overhead over v1):\n",
        text.len(),
        v1.len(),
        v2.len(),
        100.0 * (v2.len() as f64 - v1.len() as f64) / v1.len() as f64
    );
    println!("| pipeline | wall time (ms) | peak resident bytes of trace data |");
    println!("|---|---:|---:|");
    println!(
        "| v1 decode + in-memory reduce | {:.1} | {} (whole file) |",
        v1_wall.as_secs_f64() * 1e3,
        v1.len()
    );
    println!(
        "| v2 container streaming reduce | {:.1} | {} (one chunk) |",
        container_wall.as_secs_f64() * 1e3,
        container_streamed.stats.peak_chunk_bytes
    );
    println!(
        "| v2 container, index-sharded x4 | {:.1} | {} per worker (one chunk) |",
        container_sharded_wall.as_secs_f64() * 1e3,
        container_sharded.stats.peak_chunk_bytes
    );

    // Table 5: per-chunk compression — bytes on disk, ratio and ingestion
    // wall time per codec, on the paper's application trace (Sweep3D)
    // amplified like the other streaming tables.
    let workload = Workload::new(WorkloadKind::Sweep3d8p, preset);
    eprintln!(
        "[record_experiments] amplifying {} x{repeats} for the compression comparison...",
        workload.name()
    );
    let baseline = workload
        .write_container_amplified_to(Vec::new(), repeats, ChunkSpec::default())
        .expect("writing to a Vec cannot fail");
    let app = read_app_container(&baseline[..]).expect("container decodes");
    let v1 = encode_app_trace(&app);
    let expected = reducer.reduce_app(&app);

    let started = Instant::now();
    let decoded = decode_app_trace(&v1).expect("v1 decodes");
    let v1_wall = started.elapsed();
    assert_eq!(reducer.reduce_app(&decoded), expected);

    println!(
        "\nper-chunk compression ({} x{repeats}, {} events, avgWave; \
         monolithic v1 {} bytes decoded+reduced in {:.1} ms):\n",
        workload.name(),
        app.total_events(),
        v1.len(),
        v1_wall.as_secs_f64() * 1e3
    );
    println!(
        "| codec | bytes on disk | ratio vs none | stream ingest (ms) | index-sharded x4 (ms) |"
    );
    println!("|---|---:|---:|---:|---:|");
    let mut container_path = std::env::temp_dir();
    container_path.push(format!(
        "record_experiments_codec_{}.trc",
        std::process::id()
    ));
    for codec in Codec::ALL {
        let bytes = workload
            .write_container_amplified_to(Vec::new(), repeats, ChunkSpec::with_codec(codec))
            .expect("writing to a Vec cannot fail");
        std::fs::write(&container_path, &bytes).expect("temp container file");

        let started = Instant::now();
        let streamed = reduce_container_stream(&reducer, Cursor::new(&bytes)).unwrap();
        let stream_wall = started.elapsed();
        assert_eq!(
            streamed.reduced, expected,
            "compressed ingestion must match the uncompressed output"
        );

        let started = Instant::now();
        let sharded = reduce_container_file(&reducer, &container_path, 4).unwrap();
        let sharded_wall = started.elapsed();
        assert_eq!(sharded.reduced, expected);

        println!(
            "| {} | {} | {:.2}x | {:.1} | {:.1} |",
            codec.name(),
            bytes.len(),
            baseline.len() as f64 / bytes.len() as f64,
            stream_wall.as_secs_f64() * 1e3,
            sharded_wall.as_secs_f64() * 1e3
        );
    }
    let _ = std::fs::remove_file(&container_path);

    // Table 6: similarity-matching throughput — the cached-feature fast
    // path vs the preserved naive reference loop, per method, over all 18
    // workloads, plus the fast path's pruning counters.  The per-method
    // numbers are also written to BENCH_matching.json (in the current
    // directory) so later PRs can diff against a recorded trajectory.
    let total_segments: usize = traces
        .iter()
        .flat_map(|t| t.ranks.iter())
        .map(|r| r.segment_instance_count())
        .sum();
    println!(
        "\nsimilarity matching (all 18 workloads, {total_segments} segment instances, \
         default thresholds; fast = cached features + prefilters + early abandon, \
         reference = naive per-comparison kernels):\n"
    );
    println!(
        "| method | reference (ms) | fast (ms) | speedup | fast segments/s | visited / eligible | index-pruned | prefilter-rejected | early-abandoned |"
    );
    println!("|---|---:|---:|---:|---:|---:|---:|---:|---:|");
    let mut baseline_entries: Vec<(String, f64)> =
        vec![("matching/total_segments".to_string(), total_segments as f64)];
    for method in Method::ALL {
        let config = MethodConfig::with_default_threshold(method);
        let reducer = Reducer::new(config);

        // The timed fast pass also collects the pruning counters — the
        // same reduction loop as `reduce_app`, no extra pass needed.
        let started = Instant::now();
        let mut stats = MatchStats::default();
        let fast: Vec<_> = traces
            .iter()
            .map(|t| {
                let (reduced, trace_stats) = reduce_app_parallel_with_stats(&reducer, t, 1);
                stats.absorb(&trace_stats);
                reduced
            })
            .collect();
        let fast_wall = started.elapsed();

        let started = Instant::now();
        let reference: Vec<_> = traces
            .iter()
            .map(|t| reduce_app_reference(config, t))
            .collect();
        let reference_wall = started.elapsed();
        assert_eq!(fast, reference, "{method}: fast path must be bit-identical");

        let fast_rate = total_segments as f64 / fast_wall.as_secs_f64();
        let reference_rate = total_segments as f64 / reference_wall.as_secs_f64();
        println!(
            "| {} | {:.1} | {:.1} | {:.2}x | {:.0} | {} / {} ({:.1}%) | {} | {:.1}% | {:.1}% |",
            config.label(),
            reference_wall.as_secs_f64() * 1e3,
            fast_wall.as_secs_f64() * 1e3,
            reference_wall.as_secs_f64() / fast_wall.as_secs_f64(),
            fast_rate,
            stats.comparisons,
            stats.eligible,
            100.0 * stats.visited_fraction(),
            stats.index_window_prunes + stats.index_pivot_prunes,
            100.0 * stats.prefilter_reject_rate(),
            100.0 * stats.early_abandon_rate()
        );
        baseline_entries.push((
            format!("matching/{}/fast_segments_per_s", method.name()),
            fast_rate,
        ));
        baseline_entries.push((
            format!("matching/{}/reference_segments_per_s", method.name()),
            reference_rate,
        ));
    }
    // Table 7: stored-set-size sweep — the candidate index's scaling
    // curve.  `dyn_load_balance` regenerated with its stored set scaled
    // up while the match rate stays ≥ 0.97 (the matching-heavy regime);
    // the indexed visited fraction must *fall* with the stored-set size
    // while the linear scan's stays flat.  The per-scale fractions are
    // committed to BENCH_matching.json as the scaling curve.
    println!(
        "\nstored-set-size sweep (dyn_load_balance rescaled, default thresholds; \
         visited fraction = comparisons / eligible stored candidates):\n"
    );
    println!(
        "| scale | method | stored | degree of matching | indexed visited / eligible | indexed fraction | linear fraction |"
    );
    println!("|---:|---|---:|---:|---:|---:|---:|");
    for &scale in matching_sweep_scales(preset) {
        let app = scaled_dynload(preset, scale);
        for method in Method::ALL.into_iter().filter(|m| m.is_distance_method()) {
            let config = MethodConfig::with_default_threshold(method);
            let run = |search| {
                reduce_app_parallel_with_stats(&Reducer::with_search(config, search), &app, 1)
            };
            let (reduced, indexed) = run(CandidateSearch::Indexed);
            let (scan_reduced, linear) = run(CandidateSearch::LinearScan);
            assert_eq!(reduced, scan_reduced, "{method} x{scale}: paths must agree");
            println!(
                "| {scale} | {} | {} | {:.3} | {} / {} | {:.1}% | {:.1}% |",
                config.label(),
                reduced.total_stored(),
                reduced.degree_of_matching(),
                indexed.comparisons,
                indexed.eligible,
                100.0 * indexed.visited_fraction(),
                100.0 * linear.visited_fraction(),
            );
            baseline_entries.push((
                format!(
                    "matching_scaling/x{scale}/{}/indexed_visited_pct",
                    method.name()
                ),
                100.0 * indexed.visited_fraction(),
            ));
            baseline_entries.push((
                format!(
                    "matching_scaling/x{scale}/{}/linear_visited_pct",
                    method.name()
                ),
                100.0 * linear.visited_fraction(),
            ));
        }
    }

    let json = matching_baseline_json(&baseline_entries);
    match std::fs::write("BENCH_matching.json", &json) {
        Ok(()) => eprintln!("[record_experiments] wrote BENCH_matching.json"),
        Err(e) => eprintln!("[record_experiments] cannot write BENCH_matching.json: {e}"),
    }
}

/// Flat JSON object of benchmark names to numbers — the same shape the
/// vendored criterion shim reads as `CRITERION_BASELINE`.
fn matching_baseline_json(entries: &[(String, f64)]) -> String {
    let mut out = String::from("{\n");
    for (i, (name, value)) in entries.iter().enumerate() {
        out.push_str(&format!("  \"{name}\": {value:.1}"));
        out.push_str(if i + 1 == entries.len() { "\n" } else { ",\n" });
    }
    out.push('}');
    out
}
