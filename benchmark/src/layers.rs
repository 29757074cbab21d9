//! The traced run: harness spans around each layer's public functions and
//! around CLI-flag differentials, all on the workload's own trace.
//!
//! Every workload reports every per-layer metric, so the layers a
//! workload's command never reaches are still measured on its trace — that
//! is what lets a later change be predicted ("a parser gain must not move
//! `dlz_sharded`") and then checked.  One *round* calls each layer once;
//! rounds repeat until the time budget is spent and medians are reported.
//! Spans keep raw wall times; the reported `_ms` are normalised to a quiet
//! host like every other time the harness prints ([`crate::calib`]).

use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::time::{Duration, Instant};

use trace_compress::{compress, decompress, PayloadClass};
use trace_container::Codec;
use trace_obs::{names, RunReport, Stage};
use trace_reduce::{reduce_app_parallel, segments_of_rank, Reducer};

use crate::calib::{self, HostModel, Timed};
use crate::metrics::Measured;
use crate::spans::Tracer;
use crate::stats::median;
use crate::workloads::{
    check_output, default_spec, output_path, reduce_args, run_cli, Encoding, Operation, Prepared,
};

const MB: f64 = 1e6;
const LZ_BLOCK: usize = 64 * 1024;

/// Library code that keeps two threads busy (`--shards 2`, the parallel
/// driver at two workers).
const TWO_THREADS: HostModel = HostModel {
    threads: 2,
    ..HostModel::LIBRARY
};

fn io_err(path: &Path, e: std::io::Error) -> String {
    format!("{}: {e}", path.display())
}

/// Every round's value of each metric.
type Samples = BTreeMap<&'static str, Vec<f64>>;

/// One round: the tracer inside the round's span, and where its values go.
struct Round<'a> {
    tracer: &'a mut Tracer,
    samples: &'a mut Samples,
}

impl Round<'_> {
    fn record(&mut self, metric: &'static str, value: f64) {
        self.samples.entry(metric).or_default().push(value);
    }

    /// Runs `work` in a span named `span`, between two calibration runs.
    fn time<T>(&mut self, span: &str, host: HostModel, work: impl FnOnce() -> T) -> Timed<T> {
        calib::measure(host, || self.tracer.time(span, |_| work()))
    }

    /// [`Round::time`] for a span that is a metric: the normalised time is
    /// recorded under the span's name and returned with the result.
    fn time_as<T>(
        &mut self,
        metric: &'static str,
        host: HostModel,
        work: impl FnOnce() -> T,
    ) -> (T, f64) {
        let timed = self.time(metric, host, work);
        self.record(metric, timed.quiet_ms);
        (timed.value, timed.quiet_ms)
    }
}

/// Measures every layer on `prepared`'s trace for about `seconds` (at
/// least `min_rounds` rounds) and records medians into `measured`.
pub fn measure_layers(
    prepared: &Prepared,
    seconds: f64,
    min_rounds: usize,
    tracer: &mut Tracer,
    measured: &mut Measured,
) -> Result<(), String> {
    let started = Instant::now();
    let mut samples = Samples::new();
    let mut rounds = 0;
    while rounds < min_rounds || started.elapsed() < Duration::from_secs_f64(seconds) {
        tracer
            .time("layers.round", |tracer| {
                one_round(
                    prepared,
                    &mut Round {
                        tracer,
                        samples: &mut samples,
                    },
                )
            })
            .0?;
        rounds += 1;
    }
    for (name, values) in &samples {
        measured.set(name, median(values), values.len());
    }
    derive(prepared, &samples, rounds, measured);
    counters(prepared, tracer, measured)?;
    measured.set("sim.generate_ms", prepared.generate_ms, 1);
    measured.set("sim.write_inputs_ms", prepared.write_inputs_ms, 1);
    measured.set("sim.events", prepared.events as f64, 1);
    measured.set("cli.in_bytes", prepared.in_bytes as f64, 1);
    Ok(())
}

/// One call into each layer.  Span names are the metric names.
fn one_round(prepared: &Prepared, round: &mut Round) -> Result<(), String> {
    let app = &prepared.app;
    let dir = &prepared.dir;
    let workload = prepared.workload;
    let config = workload.method_config();
    let one = HostModel::LIBRARY;

    // trace_format and trace_container, write direction; the files feed
    // the read direction and the CLI differentials below.
    let text_path = dir.join(Encoding::Text.file_name());
    let none_path = dir.join(Encoding::Container(Codec::None).file_name());
    let dlz_path = dir.join(Encoding::Container(Codec::DeltaLz).file_name());
    let (text, _) = round.time_as("format.write_ms", one, || Encoding::Text.encode(app));
    let (none, _) = round.time_as("container.write_none_ms", one, || {
        Encoding::Container(Codec::None).encode(app)
    });
    let (dlz, _) = round.time_as("container.write_dlz_ms", one, || {
        Encoding::Container(Codec::DeltaLz).encode(app)
    });
    // The bytes are the same every round (and the workload's own input is
    // already there): write each file once.
    for (path, bytes) in [(&text_path, &text), (&none_path, &none), (&dlz_path, &dlz)] {
        if !path.exists() {
            std::fs::write(path, bytes).map_err(|e| io_err(path, e))?;
        }
    }
    round.record("container.none_bytes", none.len() as f64);
    round.record("container.dlz_bytes", dlz.len() as f64);

    // Read direction, from memory: decode cost without file I/O.
    let text = String::from_utf8(text).map_err(|e| e.to_string())?;
    let (parsed, ms) = round.time_as("format.parse_ms", one, || {
        trace_format::parse_app_trace(&text)
    });
    parsed.map_err(|e| e.to_string())?;
    round.record("format.parse_mb_per_s", text.len() as f64 / MB / (ms / 1e3));
    drop(text);
    for (name, bytes) in [
        ("container.read_none_ms", &none),
        ("container.read_dlz_ms", &dlz),
    ] {
        let (decoded, _) = round.time_as(name, one, || {
            trace_container::read_app_container(&bytes[..])
        });
        decoded.map_err(|e| e.to_string())?;
    }

    // trace_stream's pull parser, drained the way the streaming driver
    // does: from a buffered file, never holding the text.
    let (drained, _) = round.time_as("stream.parser_ms", one, || -> Result<usize, String> {
        let file = File::open(&text_path).map_err(|e| io_err(&text_path, e))?;
        let mut parser =
            trace_stream::StreamParser::new(BufReader::new(file)).map_err(|e| e.to_string())?;
        let mut items = 0;
        while parser.next_item().map_err(|e| e.to_string())?.is_some() {
            items += 1;
        }
        Ok(items)
    });
    std::hint::black_box(drained?);
    // The same file with every rank section skipped: what a shard worker
    // pays for the ranks it does not own.
    let (skipped, _) = round.time_as("stream.skip_ms", one, || -> Result<usize, String> {
        let file = File::open(&text_path).map_err(|e| io_err(&text_path, e))?;
        let mut parser =
            trace_stream::StreamParser::new(BufReader::new(file)).map_err(|e| e.to_string())?;
        let mut ranks = 0;
        while let Some(item) = parser.next_item().map_err(|e| e.to_string())? {
            if matches!(item, trace_stream::AppItem::RankStart(_)) {
                parser.skip_current_rank().map_err(|e| e.to_string())?;
                ranks += 1;
            }
        }
        Ok(ranks)
    });
    if skipped? != app.ranks.len() {
        return Err("the skipping parser saw a different number of ranks".to_string());
    }

    // trace_compress: plain LZ over the uncompressed container in blocks.
    let packed = round.time("compress.lz_compress", one, || {
        none.chunks(LZ_BLOCK)
            .map(|block| compress(Codec::Lz, PayloadClass::Opaque, block))
            .collect::<Result<Vec<_>, _>>()
    });
    round.record(
        "compress.lz_compress_mb_per_s",
        none.len() as f64 / MB / (packed.quiet_ms / 1e3),
    );
    let packed = packed.value.map_err(|e| e.to_string())?;
    let unpacked = round.time("compress.lz_decompress", one, || {
        packed
            .iter()
            .map(|block| decompress(Codec::Lz, PayloadClass::Opaque, block).map(|raw| raw.len()))
            .sum::<Result<usize, _>>()
    });
    round.record(
        "compress.lz_decompress_mb_per_s",
        none.len() as f64 / MB / (unpacked.quiet_ms / 1e3),
    );
    if unpacked.value.map_err(|e| e.to_string())? != none.len() {
        return Err("LZ blocks do not decompress to their input".to_string());
    }
    drop((none, dlz, packed));

    // trace_reduce: segmenter alone, then the whole in-memory reduction.
    let (segments, segment_ms) = round.time_as("reduce.segment_ms", one, || {
        app.ranks
            .iter()
            .map(|rank| segments_of_rank(rank).len())
            .sum::<usize>()
    });
    let reducer = Reducer::new(config);
    let (reduced, reduce_ms) =
        round.time_as("reduce.reduce_app_ms", one, || reducer.reduce_app(app));
    round.record("reduce.match_ms", reduce_ms - segment_ms);
    round.record(
        "reduce.ns_per_segment",
        reduce_ms * 1e6 / segments.max(1) as f64,
    );
    let (parallel, _) = round.time_as("reduce.parallel2_ms", TWO_THREADS, || {
        reduce_app_parallel(&reducer, app, 2)
    });
    if parallel != reduced {
        return Err("parallel reduction differs from the sequential one".to_string());
    }
    round.record("reduce.stored", reduced.total_stored() as f64);
    round.record("reduce.execs", reduced.total_execs() as f64);
    round.record("reduce.degree_of_matching", reduced.degree_of_matching());

    // The reduced file: written by trace_container, read back by the
    // consumers (trace_model reconstruct, the CLI `report`).
    let (encoded, _) = round.time_as("container.encode_reduced_ms", one, || {
        trace_container::encode_reduced_container(&reduced, default_spec())
    });
    let (decoded, _) = round.time_as("container.read_reduced_ms", one, || {
        trace_container::decode_reduced_any(&encoded)
    });
    decoded.map_err(|e| e.to_string())?;
    let (approximated, _) = round.time_as("model.reconstruct_ms", one, || reduced.reconstruct());
    drop(approximated);
    let reduced_path = dir.join("reduced.trc");
    std::fs::write(&reduced_path, &encoded).map_err(|e| io_err(&reduced_path, e))?;
    let report_args: Vec<String> = ["report", "--in", &reduced_path.to_string_lossy()]
        .map(String::from)
        .to_vec();
    let (report, _) = round.time_as("report.text_ms", one, || run_cli(&report_args));
    report?;

    // CLI differentials: the same file streamed with and without
    // `--shards 2`, as text and as a delta-lz container.  The speed-up is
    // the ratio of the two adjacent runs' raw times: they share their noise,
    // and one- and two-thread calibrations are not on one scale.
    let scratch = dir.join("scratch.trc");
    for (input, one_shard, two_shards, speedup) in [
        (
            &text_path,
            "stream.text_1shard_ms",
            "stream.text_2shard_ms",
            "stream.text_shard_speedup",
        ),
        (
            &dlz_path,
            "stream.container_1shard_ms",
            "stream.container_2shard_ms",
            "stream.container_shard_speedup",
        ),
    ] {
        let mut raw_ms = [0.0; 2];
        for (shards, name, host) in [(1, one_shard, one), (2, two_shards, TWO_THREADS)] {
            let args = reduce_args(
                input,
                &scratch,
                config.method,
                Some(config.threshold),
                Some(shards),
            );
            let timed = round.time(name, host, || run_cli(&args));
            timed.value?;
            round.record(name, timed.quiet_ms);
            raw_ms[shards - 1] = timed.raw_ms;
        }
        round.record(speedup, raw_ms[0] / raw_ms[1]);
    }

    // The workload's own command, in this process: plain, then with the
    // program's recorder on.  Adjacent runs, so the pair shares its noise.
    let input = workload.input_path(dir);
    let output = output_path(dir);
    let mut args = workload.cli_args(&input, &output);
    let plain = round.time("cli.op_inprocess_ms", workload.host, || run_cli(&args));
    plain.value?;
    round.record("cli.op_inprocess_ms", plain.quiet_ms);
    if !prepared.reference.matches_file(&output) {
        return Err(format!(
            "{}: output differs from the reference",
            workload.name
        ));
    }
    let run_report = dir.join("run-report.json");
    args.extend(
        [
            "--obs",
            "--obs-format",
            "json",
            "--obs-out",
            &run_report.to_string_lossy(),
        ]
        .map(String::from),
    );
    let observed = round.time("cli.op_observed", workload.host, || run_cli(&args));
    observed.value?;
    round.record(
        "obs.overhead_pct",
        (observed.raw_ms - plain.raw_ms) / plain.raw_ms * 100.0,
    );
    let report = read_run_report(&run_report)?;
    for stage in Stage::ALL {
        let total_ns = report
            .histograms
            .get(stage.histogram_name())
            .map_or(0, |h| h.sum);
        round.record(stage_metric(stage), total_ns as f64 / 1e6);
    }

    // File I/O the CLI does around the layers: read the input, write the
    // output (the reference bytes, to a scratch path).
    let (bytes, _) = round.time_as("cli.read_ms", one, || std::fs::read(&input));
    drop(bytes.map_err(|e| io_err(&input, e))?);
    let bytes = std::fs::read(&output).map_err(|e| io_err(&output, e))?;
    let (written, _) = round.time_as("cli.write_ms", one, || std::fs::write(&scratch, &bytes));
    written.map_err(|e| io_err(&scratch, e))?;
    Ok(())
}

fn stage_metric(stage: Stage) -> &'static str {
    match stage {
        Stage::Parse => "obs.stage.parse_ms",
        Stage::Segment => "obs.stage.segment_ms",
        Stage::Match => "obs.stage.match_ms",
        Stage::Index => "obs.stage.index_ms",
        Stage::Store => "obs.stage.store_ms",
        Stage::Compress => "obs.stage.compress_ms",
        Stage::ChunkIo => "obs.stage.chunk_io_ms",
        Stage::Rank => "obs.stage.rank_ms",
    }
}

fn read_run_report(path: &Path) -> Result<RunReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| io_err(path, e))?;
    RunReport::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Metrics that are arithmetic over this run's medians.
fn derive(prepared: &Prepared, samples: &Samples, done: usize, measured: &mut Measured) {
    let m = |name: &str| samples.get(name).map_or(0.0, |values| median(values));
    measured.set(
        "compress.decode_premium_ms",
        m("container.read_dlz_ms") - m("container.read_none_ms"),
        done,
    );
    measured.set(
        "compress.encode_premium_ms",
        m("container.write_dlz_ms") - m("container.write_none_ms"),
        done,
    );
    measured.set(
        "compress.ratio",
        m("container.none_bytes") / m("container.dlz_bytes"),
        done,
    );
    // The operation minus the layer spans on its path.  The sharded
    // workload is compared in its serial form (the 1-shard container
    // stream), since two workers' layer time does not add up to wall time.
    let tail = m("container.encode_reduced_ms") + m("cli.write_ms");
    let residual = match (prepared.workload.operation, prepared.workload.input) {
        (Operation::Convert, _) => {
            m("cli.op_inprocess_ms")
                - (m("cli.read_ms") + m("format.parse_ms") + m("container.write_dlz_ms"))
                - m("cli.write_ms")
        }
        (
            Operation::Reduce {
                stream_shards: None,
                ..
            },
            _,
        ) => {
            m("cli.op_inprocess_ms")
                - (m("cli.read_ms") + m("container.read_none_ms") + m("reduce.reduce_app_ms"))
                - tail
        }
        (Operation::Reduce { .. }, Encoding::Text) => {
            m("cli.op_inprocess_ms") - (m("stream.parser_ms") + m("reduce.reduce_app_ms")) - tail
        }
        (Operation::Reduce { .. }, Encoding::Container(_)) => {
            m("stream.container_1shard_ms")
                - (m("cli.read_ms") + m("container.read_dlz_ms") + m("reduce.reduce_app_ms"))
                - tail
        }
    };
    measured.set("cli.residual_ms", residual, done);
}

/// Exact counts from the program's own run report: one observed
/// `reduce --stream` over the delta-lz container, which passes through the
/// chunk reader, the stream driver and the match loop on every workload.
fn counters(
    prepared: &Prepared,
    tracer: &mut Tracer,
    measured: &mut Measured,
) -> Result<(), String> {
    let dir = &prepared.dir;
    let config = prepared.workload.method_config();
    let run_report = dir.join("run-report.json");
    let mut args = reduce_args(
        &dir.join(Encoding::Container(Codec::DeltaLz).file_name()),
        &dir.join("scratch.trc"),
        config.method,
        Some(config.threshold),
        Some(1),
    );
    args.extend(
        [
            "--obs",
            "--obs-format",
            "json",
            "--obs-out",
            &run_report.to_string_lossy(),
        ]
        .map(String::from),
    );
    tracer.time("layers.counters", |_| run_cli(&args)).0?;
    let report = read_run_report(&run_report)?;
    let counter = |name: &str| report.counters.get(name).copied().unwrap_or(0) as f64;
    let gauge = |name: &str| report.gauges.get(name).copied().unwrap_or(0) as f64;
    let (comparisons, eligible) = (
        counter(names::MATCH_COMPARISONS),
        counter(names::MATCH_ELIGIBLE),
    );
    measured.set("reduce.comparisons", comparisons, 1);
    measured.set("reduce.eligible", eligible, 1);
    measured.set(
        "reduce.visited_pct",
        if eligible > 0.0 {
            comparisons / eligible * 100.0
        } else {
            0.0
        },
        1,
    );
    measured.set(
        "reduce.index_prunes",
        counter(names::MATCH_INDEX_WINDOW_PRUNES) + counter(names::MATCH_INDEX_PIVOT_PRUNES),
        1,
    );
    measured.set("stream.segments", counter(names::STREAM_SEGMENTS), 1);
    measured.set(
        "stream.peak_resident_segments",
        gauge(names::STREAM_PEAK_RESIDENT_SEGMENTS),
        1,
    );
    measured.set(
        "stream.peak_chunk_bytes",
        gauge(names::STREAM_PEAK_CHUNK_BYTES),
        1,
    );
    measured.set("container.chunks", counter(names::CHUNK_READS), 1);

    // The paper's criterion 3 on the workload's own output.
    measured.set("model.approx_distance_us", check_output(prepared)?, 1);
    Ok(())
}
