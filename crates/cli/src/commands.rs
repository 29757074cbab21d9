//! Subcommand implementations for `trace-tools`.

use std::io::Write;
use std::path::Path;

use trace_analysis::diagnose;
use trace_obs::Recorder;
use trace_reduce::{Method, MethodConfig, Reducer};
use trace_sim::{SizePreset, Workload, WorkloadKind};

use trace_container::{ChunkSpec, Codec};

use crate::cli::{check_flags, Invocation};
use crate::io::{
    convert_app_trace, load_app_trace, load_reduced_trace, store_app_trace, store_reduced_trace,
    write_file_atomic,
};

/// The usage text printed by `trace-tools help` and after errors.
pub fn usage() -> String {
    "\
trace-tools <subcommand> [--flag value]...

subcommands:
  list                                   list workloads and similarity methods
  generate   --workload W --out FILE     generate a benchmark/application trace
             [--preset tiny|small|paper] [binary output flags]
  reduce     --in FILE --out FILE        similarity-based reduction
             --method M [--threshold T]  [binary output flags]
             [--stream [--shards N]]     online bounded-memory reduction; input
                                         format (text, container v2) is
                                         autodetected by magic bytes, and v2
                                         containers shard by index footer
             [--report FILE]             also write a self-contained HTML
                                         analysis report of the reduction
  reconstruct --in REDUCED --out FILE    rebuild an approximate full trace
  convert    --in FILE --out FILE        convert between binary (.trc) and text (.txt)
             [binary output flags]
  analyze    --in FILE                   KOJAK-style wait-state diagnosis
  report     --in REDUCED                analysis report of a reduced trace:
             [--full FILE]               per-rank divergence, region trie,
             [--run-report FILE]         match quality; --full adds the paper's
             [--method M [--threshold T]] four criteria, --run-report pipeline
             [--divergence-threshold S]  metrics from an --obs-out JSON report
             [--html FILE]               write a self-contained HTML report
             [--chrome FILE]             write the reduced timeline as a
                                         chrome://tracing JSON file

methods (reduce, report): the paper's nine, listed by `list`;
--threshold defaults to the method's paper threshold and must be a finite
number >= 0

binary output flags (generate, reduce, convert):
  --codec delta-lz|none                  chunk codec of the .trc v2 container
                                         (default delta-lz)

observability flags (generate, reduce, convert):
  --obs                                  record pipeline metrics and stage spans
  --obs-out FILE                         write the run report to FILE instead of
                                         appending it to the command output
  --obs-format text|json|chrome          report format (default: json with
                                         --obs-out, text otherwise); `chrome`
                                         is a chrome://tracing event stream

file formats are chosen by extension: .txt/.trctxt = text, anything else = binary;
binary files are .trc v2 containers; the retired monolithic v1 format is refused"
        .to_string()
}

fn parse_preset(raw: Option<&str>) -> Result<SizePreset, String> {
    match raw.unwrap_or("small") {
        "tiny" => Ok(SizePreset::Tiny),
        "small" => Ok(SizePreset::Small),
        "paper" => Ok(SizePreset::Paper),
        other => Err(format!(
            "unknown preset {other:?} (expected tiny, small or paper)"
        )),
    }
}

fn parse_workload(name: &str) -> Result<WorkloadKind, String> {
    WorkloadKind::by_name(name).ok_or_else(|| {
        let known: Vec<String> = WorkloadKind::all_paper().iter().map(|k| k.name()).collect();
        format!(
            "unknown workload {name:?}; known workloads: {}",
            known.join(", ")
        )
    })
}

/// Parses `--method` and `--threshold`, shared by `reduce` and `report`:
/// one of the nine paper methods — `fallback` when `--method` is
/// absent, required when there is none — at `--threshold`, or at the
/// method's paper threshold.  A NaN, infinite or negative threshold is
/// refused rather than run as a reduction that silently matches nothing.
fn parse_method(invocation: &Invocation, fallback: Option<Method>) -> Result<MethodConfig, String> {
    let method = match (invocation.get("method"), fallback) {
        (None, Some(method)) => method,
        _ => {
            let name = invocation.require("method")?;
            Method::by_name(name).ok_or_else(|| {
                let known: Vec<&str> = Method::ALL.iter().map(|m| m.name()).collect();
                format!(
                    "unknown method {name:?}; known methods: {}",
                    known.join(", ")
                )
            })?
        }
    };
    match invocation.get_f64("threshold")? {
        None => Ok(MethodConfig::with_default_threshold(method)),
        Some(threshold) if threshold.is_finite() && threshold >= 0.0 => {
            Ok(MethodConfig::new(method, threshold))
        }
        Some(threshold) => Err(format!(
            "--threshold must be a finite number >= 0, got {threshold}"
        )),
    }
}

/// The container the binary writes of `generate`, `reduce`, `convert` and
/// `reconstruct` produce without `--codec`: the default chunk grouping
/// under `delta-lz` (2.3–2.7× smaller on the paper workloads,
/// EXPERIMENTS.md Table 5).
fn default_spec() -> ChunkSpec {
    ChunkSpec::with_codec(Codec::DeltaLz)
}

/// Parses the binary output flag (`--codec`) shared by `generate`,
/// `reduce` and `convert`: `delta-lz` by default, `none` for uncompressed
/// chunks.
fn parse_chunk_spec(invocation: &Invocation, out: &Path) -> Result<ChunkSpec, String> {
    // A text output takes no binary flag — rejected rather than silently
    // ignored, for every command that writes traces.
    if crate::io::is_text_path(out) && invocation.has("codec") {
        return Err(format!(
            "--codec configures binary output; {} has a text extension",
            out.display()
        ));
    }
    match invocation.get("codec") {
        None | Some("delta-lz") => Ok(default_spec()),
        Some("none") => Ok(ChunkSpec::with_codec(Codec::None)),
        Some(name) => Err(format!(
            "unknown codec {name:?}; known codecs: delta-lz, none"
        )),
    }
}

/// Output format for the observability run report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ObsFormat {
    /// Human-readable summary ([`trace_obs::RunReport::render_text`]).
    Text,
    /// Machine-readable report with a documented stable schema
    /// ([`trace_obs::RunReport::render_json`]).
    Json,
    /// chrome://tracing event stream
    /// ([`trace_obs::RunReport::render_chrome_trace`]).
    Chrome,
}

impl ObsFormat {
    fn label(self) -> &'static str {
        match self {
            ObsFormat::Text => "text",
            ObsFormat::Json => "json",
            ObsFormat::Chrome => "chrome",
        }
    }
}

/// Parsed observability flags (`--obs`, `--obs-out`, `--obs-format`).
struct ObsSettings {
    /// Report destination; `None` appends to the command output.
    out: Option<std::path::PathBuf>,
    format: ObsFormat,
}

/// Parses the observability flags shared by `generate`, `reduce` and
/// `convert`.  Giving any of the three enables recording; the format
/// defaults to `json` when a `--obs-out` file is given (the
/// machine-readable case) and `text` otherwise.
fn parse_obs(invocation: &Invocation) -> Result<Option<ObsSettings>, String> {
    let enabled =
        invocation.has("obs") || invocation.has("obs-out") || invocation.has("obs-format");
    if !enabled {
        return Ok(None);
    }
    let out = if invocation.has("obs-out") {
        Some(std::path::PathBuf::from(invocation.require("obs-out")?))
    } else {
        None
    };
    let format = match invocation.get("obs-format") {
        None | Some("") => {
            if out.is_some() {
                ObsFormat::Json
            } else {
                ObsFormat::Text
            }
        }
        Some("text") => ObsFormat::Text,
        Some("json") => ObsFormat::Json,
        Some("chrome") => ObsFormat::Chrome,
        Some(other) => {
            return Err(format!(
                "unknown obs format {other:?} (expected text, json or chrome)"
            ))
        }
    };
    Ok(Some(ObsSettings { out, format }))
}

/// Creates the recorder for a command: enabled when obs flags were given.
fn obs_recorder(settings: &Option<ObsSettings>) -> Recorder {
    if settings.is_some() {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    }
}

/// Writes a rendered report to `path`, all or nothing.
fn write_text(path: &Path, text: &str) -> Result<(), String> {
    write_file_atomic(path, |file| file.write_all(text.as_bytes()))
}

/// Renders the run report and either writes it to `--obs-out` or appends
/// it to the command output.
fn emit_obs(
    settings: &Option<ObsSettings>,
    recorder: &Recorder,
    message: &mut String,
) -> Result<(), String> {
    let Some(settings) = settings else {
        return Ok(());
    };
    let report = recorder.report();
    let rendered = match settings.format {
        ObsFormat::Text => report.render_text(),
        ObsFormat::Json => report.render_json(),
        ObsFormat::Chrome => report.render_chrome_trace(),
    };
    match &settings.out {
        Some(path) => {
            write_text(path, &rendered)?;
            message.push_str(&format!(
                "\nrun report ({}) -> {}",
                settings.format.label(),
                path.display()
            ));
        }
        None => {
            message.push('\n');
            message.push_str(&rendered);
        }
    }
    Ok(())
}

/// Short human-readable description of a binary write.
fn format_label(spec: ChunkSpec) -> String {
    format!("container v2, codec {}", spec.codec.name())
}

fn cmd_list() -> String {
    let workloads: Vec<String> = WorkloadKind::all_paper().iter().map(|k| k.name()).collect();
    let methods: Vec<&str> = Method::ALL.iter().map(|m| m.name()).collect();
    format!(
        "workloads ({}):\n  {}\n\nsimilarity methods ({}):\n  {}",
        workloads.len(),
        workloads.join("\n  "),
        methods.len(),
        methods.join("\n  ")
    )
}

fn cmd_generate(invocation: &Invocation) -> Result<String, String> {
    let kind = parse_workload(invocation.require("workload")?)?;
    let preset = parse_preset(invocation.get("preset"))?;
    let out = Path::new(invocation.require("out")?);
    let spec = parse_chunk_spec(invocation, out)?;
    let obs = parse_obs(invocation)?;
    let recorder = obs_recorder(&obs);
    let app = Workload::new(kind, preset).generate();
    let written = store_app_trace(out, &app, spec, &recorder)?;
    let encoding = if crate::io::is_text_path(out) {
        "text".to_string()
    } else {
        format_label(spec)
    };
    let mut message = format!(
        "generated {}: {} ranks, {} events, {written} bytes ({encoding}) -> {}",
        app.name,
        app.rank_count(),
        app.total_events(),
        out.display()
    );
    emit_obs(&obs, &recorder, &mut message)?;
    Ok(message)
}

/// `reduce`: the prologue (method, paths, format, obs) and the epilogue
/// (`--report`, run report) are shared; only the reduce step and the
/// summary line differ between the in-memory path and `--stream`.  Both
/// report the bytes written.
fn cmd_reduce(invocation: &Invocation) -> Result<String, String> {
    let stream = invocation.has("stream");
    if !stream && invocation.has("shards") {
        return Err("--shards only applies to streaming reduction; add --stream".to_string());
    }
    let config = parse_method(invocation, None)?;
    let input = Path::new(invocation.require("in")?);
    let out = Path::new(invocation.require("out")?);
    let spec = parse_chunk_spec(invocation, out)?;
    let shards = invocation.get_usize("shards")?.unwrap_or(1);
    if shards == 0 {
        return Err("--shards must be at least 1".to_string());
    }
    let obs = parse_obs(invocation)?;
    let recorder = obs_recorder(&obs);
    let reducer = Reducer::new(config).with_recorder(&recorder);
    let store = |reduced| store_reduced_trace(out, reduced, spec, &recorder);

    let (reduced, mut message) = if stream {
        // One bounded-memory pass over the file: text and chunked container
        // v2 inputs are autodetected by magic bytes.
        let (result, kind) = trace_stream::reduce_any_file(&reducer, input, shards)
            .map_err(|e| format!("{}: {e}", input.display()))?;
        // No more workers run than the trace has ranks.
        let workers = shards.clamp(1, result.reduced.rank_count().max(1));
        // With several workers the stat is the sum of per-worker peaks —
        // an upper bound on the concurrent total, not one observation.
        let peak = if workers > 1 {
            format!(
                "resident segments <= {}",
                result.stats.peak_resident_segments
            )
        } else {
            format!(
                "peak resident segments {}",
                result.stats.peak_resident_segments
            )
        };
        let written = store(&result.reduced)?;
        let mut message = format!(
            "stream-reduced {} ({} input) with {} over {workers} shard(s): {} stored \
             segments for {} executions, degree of matching {:.3}, {peak} (of {} \
             streamed), {written} bytes -> {}",
            result.reduced.name,
            kind.label(),
            config.label(),
            result.stats.stored,
            result.stats.execs,
            result.reduced.degree_of_matching(),
            result.stats.segments,
            out.display()
        );
        if kind == trace_stream::TraceInputKind::ContainerV2 {
            message.push_str(&format!(
                ", peak chunk {} bytes decoded",
                result.stats.peak_chunk_bytes
            ));
        }
        (result.reduced, message)
    } else {
        // The in-memory path: the only one that holds the full trace.
        let app = load_app_trace(input, &recorder)?;
        let reduced = reducer.reduce_app(&app);
        let written = store(&reduced)?;
        let message = format!(
            "reduced {} with {}: {} stored segments for {} executions, degree of matching {:.3}, {written} bytes -> {}",
            app.name,
            config.label(),
            reduced.total_stored(),
            reduced.total_execs(),
            reduced.degree_of_matching(),
            out.display()
        );
        (reduced, message)
    };

    // `--report FILE`: the page `report --in OUT --html FILE` writes, with
    // this run's method for the divergence kernels and, with `--obs`, its
    // recorder for the pipeline metrics.
    if invocation.has("report") {
        let path = invocation.require("report")?;
        let run = obs.as_ref().map(|_| recorder.report());
        let options = trace_report::ReportOptions {
            method: config,
            ..Default::default()
        };
        let model = trace_report::build_model(&reduced, None, run.as_ref(), &options)
            .map_err(|e| e.to_string())?;
        write_text(Path::new(path), &trace_report::render_html(&model))?;
        message.push_str(&format!("\nanalysis report -> {path}"));
    }
    emit_obs(&obs, &recorder, &mut message)?;
    Ok(message)
}

fn cmd_reconstruct(invocation: &Invocation) -> Result<String, String> {
    let input = Path::new(invocation.require("in")?);
    let out = Path::new(invocation.require("out")?);
    let reduced = load_reduced_trace(input)?;
    let approx = reduced.reconstruct();
    store_app_trace(out, &approx, default_spec(), &Recorder::disabled())?;
    Ok(format!(
        "reconstructed {}: {} ranks, {} events -> {}",
        approx.name,
        approx.rank_count(),
        approx.total_events(),
        out.display()
    ))
}

fn cmd_convert(invocation: &Invocation) -> Result<String, String> {
    let input = Path::new(invocation.require("in")?);
    let out = Path::new(invocation.require("out")?);
    let spec = parse_chunk_spec(invocation, out)?;
    let obs = parse_obs(invocation)?;
    let recorder = obs_recorder(&obs);
    let written = convert_app_trace(input, out, spec, &recorder)?;
    let encoding = if crate::io::is_text_path(out) {
        "text".to_string()
    } else {
        format_label(spec)
    };
    let mut message = format!(
        "converted {} -> {} ({encoding}, {written} bytes)",
        input.display(),
        out.display()
    );
    emit_obs(&obs, &recorder, &mut message)?;
    Ok(message)
}

fn cmd_analyze(invocation: &Invocation) -> Result<String, String> {
    let input = Path::new(invocation.require("in")?);
    let app = load_app_trace(input, &Recorder::disabled())?;
    let diagnosis = diagnose(&app);
    Ok(format!(
        "diagnosis of {} ({} ranks, {} events):\n{}",
        app.name,
        app.rank_count(),
        app.total_events(),
        diagnosis.render_chart()
    ))
}

/// Parses the `report` tunables; `--method` defaults to the report's own
/// default method.
fn report_options(invocation: &Invocation) -> Result<trace_report::ReportOptions, String> {
    let defaults = trace_report::ReportOptions::default();
    let mut options = trace_report::ReportOptions {
        method: parse_method(invocation, Some(defaults.method.method))?,
        ..defaults
    };
    if let Some(threshold) = invocation.get_f64("divergence-threshold")? {
        if threshold.is_nan() || threshold <= 0.0 {
            return Err("--divergence-threshold must be positive".to_string());
        }
        options.divergence_threshold = threshold;
    }
    Ok(options)
}

/// `report`: analysis report over an already-reduced trace.
fn cmd_report(invocation: &Invocation) -> Result<String, String> {
    let options = report_options(invocation)?;
    let input = Path::new(invocation.require("in")?);
    let reduced = load_reduced_trace(input)?;
    let full = invocation.has("full").then(|| invocation.require("full"));
    let full = full.transpose()?;
    let original = full
        .map(|path| load_app_trace(Path::new(path), &Recorder::disabled()))
        .transpose()?;
    let run = if invocation.has("run-report") {
        let path = invocation.require("run-report")?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Some(trace_obs::RunReport::from_json(&text).map_err(|e| format!("{path}: {e}"))?)
    } else {
        None
    };
    let model = trace_report::build_model(&reduced, original.as_ref(), run.as_ref(), &options)
        .map_err(|e| format!("{}: {e}", full.unwrap_or_default()))?;
    let mut message = trace_report::render_text(&model);
    if invocation.has("html") {
        let path = invocation.require("html")?;
        write_text(Path::new(path), &trace_report::render_html(&model))?;
        message.push_str(&format!("\nhtml report -> {path}"));
    }
    if invocation.has("chrome") {
        let path = invocation.require("chrome")?;
        write_text(
            Path::new(path),
            &trace_report::render_chrome_trace(&reduced),
        )?;
        message.push_str(&format!("\nchrome trace -> {path}"));
    }
    Ok(message)
}

/// Runs a parsed invocation, returning the text to print.
pub fn run(invocation: &Invocation) -> Result<String, String> {
    check_flags(invocation)?;
    match invocation.command.as_str() {
        "help" | "--help" | "-h" => Ok(usage()),
        "list" => Ok(cmd_list()),
        "generate" => cmd_generate(invocation),
        "reduce" => cmd_reduce(invocation),
        "reconstruct" => cmd_reconstruct(invocation),
        "convert" => cmd_convert(invocation),
        "analyze" => cmd_analyze(invocation),
        "report" => cmd_report(invocation),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("trace_tools_cmd_{}_{name}", std::process::id()));
        path
    }

    fn cleanup(paths: &[&PathBuf]) {
        for p in paths {
            let _ = std::fs::remove_file(p);
        }
    }

    /// The nine paper method names, in the order `list` and the error
    /// messages print them.
    fn paper_names() -> Vec<&'static str> {
        vec![
            "relDiff",
            "absDiff",
            "Manhattan",
            "Euclidean",
            "Chebyshev",
            "iter_k",
            "iter_avg",
            "avgWave",
            "haarWave",
        ]
    }

    #[test]
    fn list_and_help_are_informative() {
        let list = run(&Invocation::new("list", &[])).unwrap();
        assert!(list.contains("late_sender"));
        assert!(list.contains("avgWave"));
        let help = run(&Invocation::new("help", &[])).unwrap();
        assert!(help.contains("subcommands"));
        assert!(run(&Invocation::new("bogus", &[])).is_err());
    }

    #[test]
    fn list_prints_exactly_the_nine_paper_methods() {
        let list = run(&Invocation::new("list", &[])).unwrap();
        let (_, methods) = list.split_once("similarity methods (9):\n").unwrap();
        let listed: Vec<&str> = methods
            .lines()
            .take_while(|line| !line.is_empty())
            .map(str::trim)
            .collect();
        assert_eq!(listed, paper_names(), "{list}");
    }

    #[test]
    fn methods_beyond_the_paper_are_unknown() {
        let err = run(&Invocation::new(
            "reduce",
            &[("in", "a"), ("out", "b"), ("method", "dtw")],
        ))
        .unwrap_err();
        assert!(err.contains("unknown method \"dtw\""), "{err}");
        assert!(err.ends_with(&paper_names().join(", ")), "{err}");
        let err = run(&Invocation::new(
            "report",
            &[("in", "a"), ("method", "cosine")],
        ))
        .unwrap_err();
        assert!(err.contains("unknown method \"cosine\""), "{err}");
        assert!(err.ends_with(&paper_names().join(", ")), "{err}");
    }

    #[test]
    fn extension_study_is_an_unknown_subcommand() {
        // `evaluate` went too: `generate` + `reduce` + `report --full` run
        // the paper's four criteria on files.
        for command in ["extension-study", "evaluate"] {
            let err = run(&Invocation::new(command, &[("workload", "late_sender")])).unwrap_err();
            assert_eq!(err, format!("unknown subcommand \"{command}\""));
        }
        assert!(!usage().contains("evaluate"), "{}", usage());
    }

    #[test]
    fn sampling_is_gone_from_the_cli() {
        let err = run(&Invocation::new(
            "sample",
            &[("in", "a"), ("out", "b"), ("policy", "every:4")],
        ))
        .unwrap_err();
        assert_eq!(err, "unknown subcommand \"sample\"");
        let list = run(&Invocation::new("list", &[])).unwrap();
        assert!(!list.contains("sampling"), "{list}");
    }

    #[test]
    fn clustering_is_gone_from_the_cli() {
        let err = run(&Invocation::new(
            "cluster",
            &[("in", "a"), ("k", "2"), ("algorithm", "kmeans")],
        ))
        .unwrap_err();
        assert_eq!(err, "unknown subcommand \"cluster\"");
        let help = usage();
        assert!(!help.contains("cluster"), "{help}");
        assert!(!help.contains("--algorithm"), "{help}");
    }

    /// Writes the tiny `late_sender` trace to `path`.
    fn generate_late_sender(path: &Path) {
        run(&Invocation::new(
            "generate",
            &[
                ("workload", "late_sender"),
                ("preset", "tiny"),
                ("out", path.to_str().unwrap()),
            ],
        ))
        .unwrap();
    }

    /// Asserts `invocation` fails on its `--threshold` before touching a file.
    fn assert_threshold_refused(invocation: Invocation) {
        let err = run(&invocation).unwrap_err();
        assert!(
            err.starts_with("--threshold must be a finite number >= 0"),
            "{err}"
        );
    }

    #[test]
    fn reduce_refuses_a_non_finite_or_negative_threshold() {
        let trace = temp_path("threshold_in.trc");
        let out = temp_path("threshold_out.trc");
        generate_late_sender(&trace);
        for (method, threshold) in [("relDiff", "NaN"), ("iter_k", "inf"), ("avgWave", "-1")] {
            assert_threshold_refused(Invocation::new(
                "reduce",
                &[
                    ("in", trace.to_str().unwrap()),
                    ("out", out.to_str().unwrap()),
                    ("method", method),
                    ("threshold", threshold),
                ],
            ));
        }
        assert!(!out.exists());
        cleanup(&[&trace]);
    }

    #[test]
    fn stream_reduce_refuses_a_non_finite_or_negative_threshold() {
        let trace = temp_path("threshold_stream_in.trc");
        let out = temp_path("threshold_stream_out.trc");
        generate_late_sender(&trace);
        for threshold in ["-1", "nan", "-inf"] {
            assert_threshold_refused(Invocation::new(
                "reduce",
                &[
                    ("in", trace.to_str().unwrap()),
                    ("out", out.to_str().unwrap()),
                    ("method", "Euclidean"),
                    ("threshold", threshold),
                    ("stream", ""),
                ],
            ));
        }
        assert!(!out.exists());
        cleanup(&[&trace]);
    }

    #[test]
    fn report_refuses_a_non_finite_or_negative_threshold() {
        let trace = temp_path("threshold_report_in.trc");
        let reduced = temp_path("threshold_report_reduced.trc");
        generate_late_sender(&trace);
        run(&Invocation::new(
            "reduce",
            &[
                ("in", trace.to_str().unwrap()),
                ("out", reduced.to_str().unwrap()),
                ("method", "relDiff"),
            ],
        ))
        .unwrap();
        // With and without --method: the report's default method takes the
        // same check.
        for (method, threshold) in [
            (None, "inf"),
            (Some("Manhattan"), "NaN"),
            (Some("absDiff"), "-10"),
        ] {
            let mut flags = vec![("in", reduced.to_str().unwrap()), ("threshold", threshold)];
            flags.extend(method.map(|m| ("method", m)));
            assert_threshold_refused(Invocation::new("report", &flags));
        }
        cleanup(&[&trace, &reduced]);
    }

    #[test]
    fn generate_reduce_reconstruct_analyze_pipeline() {
        let trace = temp_path("pipeline.trc");
        let reduced = temp_path("pipeline_reduced.trc");
        let rebuilt = temp_path("pipeline_rebuilt.txt");

        let out = run(&Invocation::new(
            "generate",
            &[
                ("workload", "late_sender"),
                ("preset", "tiny"),
                ("out", trace.to_str().unwrap()),
            ],
        ))
        .unwrap();
        assert!(out.contains("late_sender"));
        assert!(trace.exists());

        let out = run(&Invocation::new(
            "reduce",
            &[
                ("in", trace.to_str().unwrap()),
                ("out", reduced.to_str().unwrap()),
                ("method", "avgWave"),
            ],
        ))
        .unwrap();
        assert!(out.contains("avgWave"), "{out}");
        assert!(reduced.exists());

        let out = run(&Invocation::new(
            "reconstruct",
            &[
                ("in", reduced.to_str().unwrap()),
                ("out", rebuilt.to_str().unwrap()),
            ],
        ))
        .unwrap();
        assert!(out.contains("reconstructed"), "{out}");
        assert!(rebuilt.exists());

        let out = run(&Invocation::new(
            "analyze",
            &[("in", rebuilt.to_str().unwrap())],
        ))
        .unwrap();
        assert!(out.contains("diagnosis of late_sender"), "{out}");

        cleanup(&[&trace, &reduced, &rebuilt]);
    }

    #[test]
    fn stream_reduce_matches_the_in_memory_path() {
        let text = temp_path("stream_in.txt");
        let one_rank = temp_path("stream_one_rank.txt");
        let reduced_mem = temp_path("stream_mem.trc");
        let reduced_stream = temp_path("stream_out.trc");

        run(&Invocation::new(
            "generate",
            &[
                ("workload", "dyn_load_balance"),
                ("preset", "tiny"),
                ("out", text.to_str().unwrap()),
            ],
        ))
        .unwrap();
        std::fs::write(
            &one_rank,
            "TRACEFORMAT 1\nTRACE RANKS 1 NAME one\nREGION 0 work\nCONTEXT 0 main.1\n\
             RANK 0\nSEG_BEGIN 0 0\nEVENT 0 10 90 0 COMPUTE\nSEG_END 0 100\n\
             SEG_BEGIN 0 100\nEVENT 0 110 190 0 COMPUTE\nSEG_END 0 200\nEND_RANK\n\
             END_TRACE\n",
        )
        .unwrap();

        // The summary names the workers that ran: one per rank at most, and
        // a single worker's peak is one observation, not a bound.
        for (input, shards, pipeline, peak) in [
            (&text, "3", "over 3 shard(s)", "resident segments <="),
            (
                &one_rank,
                "4",
                "over 1 shard(s)",
                "peak resident segments 2 ",
            ),
        ] {
            run(&Invocation::new(
                "reduce",
                &[
                    ("in", input.to_str().unwrap()),
                    ("out", reduced_mem.to_str().unwrap()),
                    ("method", "relDiff"),
                ],
            ))
            .unwrap();

            let out = run(&Invocation::new(
                "reduce",
                &[
                    ("in", input.to_str().unwrap()),
                    ("out", reduced_stream.to_str().unwrap()),
                    ("method", "relDiff"),
                    ("stream", ""),
                    ("shards", shards),
                ],
            ))
            .unwrap();
            assert!(out.contains("stream-reduced"), "{out}");
            assert!(out.contains(pipeline), "{out}");
            assert!(out.contains(peak), "{out}");

            // The streamed output file is byte-identical to the in-memory one.
            assert_eq!(
                std::fs::read(&reduced_mem).unwrap(),
                std::fs::read(&reduced_stream).unwrap()
            );
        }

        cleanup(&[&text, &one_rank, &reduced_mem, &reduced_stream]);
    }

    #[test]
    fn stream_reduce_accepts_both_input_formats() {
        let trace_v2 = temp_path("stream_any_v2.trc");
        let text = temp_path("stream_any.txt");
        let reduced_mem = temp_path("stream_any_mem.trc");

        // `generate` writes a chunked v2 container.
        let out = run(&Invocation::new(
            "generate",
            &[
                ("workload", "late_sender"),
                ("preset", "tiny"),
                ("out", trace_v2.to_str().unwrap()),
            ],
        ))
        .unwrap();
        assert!(out.contains("container v2"), "{out}");
        assert_eq!(&std::fs::read(&trace_v2).unwrap()[..4], b"TRC2");
        run(&Invocation::new(
            "convert",
            &[
                ("in", trace_v2.to_str().unwrap()),
                ("out", text.to_str().unwrap()),
            ],
        ))
        .unwrap();

        run(&Invocation::new(
            "reduce",
            &[
                ("in", text.to_str().unwrap()),
                ("out", reduced_mem.to_str().unwrap()),
                ("method", "avgWave"),
            ],
        ))
        .unwrap();
        let expected = std::fs::read(&reduced_mem).unwrap();

        for (input, marker) in [(&text, "text input"), (&trace_v2, "container v2")] {
            let out_path = temp_path("stream_any_out.trc");
            let out = run(&Invocation::new(
                "reduce",
                &[
                    ("in", input.to_str().unwrap()),
                    ("out", out_path.to_str().unwrap()),
                    ("method", "avgWave"),
                    ("stream", ""),
                    ("shards", "2"),
                ],
            ))
            .unwrap();
            assert!(out.contains(marker), "{marker}: {out}");
            // Bit-identical output regardless of the input encoding.
            assert_eq!(std::fs::read(&out_path).unwrap(), expected, "{marker}");
            cleanup(&[&out_path]);
        }

        cleanup(&[&trace_v2, &text, &reduced_mem]);
    }

    #[test]
    fn unknown_flags_are_rejected_with_the_valid_set() {
        let err = run(&Invocation::new(
            "reduce",
            &[
                ("in", "a"),
                ("out", "b"),
                ("method", "avgWave"),
                ("bogus", "1"),
            ],
        ))
        .unwrap_err();
        assert!(err.contains("unknown option --bogus"), "{err}");
        assert!(err.contains("--threshold"), "{err}");

        let err = run(&Invocation::new("list", &[("verbose", "")])).unwrap_err();
        assert!(err.contains("takes no flags"), "{err}");

        // Unknown subcommands still get the subcommand error, not a flag one.
        let err = run(&Invocation::new("bogus", &[("x", "1")])).unwrap_err();
        assert!(err.contains("unknown subcommand"), "{err}");

        // One binary write format: no switch to the monolithic v1 encoding,
        // no chunk grouping knob, and no switch for the default container.
        for flags in ["--v1", "--chunk-segments 4", "--container"] {
            let line = format!("convert --in a --out b.trc {flags}");
            let args: Vec<String> = line.split(' ').map(String::from).collect();
            let err = run(&crate::parse_args(&args).unwrap()).unwrap_err();
            let flag = flags.split(' ').next().unwrap();
            assert!(err.contains(&format!("unknown option {flag}")), "{err}");
        }

        // The binary output flag is rejected for text outputs — on every
        // command that writes traces, not just convert (a silently dropped
        // --codec would let a user believe they wrote a compressed file).
        let err = run(&Invocation::new(
            "convert",
            &[("in", "a"), ("out", "b.txt"), ("codec", "none")],
        ))
        .unwrap_err();
        assert!(err.contains("text extension"), "{err}");
        let err = run(&Invocation::new(
            "generate",
            &[
                ("workload", "late_sender"),
                ("out", "/tmp/x.txt"),
                ("codec", "delta-lz"),
            ],
        ))
        .unwrap_err();
        assert!(err.contains("text extension"), "{err}");
        let err = run(&Invocation::new(
            "reduce",
            &[
                ("in", "a"),
                ("out", "b.trctxt"),
                ("method", "avgWave"),
                ("codec", "none"),
            ],
        ))
        .unwrap_err();
        assert!(err.contains("text extension"), "{err}");

        // Codec names other than the two the CLI writes — the retired
        // `delta`, the library-only `lz` — are refused with the two.
        for codec in ["lz", "delta", "zstd", ""] {
            let err = run(&Invocation::new(
                "generate",
                &[
                    ("workload", "late_sender"),
                    ("out", "/tmp/x.trc"),
                    ("codec", codec),
                ],
            ))
            .unwrap_err();
            let known = format!("unknown codec {codec:?}; known codecs: delta-lz, none");
            assert!(err.contains(&known), "{err}");
        }
    }

    #[test]
    fn binary_writes_default_to_the_delta_lz_codec() {
        let default_out = temp_path("default_codec.trc");
        let none_out = temp_path("default_codec_none.trc");
        // No --codec flag: delta-lz is the default...
        let out = run(&Invocation::new(
            "generate",
            &[
                ("workload", "sweep3d_8p"),
                ("preset", "tiny"),
                ("out", default_out.to_str().unwrap()),
            ],
        ))
        .unwrap();
        assert!(out.contains("codec delta-lz"), "{out}");
        // ...and --codec none still opts out.
        let out = run(&Invocation::new(
            "generate",
            &[
                ("workload", "sweep3d_8p"),
                ("preset", "tiny"),
                ("out", none_out.to_str().unwrap()),
                ("codec", "none"),
            ],
        ))
        .unwrap();
        assert!(out.contains("codec none"), "{out}");
        assert_eq!(
            crate::io::load_app_trace(&default_out, &Recorder::disabled()).unwrap(),
            crate::io::load_app_trace(&none_out, &Recorder::disabled()).unwrap()
        );
        let compressed = std::fs::metadata(&default_out).unwrap().len();
        let uncompressed = std::fs::metadata(&none_out).unwrap().len();
        assert!(
            compressed < uncompressed,
            "default write must compress: {compressed} vs {uncompressed} bytes"
        );
        cleanup(&[&default_out, &none_out]);
    }

    #[test]
    fn codecs_round_trip_through_the_cli_and_delta_lz_shrinks_the_file() {
        let none = temp_path("codec_none.trc");
        let dlz = temp_path("codec_dlz.trc");
        for (path, codec) in [(&none, "none"), (&dlz, "delta-lz")] {
            let out = run(&Invocation::new(
                "generate",
                &[
                    ("workload", "dyn_load_balance"),
                    ("preset", "tiny"),
                    ("out", path.to_str().unwrap()),
                    ("codec", codec),
                ],
            ))
            .unwrap();
            assert!(out.contains(&format!("codec {codec}")), "{out}");
        }
        // Same trace back from both encodings, smaller file under delta-lz.
        assert_eq!(
            crate::io::load_app_trace(&none, &Recorder::disabled()).unwrap(),
            crate::io::load_app_trace(&dlz, &Recorder::disabled()).unwrap()
        );
        let none_len = std::fs::metadata(&none).unwrap().len();
        let dlz_len = std::fs::metadata(&dlz).unwrap().len();
        assert!(
            dlz_len < none_len,
            "delta-lz {dlz_len} bytes vs none {none_len} bytes"
        );

        // Compressed containers stream-reduce like uncompressed ones.
        let reduced = temp_path("codec_dlz_reduced.trc");
        let out = run(&Invocation::new(
            "reduce",
            &[
                ("in", dlz.to_str().unwrap()),
                ("out", reduced.to_str().unwrap()),
                ("method", "avgWave"),
                ("stream", ""),
            ],
        ))
        .unwrap();
        assert!(out.contains("container v2"), "{out}");
        cleanup(&[&none, &dlz, &reduced]);
    }

    #[test]
    fn stream_reduce_rejects_bad_shards() {
        let err = run(&Invocation::new(
            "reduce",
            &[
                ("in", "/tmp/x.txt"),
                ("out", "/tmp/y.trc"),
                ("method", "relDiff"),
                ("stream", ""),
                ("shards", "0"),
            ],
        ))
        .unwrap_err();
        assert!(err.contains("--shards"), "{err}");

        // --shards without --stream would otherwise be silently ignored.
        let err = run(&Invocation::new(
            "reduce",
            &[
                ("in", "/tmp/x.txt"),
                ("out", "/tmp/y.trc"),
                ("method", "relDiff"),
                ("shards", "4"),
            ],
        ))
        .unwrap_err();
        assert!(err.contains("add --stream"), "{err}");
    }

    #[test]
    fn convert_to_text_parses_back_to_the_same_trace() {
        let trace = temp_path("convert_text.trc");
        let text = temp_path("convert_text.txt");

        run(&Invocation::new(
            "generate",
            &[
                ("workload", "early_gather"),
                ("preset", "tiny"),
                ("out", trace.to_str().unwrap()),
            ],
        ))
        .unwrap();

        let out = run(&Invocation::new(
            "convert",
            &[
                ("in", trace.to_str().unwrap()),
                ("out", text.to_str().unwrap()),
            ],
        ))
        .unwrap();
        assert!(out.contains("converted"));
        // The text file parses back to the same trace.
        assert_eq!(
            crate::io::load_app_trace(&trace, &Recorder::disabled()).unwrap(),
            crate::io::load_app_trace(&text, &Recorder::disabled()).unwrap()
        );

        cleanup(&[&trace, &text]);
    }

    #[test]
    fn report_full_prints_the_committed_paper_row() {
        // Files in, the four criteria out: the same evaluator as the table,
        // so the committed late_sender avgWave(0.2) row comes back exactly.
        let trace = temp_path("paper_row.trc");
        let reduced = temp_path("paper_row_reduced.trc");
        run(&Invocation::new(
            "generate",
            &[
                ("workload", "late_sender"),
                ("preset", "paper"),
                ("out", trace.to_str().unwrap()),
            ],
        ))
        .unwrap();
        run(&Invocation::new(
            "reduce",
            &[
                ("in", trace.to_str().unwrap()),
                ("out", reduced.to_str().unwrap()),
                ("method", "avgWave"),
            ],
        ))
        .unwrap();
        let out = run(&Invocation::new(
            "report",
            &[
                ("in", reduced.to_str().unwrap()),
                ("full", trace.to_str().unwrap()),
            ],
        ))
        .unwrap();
        cleanup(&[&trace, &reduced]);

        let table =
            trace_eval::results::parse(include_str!("../../../PAPER_RESULTS.json")).unwrap();
        let block = table.iter().find(|b| b.name == "late_sender").unwrap();
        let row = block
            .rows
            .iter()
            .find(|r| r.method == Method::AvgWave && r.threshold_milli == 200)
            .unwrap();
        assert_eq!(
            (row.full_bytes, row.reduced_bytes, row.matches, row.possible),
            (27_355, 4_797, 792, 792)
        );
        assert!(row.retained);
        for expected in [
            format!("({} of {} v1 bytes)", row.reduced_bytes, row.full_bytes),
            format!("({} of {} possible)", row.matches, row.possible),
            format!("(p90 error {} ns)", row.approx_p90_ns),
            "trends retained: yes".to_string(),
        ] {
            assert!(out.contains(&expected), "{expected:?} missing from\n{out}");
        }
        assert!(out.contains("-- severity chart (full trace) --"), "{out}");
        assert!(
            out.contains("-- severity chart (reconstructed trace) --"),
            "{out}"
        );
    }

    #[test]
    fn report_full_refuses_a_trace_that_is_not_the_original() {
        let late_sender = temp_path("mismatch_ls.trc");
        let early_gather = temp_path("mismatch_eg.trc");
        let reduced = temp_path("mismatch_reduced.trc");
        generate_late_sender(&late_sender);
        run(&Invocation::new(
            "generate",
            &[
                ("workload", "early_gather"),
                ("preset", "tiny"),
                ("out", early_gather.to_str().unwrap()),
            ],
        ))
        .unwrap();
        run(&Invocation::new(
            "reduce",
            &[
                ("in", late_sender.to_str().unwrap()),
                ("out", reduced.to_str().unwrap()),
                ("method", "avgWave"),
            ],
        ))
        .unwrap();
        let err = run(&Invocation::new(
            "report",
            &[
                ("in", reduced.to_str().unwrap()),
                ("full", early_gather.to_str().unwrap()),
            ],
        ))
        .unwrap_err();
        cleanup(&[&late_sender, &early_gather, &reduced]);
        assert!(err.starts_with(early_gather.to_str().unwrap()), "{err}");
        assert!(
            err.ends_with("it reduces \"late_sender\", not \"early_gather\""),
            "{err}"
        );
    }

    #[test]
    fn obs_flags_emit_reports_without_changing_the_output() {
        let trace = temp_path("obs_in.trc");
        let plain = temp_path("obs_plain.trc");
        let observed = temp_path("obs_observed.trc");
        let report = temp_path("obs_report.json");

        // generate with --obs appends a text run report with Store timing.
        let out = run(&Invocation::new(
            "generate",
            &[
                ("workload", "late_sender"),
                ("preset", "tiny"),
                ("out", trace.to_str().unwrap()),
                ("obs", ""),
            ],
        ))
        .unwrap();
        assert!(out.contains("== run report =="), "{out}");
        assert!(out.contains("store"), "{out}");
        assert!(out.contains("chunk.writes"), "{out}");

        // The reduced output is byte-identical with and without recording.
        run(&Invocation::new(
            "reduce",
            &[
                ("in", trace.to_str().unwrap()),
                ("out", plain.to_str().unwrap()),
                ("method", "avgWave"),
            ],
        ))
        .unwrap();
        let out = run(&Invocation::new(
            "reduce",
            &[
                ("in", trace.to_str().unwrap()),
                ("out", observed.to_str().unwrap()),
                ("method", "avgWave"),
                ("obs-out", report.to_str().unwrap()),
            ],
        ))
        .unwrap();
        assert!(out.contains("run report (json) ->"), "{out}");
        assert_eq!(
            std::fs::read(&plain).unwrap(),
            std::fs::read(&observed).unwrap(),
            "recording must not change the written trace"
        );

        // The --obs-out file is valid against the documented schema and
        // round-trips through the parser losslessly.
        let json = std::fs::read_to_string(&report).unwrap();
        let parsed = trace_obs::RunReport::from_json(&json).unwrap();
        assert!(parsed.counters.contains_key("match.comparisons"), "{json}");
        assert_eq!(parsed.render_json(), json, "one canonical serialization");

        cleanup(&[&trace, &plain, &observed, &report]);
    }

    #[test]
    fn obs_covers_streaming_and_chrome_formats() {
        let trace = temp_path("obs_stream_in.trc");
        let reduced = temp_path("obs_stream_out.trc");
        run(&Invocation::new(
            "generate",
            &[
                ("workload", "dyn_load_balance"),
                ("preset", "tiny"),
                ("out", trace.to_str().unwrap()),
            ],
        ))
        .unwrap();

        // Streaming reduction with a text report: per-rank spans show up.
        let out = run(&Invocation::new(
            "reduce",
            &[
                ("in", trace.to_str().unwrap()),
                ("out", reduced.to_str().unwrap()),
                ("method", "relDiff"),
                ("stream", ""),
                ("shards", "2"),
                ("obs", ""),
            ],
        ))
        .unwrap();
        assert!(out.contains("== run report =="), "{out}");
        assert!(out.contains("rank"), "{out}");
        assert!(out.contains("stream.events"), "{out}");

        // convert emits a chrome trace with Parse and Store slices.
        let out = run(&Invocation::new(
            "convert",
            &[
                ("in", trace.to_str().unwrap()),
                ("out", reduced.to_str().unwrap()),
                ("obs-format", "chrome"),
            ],
        ))
        .unwrap();
        assert!(out.contains("traceEvents"), "{out}");
        assert!(out.contains("\"parse\""), "{out}");
        assert!(out.contains("\"store\""), "{out}");

        // Bad formats are rejected with the valid set.
        let err = run(&Invocation::new(
            "convert",
            &[
                ("in", trace.to_str().unwrap()),
                ("out", reduced.to_str().unwrap()),
                ("obs-format", "xml"),
            ],
        ))
        .unwrap_err();
        assert!(err.contains("text, json or chrome"), "{err}");

        // --obs-out without a value is an error, not a silent drop.
        let err = run(&Invocation::new(
            "convert",
            &[
                ("in", trace.to_str().unwrap()),
                ("out", reduced.to_str().unwrap()),
                ("obs-out", ""),
            ],
        ))
        .unwrap_err();
        assert!(err.contains("--obs-out"), "{err}");

        // Commands that never record reject the obs flags.
        let err = run(&Invocation::new(
            "reconstruct",
            &[("in", "a"), ("out", "b"), ("obs", "")],
        ))
        .unwrap_err();
        assert!(err.contains("unknown option --obs"), "{err}");

        cleanup(&[&trace, &reduced]);
    }

    #[test]
    fn report_subcommand_renders_all_three_sinks() {
        let trace = temp_path("report_in.trc");
        let reduced = temp_path("report_reduced.trc");
        let obs_json = temp_path("report_obs.json");
        let html = temp_path("report.html");
        let chrome = temp_path("report_chrome.json");
        let inline = temp_path("report_inline.html");

        run(&Invocation::new(
            "generate",
            &[
                ("workload", "late_sender"),
                ("preset", "tiny"),
                ("out", trace.to_str().unwrap()),
            ],
        ))
        .unwrap();
        // `reduce --report` writes the HTML report alongside the trace.
        let out = run(&Invocation::new(
            "reduce",
            &[
                ("in", trace.to_str().unwrap()),
                ("out", reduced.to_str().unwrap()),
                ("method", "relDiff"),
                ("obs-out", obs_json.to_str().unwrap()),
                ("report", inline.to_str().unwrap()),
            ],
        ))
        .unwrap();
        assert!(out.contains("analysis report ->"), "{out}");
        let inline_html = std::fs::read_to_string(&inline).unwrap();
        assert!(inline_html.contains("<!DOCTYPE html>"), "html preamble");
        assert!(
            inline_html.contains("id=\"pipeline\""),
            "obs run must embed pipeline metrics"
        );

        // The standalone subcommand: text to stdout, HTML + chrome files.
        let out = run(&Invocation::new(
            "report",
            &[
                ("in", reduced.to_str().unwrap()),
                ("full", trace.to_str().unwrap()),
                ("run-report", obs_json.to_str().unwrap()),
                ("html", html.to_str().unwrap()),
                ("chrome", chrome.to_str().unwrap()),
            ],
        ))
        .unwrap();
        assert!(out.contains("== trace report:"), "{out}");
        assert!(out.contains("divergent ranks:"), "{out}");
        assert!(out.contains("region trie"), "{out}");
        assert!(out.contains("file size:"), "--full adds compression");
        assert!(out.contains("pipeline stages"), "--run-report adds metrics");

        let html_text = std::fs::read_to_string(&html).unwrap();
        assert!(html_text.contains("id=\"report-data\""), "JSON island");
        assert!(html_text.contains("id=\"divergent-ranks\""), "{html_text}");
        assert!(
            !html_text.contains("http://") && !html_text.contains("https://"),
            "self-contained: no external assets"
        );
        let chrome_text = std::fs::read_to_string(&chrome).unwrap();
        let events = trace_obs::chrome::parse(&chrome_text).unwrap();
        assert!(!events.is_empty(), "reduced timeline has events");
        assert!(events.iter().all(|e| e.cat == "reduced"));

        // Unknown flags on `report` list the valid set.
        let err = run(&Invocation::new("report", &[("in", "x"), ("bogus", "1")])).unwrap_err();
        assert!(err.contains("unknown option --bogus"), "{err}");
        assert!(err.contains("--divergence-threshold"), "{err}");

        cleanup(&[&trace, &reduced, &obs_json, &html, &chrome, &inline]);
    }

    #[test]
    fn helpful_errors_for_bad_inputs() {
        let err = run(&Invocation::new(
            "generate",
            &[("workload", "not_a_workload"), ("out", "/tmp/x.trc")],
        ))
        .unwrap_err();
        assert!(err.contains("known workloads"), "{err}");

        let err = run(&Invocation::new(
            "reduce",
            &[
                ("in", "/tmp/x.trc"),
                ("out", "/tmp/y.trc"),
                ("method", "nope"),
            ],
        ))
        .unwrap_err();
        assert!(err.contains("known methods"), "{err}");

        let err = run(&Invocation::new(
            "reduce",
            &[("in", "/tmp/x.trc"), ("out", "/tmp/y.trc")],
        ))
        .unwrap_err();
        assert!(err.contains("--method"), "{err}");
    }
}
