//! Failure atomicity of everything the CLI writes (ROADMAP 5c): outputs go
//! through `write_file_atomic` — a sibling temp file renamed over the
//! target — so a failed write leaves neither a truncated file nor a
//! clobbered previous output, and no write leaves its temp file behind.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Cursor, Write};
use std::path::{Path, PathBuf};

use trace_container::layout::chunk_end;
use trace_container::{
    crc32, decode_app_any, decode_reduced_any, encode_app_container, encode_reduced_container,
    read_app_container, read_index, read_reduced_container, rewrite_index, write_app_container,
    ChunkSpec, Codec, CompressError, ContainerError, RankSectionEntry,
};
use trace_format::{parse_app_trace, write_app_trace};
use trace_model::{
    ContextId, ContextTable, Rank, ReducedAppTrace, ReducedRankTrace, RegionTable, Segment,
    SegmentExec, StoredSegment, Time,
};
use trace_reduce::{Method, Reducer};
use trace_sim::{SizePreset, Workload, WorkloadKind};
use trace_stream::{
    convert_container, convert_text, load_container_file, reduce_any_file, reduce_any_file_into,
    reduce_container_file, OutputFormat, StreamError,
};
use trace_tools::io::write_file_atomic;
use trace_tools::{run, Invocation};

fn temp_path(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("trace_tools_atomic_{}_{name}", std::process::id()));
    path
}

/// The entries of `path`'s directory that start with its temp-file prefix.
fn temp_siblings(path: &Path) -> Vec<String> {
    let prefix = format!(".{}.", path.file_name().unwrap().to_str().unwrap());
    std::fs::read_dir(path.parent().unwrap())
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.starts_with(&prefix))
        .collect()
}

#[test]
fn a_failed_write_leaves_no_target_no_temp_and_no_clobber() {
    let fail_half_way = |file: &mut File| {
        file.write_all(b"half of the out")?;
        Err(io::Error::other("disk full"))
    };

    // No previous output: the target stays absent.
    let path = temp_path("closure.trc");
    let err = write_file_atomic(&path, fail_half_way).unwrap_err();
    assert!(err.contains("cannot write"), "{err}");
    assert!(err.contains("disk full"), "{err}");
    assert!(!path.exists(), "a failed write must not create the target");
    assert_eq!(temp_siblings(&path), Vec::<String>::new());

    // A previous output: byte-identical afterwards.
    write_file_atomic(&path, |file| file.write_all(b"previous output")).unwrap();
    assert_eq!(temp_siblings(&path), Vec::<String>::new(), "after success");
    write_file_atomic(&path, fail_half_way).unwrap_err();
    assert_eq!(std::fs::read(&path).unwrap(), b"previous output");
    assert_eq!(temp_siblings(&path), Vec::<String>::new());

    // And a later success replaces it whole.
    write_file_atomic(&path, |file| file.write_all(b"new")).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), b"new");
    let _ = std::fs::remove_file(&path);
}

/// A file that fills up once `budget` more bytes have gone into it.
struct FillsUp<'a> {
    file: &'a mut File,
    budget: usize,
}

impl Write for FillsUp<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.budget == 0 {
            return Err(io::Error::other("disk full"));
        }
        let n = self.file.write(&buf[..buf.len().min(self.budget)])?;
        self.budget -= n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

#[test]
fn a_container_store_failing_partway_keeps_the_previous_bytes() {
    // Several ranks, so the container's sections are encoded on as many
    // workers as the host has cores while the sink fails under them.
    let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
    let spec = ChunkSpec::with_segments(2).codec(Codec::DeltaLz);
    let full = encode_app_container(&app, spec);
    let off = trace_obs::Recorder::disabled();
    let path = temp_path("container_partway.trc");
    write_file_atomic(&path, |file| file.write_all(b"previous output")).unwrap();
    for budget in [0, 100, full.len() / 2, full.len() - 1] {
        let err = write_file_atomic(&path, |file| {
            let sink = BufWriter::with_capacity(256, FillsUp { file, budget });
            write_app_container(sink, &app, spec, &off).map(drop)
        })
        .unwrap_err();
        assert!(err.contains("disk full"), "{budget} bytes: {err}");
        assert_eq!(std::fs::read(&path).unwrap(), b"previous output");
        assert_eq!(temp_siblings(&path), Vec::<String>::new(), "{budget} bytes");
    }
    // With room for all of it, the same store replaces the target whole.
    write_file_atomic(&path, |file| {
        let sink = BufWriter::new(FillsUp {
            file,
            budget: full.len(),
        });
        write_app_container(sink, &app, spec, &off).map(drop)
    })
    .unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), full);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn every_cli_output_is_renamed_into_place() {
    let trace = temp_path("e2e.trc");
    let reduced = temp_path("e2e_reduced.trc");
    let obs = temp_path("e2e_obs.json");
    let report = temp_path("e2e_report.html");
    let path = |p: &PathBuf| p.to_str().unwrap().to_string();
    run(&Invocation::new(
        "generate",
        &[
            ("workload", "late_sender"),
            ("preset", "tiny"),
            ("out", &path(&trace)),
        ],
    ))
    .unwrap();
    run(&Invocation::new(
        "reduce",
        &[
            ("in", &path(&trace)),
            ("out", &path(&reduced)),
            ("method", "avgWave"),
            ("obs-out", &path(&obs)),
            ("report", &path(&report)),
        ],
    ))
    .unwrap();
    for output in [&trace, &reduced, &obs, &report] {
        assert!(output.exists(), "{}", output.display());
        assert_eq!(temp_siblings(output), Vec::<String>::new());
        let _ = std::fs::remove_file(output);
    }

    // A target directory that does not exist fails cleanly.
    let nowhere = temp_path("no_such_dir").join("out.trc");
    let err = run(&Invocation::new(
        "generate",
        &[
            ("workload", "late_sender"),
            ("preset", "tiny"),
            ("out", &path(&nowhere)),
        ],
    ))
    .unwrap_err();
    assert!(err.contains("cannot write"), "{err}");
}

/// A text trace of eight ranks, one truncated in rank 3's records, and one
/// with a bad record line in rank 5.
fn hostile_texts() -> (String, [(&'static str, String); 2]) {
    let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
    let text = write_app_trace(&app);
    let records_of = |rank: usize| {
        let start = text.find(&format!("RANK {rank}\n")).unwrap();
        start + text[start..].find('\n').unwrap() + 1
    };
    let truncated = text[..records_of(3) + 100].to_string();
    let at = records_of(5);
    let bad_line = format!("{}EVENT 0 nonsense\n{}", &text[..at], &text[at..]);
    (text, [("truncated", truncated), ("bad_line", bad_line)])
}

/// `trace-tools convert --in input --out target`.
fn convert_cli(input: &Path, target: &Path) -> Result<String, String> {
    let (input, target) = (input.to_str().unwrap(), target.to_str().unwrap());
    run(&Invocation::new(
        "convert",
        &[("in", input), ("out", target)],
    ))
}

#[test]
fn a_streamed_convert_failing_on_its_input_names_the_input_and_keeps_the_target() {
    let (text, cases) = hostile_texts();
    let target = temp_path("stream_input.trc");
    let spec = ChunkSpec::with_codec(Codec::DeltaLz);
    let off = trace_obs::Recorder::disabled();
    let keeps_the_target = |case: &str| {
        assert_eq!(
            std::fs::read(&target).unwrap(),
            b"previous output",
            "{case}"
        );
        assert_eq!(temp_siblings(&target), Vec::<String>::new(), "{case}");
    };
    write_file_atomic(&target, |file| file.write_all(b"previous output")).unwrap();
    for (name, hostile) in &cases {
        let input = temp_path(&format!("stream_input_{name}.txt"));
        std::fs::write(&input, hostile).unwrap();
        // Through the CLI: the message reads as a whole-trace load's does.
        let err = convert_cli(&input, &target).unwrap_err();
        let expected = parse_app_trace(hostile).unwrap_err();
        assert_eq!(err, format!("{}: {expected}", input.display()), "{name}");
        assert!(err.contains("trace format error"), "{name}: {err}");
        keeps_the_target(name);
        // On one, two and three workers: the parser's typed error.
        for workers in [1, 2, 3] {
            let mut failed = None;
            write_file_atomic(&target, |file| {
                let open = |_| File::open(&input).map(BufReader::new);
                let format = OutputFormat::Container(spec);
                convert_text(open, BufWriter::new(file), format, &off, workers)
                    .map(drop)
                    .map_err(|e| io::Error::other(failed.insert(e).to_string()))
            })
            .unwrap_err();
            let err = failed.expect("the conversion failed");
            assert!(
                matches!(&err, StreamError::Format(e) if *e == expected),
                "{name}, {workers} workers: {err}"
            );
            keeps_the_target(&format!("{name}, {workers} workers"));
        }
        let _ = std::fs::remove_file(&input);
    }

    // A container cut off half-way: the container decoder's error.
    let bytes = encode_app_container(&parse_app_trace(&text).unwrap(), spec);
    let cut = &bytes[..bytes.len() / 2];
    let input = temp_path("stream_input_cut.trc");
    std::fs::write(&input, cut).unwrap();
    let expected = decode_app_any(cut).unwrap_err();
    let err = convert_cli(&input, &target).unwrap_err();
    assert_eq!(err, format!("{}: {expected}", input.display()));
    keeps_the_target("cut container");
    for workers in [1, 2, 3] {
        let mut failed = None;
        write_file_atomic(&target, |file| {
            let format = OutputFormat::Container(spec);
            convert_container(&input, BufWriter::new(file), format, &off, workers)
                .map(drop)
                .map_err(|e| io::Error::other(failed.insert(e).to_string()))
        })
        .unwrap_err();
        let err = failed.expect("the conversion failed");
        assert!(
            matches!(&err, StreamError::Container(e) if e.to_string() == expected.to_string()),
            "{workers} workers: {err}"
        );
        keeps_the_target(&format!("cut container, {workers} workers"));
    }
    let _ = std::fs::remove_file(&input);
    let _ = std::fs::remove_file(&target);
}

#[test]
fn a_one_worker_streamed_reduce_failing_on_its_input_names_it_and_keeps_the_target() {
    // `reduce --stream --shards 1` reads its input on the calling thread,
    // and what it meets is the command's error.  Without
    // `--shards` one worker runs per core, and the error is the same: the
    // lowest failing section's, and a container whose index trailer cannot
    // be read is reduced in order, as one worker reduces it.
    let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
    let text = write_app_trace(&app);
    let last = text.rfind("\nRANK ").unwrap() + 1;
    let records = last + text[last..].find('\n').unwrap() + 1;
    let bad_last_rank = format!("{}EVENT 0 nonsense\n{}", &text[..records], &text[records..]);
    let mid_record = records + text[records..].find(' ').unwrap();
    let cut_text = text[..mid_record].to_string();
    let container = encode_app_container(&app, ChunkSpec::with_codec(Codec::DeltaLz));
    let cut_container = container[..container.len() / 2].to_vec();
    let cases = [
        (
            "bad_last_rank.txt",
            bad_last_rank.clone().into_bytes(),
            parse_app_trace(&bad_last_rank).unwrap_err().to_string(),
        ),
        (
            "cut_record.txt",
            cut_text.clone().into_bytes(),
            parse_app_trace(&cut_text).unwrap_err().to_string(),
        ),
        (
            "cut_chunk.trc",
            cut_container.clone(),
            decode_app_any(&cut_container).unwrap_err().to_string(),
        ),
    ];
    let target = temp_path("one_worker_reduce.trc");
    write_file_atomic(&target, |file| file.write_all(b"previous output")).unwrap();
    for (name, bytes, expected) in cases {
        let input = temp_path(&format!("one_worker_reduce_{name}"));
        std::fs::write(&input, bytes).unwrap();
        let (from, to) = (input.to_str().unwrap(), target.to_str().unwrap());
        for shards in [Some("1"), None] {
            let mut flags = vec![
                ("in", from),
                ("out", to),
                ("method", "avgWave"),
                ("stream", ""),
            ];
            flags.extend(shards.map(|shards| ("shards", shards)));
            let case = format!("{name}, --shards {shards:?}");
            let err = run(&Invocation::new("reduce", &flags)).unwrap_err();
            assert_eq!(err, format!("{}: {expected}", input.display()), "{case}");
            assert_eq!(
                std::fs::read(&target).unwrap(),
                b"previous output",
                "{case}"
            );
            assert_eq!(temp_siblings(&target), Vec::<String>::new(), "{case}");
        }
        let _ = std::fs::remove_file(&input);
    }
    let _ = std::fs::remove_file(&target);
}

#[test]
fn a_streamed_convert_into_a_sink_that_fills_up_keeps_the_previous_bytes() {
    let (text, _) = hostile_texts();
    let spec = ChunkSpec::with_codec(Codec::DeltaLz);
    let full = encode_app_container(&parse_app_trace(&text).unwrap(), spec);
    let off = trace_obs::Recorder::disabled();
    let path = temp_path("stream_sink.trc");
    write_file_atomic(&path, |file| file.write_all(b"previous output")).unwrap();
    let convert = |file: &mut File, budget, workers| {
        let sink = BufWriter::with_capacity(256, FillsUp { file, budget });
        let format = OutputFormat::Container(spec);
        match convert_text(
            |_| Ok(Cursor::new(text.as_bytes())),
            sink,
            format,
            &off,
            workers,
        ) {
            Ok(_) => Ok(()),
            Err(StreamError::Sink(e)) => Err(e),
            Err(e) => panic!("an input error from a valid trace: {e}"),
        }
    };
    for workers in [1, 2, 3] {
        for budget in [0, full.len() / 2, full.len() - 1] {
            let err = write_file_atomic(&path, |file| convert(file, budget, workers)).unwrap_err();
            assert!(
                err.contains("disk full"),
                "{workers} workers, {budget} bytes: {err}"
            );
            assert_eq!(std::fs::read(&path).unwrap(), b"previous output");
            assert_eq!(temp_siblings(&path), Vec::<String>::new());
        }
        write_file_atomic(&path, |file| convert(file, full.len(), workers)).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), full, "{workers} workers");
        write_file_atomic(&path, |file| file.write_all(b"previous output")).unwrap();
    }
    let _ = std::fs::remove_file(&path);

    // Through the CLI, a device that is always full: the error names the
    // output, not the input.
    if Path::new("/dev/full").exists() {
        let input = temp_path("stream_sink_input.txt");
        std::fs::write(&input, &text).unwrap();
        let err = convert_cli(&input, Path::new("/dev/full")).unwrap_err();
        assert!(err.starts_with("cannot write /dev/full: "), "{err}");
        let _ = std::fs::remove_file(&input);
    }
}

#[test]
fn a_chunk_under_the_retired_codec_id_1_is_refused_and_leaves_no_output() {
    // A CRC-valid container whose first RECORDS chunk names codec 1, the
    // retired column-only codec.  The CRC covers the payload alone, so the
    // frame stays valid: only the codec byte is wrong.
    let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
    let mut crafted = encode_app_container(&app, ChunkSpec::with_codec(Codec::DeltaLz));
    let mut pos = 6;
    while crafted[pos] != 3 {
        pos += 10 + u32::from_le_bytes(crafted[pos + 2..pos + 6].try_into().unwrap()) as usize;
    }
    crafted[pos + 1] = 1;
    let len = u32::from_le_bytes(crafted[pos + 2..pos + 6].try_into().unwrap()) as usize;
    let crc = crc32(&crafted[pos + 10..pos + 10 + len]).to_le_bytes();
    assert_eq!(crafted[pos + 6..pos + 10], crc);
    let retired = |err: &ContainerError| {
        matches!(
            err,
            ContainerError::Compress(CompressError::UnknownCodec(1))
        )
    };

    let err = read_app_container(&crafted[..]).unwrap_err();
    assert!(retired(&err), "{err:?}");
    let input = temp_path("retired_codec.trc");
    std::fs::write(&input, &crafted).unwrap();
    let reducer = Reducer::with_default_threshold(Method::AvgWave);
    let err = reduce_container_file(&reducer, &input, 2).unwrap_err();
    assert!(err.as_container().is_some_and(retired), "{err:?}");

    // Through the CLI: the same refusal, and neither an output nor a temp
    // file of one.
    let target = temp_path("retired_codec_out.trc");
    let (from, to) = (input.to_str().unwrap(), target.to_str().unwrap());
    let reduce = [("method", "avgWave"), ("stream", "")];
    for (command, extra) in [("reduce", &reduce[..]), ("convert", &[])] {
        let mut flags = vec![("in", from), ("out", to)];
        flags.extend_from_slice(extra);
        let err = run(&Invocation::new(command, &flags)).unwrap_err();
        assert!(err.contains("unknown chunk codec id 1"), "{command}: {err}");
        assert!(!target.exists(), "{command} left an output");
        assert_eq!(temp_siblings(&target), Vec::<String>::new(), "{command}");
    }
    let _ = std::fs::remove_file(&input);
}

#[test]
fn a_retired_v1_file_is_refused_by_every_reader_and_leaves_no_output() {
    // A v1 header (magic, version 1) and a minimal body: an empty name, two
    // empty string tables and no ranks.  No encoder is needed, nor exists.
    for magic in [*b"TRCF", *b"TRCR"] {
        let mut v1 = magic.to_vec();
        v1.extend_from_slice(&[1, 0, 0, 0, 0]);
        let retired = |err: &ContainerError| matches!(err, ContainerError::RetiredV1 { found } if *found == magic);
        assert!(retired(&read_app_container(&v1[..]).unwrap_err()));
        assert!(retired(&decode_app_any(&v1).unwrap_err()));
        assert!(retired(&decode_reduced_any(&v1).unwrap_err()));
        let expected = decode_app_any(&v1).unwrap_err().to_string();
        assert!(expected.contains("retired v1 format"), "{expected}");

        let name = String::from_utf8_lossy(&magic).to_lowercase();
        let input = temp_path(&format!("retired_{name}.trc"));
        std::fs::write(&input, &v1).unwrap();
        let reducer = Reducer::with_default_threshold(Method::AvgWave);
        for shards in [1, 2] {
            let err = reduce_any_file(&reducer, &input, shards).unwrap_err();
            assert!(err.as_container().is_some_and(retired), "{err:?}");
        }

        // Through the CLI: every reader says so, names the input, and keeps
        // the previous target byte for byte, with no temp file beside it.
        let from = input.to_str().unwrap();
        for target in ["trc", "txt"].map(|ext| temp_path(&format!("retired_out.{ext}"))) {
            let to = target.to_str().unwrap();
            let runs: [(&str, Vec<(&str, &str)>); 4] = [
                ("reduce", vec![("out", to), ("method", "avgWave")]),
                (
                    "reduce",
                    vec![
                        ("out", to),
                        ("method", "avgWave"),
                        ("stream", ""),
                        ("shards", "2"),
                    ],
                ),
                ("convert", vec![("out", to)]),
                ("report", vec![("html", to)]),
            ];
            write_file_atomic(&target, |file| file.write_all(b"previous output")).unwrap();
            for (command, mut flags) in runs {
                flags.push(("in", from));
                let what = format!("{command} {flags:?}");
                let err = run(&Invocation::new(command, &flags)).unwrap_err();
                assert_eq!(err, format!("{}: {expected}", input.display()), "{what}");
                assert_eq!(std::fs::read(&target).unwrap(), b"previous output");
                assert_eq!(temp_siblings(&target), Vec::<String>::new(), "{what}");
            }
            let _ = std::fs::remove_file(&target);
        }
        let _ = std::fs::remove_file(&input);
    }
}

#[test]
fn a_non_regular_input_is_refused_before_anything_is_written() {
    // `reduce` and `convert` open their input more than once (for its magic
    // bytes, then by every worker), so a pipe would give each open what the
    // one before left of it.  A device and a directory are refused alike,
    // before the input is read or the output touched: every Linux host has
    // `/dev/null`, and every host a temp dir.
    let mut inputs = vec![std::env::temp_dir()];
    inputs.extend(Some(PathBuf::from("/dev/null")).filter(|path| path.exists()));
    for input in &inputs {
        let from = input.to_str().unwrap();
        for target in ["trc", "txt"].map(|ext| temp_path(&format!("non_regular_out.{ext}"))) {
            let to = target.to_str().unwrap();
            let reduce = [("in", from), ("out", to), ("method", "avgWave")];
            let runs = [
                ("reduce", reduce.to_vec()),
                (
                    "reduce",
                    [&reduce[..], &[("stream", ""), ("shards", "1")]].concat(),
                ),
                ("convert", vec![("in", from), ("out", to)]),
            ];
            write_file_atomic(&target, |file| file.write_all(b"previous output")).unwrap();
            for (command, flags) in runs {
                let what = format!("{command} {flags:?}");
                let err = run(&Invocation::new(command, &flags)).unwrap_err();
                let refusal = format!("{from} is not a regular file: ");
                assert!(err.starts_with(&refusal), "{what}: {err}");
                assert!(err.contains("opened more than once"), "{what}: {err}");
                assert_eq!(std::fs::read(&target).unwrap(), b"previous output");
                assert_eq!(temp_siblings(&target), Vec::<String>::new(), "{what}");
            }
            let _ = std::fs::remove_file(&target);
        }
    }
}

/// A one-rank reduced trace of `stored` empty representatives under the ids
/// `id` gives their positions, and ten times as many executions, the `k`-th
/// naming the stored id `exec(k)`.
fn crafted_reduced(
    stored: usize,
    id: impl Fn(usize) -> u32,
    exec: impl Fn(usize) -> u32,
) -> ReducedAppTrace {
    let segment = Segment {
        context: ContextId(0),
        start: Time::ZERO,
        end: Time::from_nanos(10),
        events: Vec::new(),
    };
    let mut rank = ReducedRankTrace::new(Rank(0));
    rank.stored = (0..stored)
        .map(|at| StoredSegment {
            id: id(at),
            segment: segment.clone(),
            represented: 10,
        })
        .collect();
    rank.execs = (0..10 * stored)
        .map(|k| SegmentExec {
            segment: exec(k),
            start: Time::from_nanos(100 * k as u64),
        })
        .collect();
    ReducedAppTrace {
        name: "crafted".into(),
        regions: RegionTable::from_names(Vec::new()),
        contexts: ContextTable::from_names(vec!["main.1".into()]),
        ranks: vec![rank],
    }
}

#[test]
fn a_reduced_container_with_sparse_or_unknown_ids_is_refused_and_leaves_no_output() {
    // Both readers refuse both traces: the text reader at the line that
    // breaks the id rules, the container reader at the rank section; the
    // CLI names the file and writes nothing.
    for stored in [2_000, 20_000] {
        let last = stored as u32 - 1;
        let reversed = crafted_reduced(stored, |at| last - at as u32, |k| (k % stored) as u32);
        let unknown = crafted_reduced(stored, |at| at as u32, |k| (k % (stored + 1)) as u32);
        for (name, crafted, message) in [
            (
                "reversed",
                reversed,
                format!("rank 0: stored ids must be dense; expected 0 got {last}"),
            ),
            (
                "unknown",
                unknown,
                format!("rank 0: execution references unknown stored segment {stored}"),
            ),
        ] {
            let bytes = encode_reduced_container(&crafted, ChunkSpec::default());
            let err = read_reduced_container(&bytes[..]).unwrap_err();
            assert_eq!(err.to_string(), message, "{name} {stored}");

            let input = temp_path(&format!("crafted_{name}_{stored}.trc"));
            std::fs::write(&input, &bytes).unwrap();
            let expected = format!("{}: {message}", input.display());
            let from = input.to_str().unwrap();
            let err = run(&Invocation::new("report", &[("in", from)])).unwrap_err();
            assert_eq!(err, expected, "report {name} {stored}");
            for ext in ["trc", "txt"] {
                let target = temp_path(&format!("crafted_out.{ext}"));
                let flags = [("in", from), ("out", target.to_str().unwrap())];
                let err = run(&Invocation::new("reconstruct", &flags)).unwrap_err();
                assert_eq!(err, expected, "reconstruct {name} {stored}");
                assert!(!target.exists(), "reconstruct left an output");
                assert_eq!(temp_siblings(&target), Vec::<String>::new());
            }
            let _ = std::fs::remove_file(&input);
        }
    }
}

/// `bytes`, a container, with the entries of its index footer rewritten by
/// `edit`; every chunk stays CRC-valid.
fn with_index(bytes: &[u8], edit: impl FnOnce(&mut Vec<RankSectionEntry>)) -> Vec<u8> {
    rewrite_index(bytes, edit).unwrap()
}

#[test]
fn a_crafted_index_is_refused_by_every_driver_and_leaves_no_output() {
    // CRC-valid containers whose index footer does not describe the file.
    // Before every reader held the footer to the file, two workers wrote
    // rank 0 twice for the duplicated entry and reordered the ranks for
    // the swapped ones.
    let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
    let bytes = encode_app_container(&app, ChunkSpec::with_segments(8));
    let faults = [
        ("a duplicated entry", with_index(&bytes, |s| s[1] = s[0])),
        ("two swapped entries", with_index(&bytes, |s| s.swap(1, 2))),
        (
            "an offset one chunk off",
            with_index(&bytes, |s| {
                s[2].offset = chunk_end(&bytes, s[2].offset).unwrap()
            }),
        ),
        (
            "another section's rank",
            with_index(&bytes, |s| s[2].rank = s[1].rank),
        ),
        (
            "one record too many",
            with_index(&bytes, |s| s[2].records += 1),
        ),
        (
            "offsets past the end of the file",
            with_index(&bytes, |s| {
                s[1].offset = 1 << 40;
                s[1].records = 1 << 40;
                s[2].offset = 1 << 41;
            }),
        ),
    ];

    let input = temp_path("crafted_index.trc");
    let reduced = temp_path("crafted_index_reduced.trc");
    let original = temp_path("crafted_index_original.trc");
    std::fs::write(&original, &bytes).unwrap();
    let (from, red) = (input.to_str().unwrap(), reduced.to_str().unwrap());
    let flags = [
        ("in", original.to_str().unwrap()),
        ("out", red),
        ("method", "avgWave"),
    ];
    run(&Invocation::new("reduce", &flags)).unwrap();
    for (fault, crafted) in faults {
        std::fs::write(&input, &crafted).unwrap();
        for target in ["trc", "txt"].map(|ext| temp_path(&format!("crafted_index_out.{ext}"))) {
            let to = target.to_str().unwrap();
            let reduce = [("in", from), ("out", to), ("method", "avgWave")];
            let mut runs: Vec<(&str, Vec<(&str, &str)>)> = Vec::new();
            for shards in ["1", "2", "3"] {
                runs.push(("reduce", [&reduce[..], &[("shards", shards)]].concat()));
            }
            runs.push(("convert", vec![("in", from), ("out", to)]));
            runs.push(("analyze", vec![("in", from)]));
            runs.push(("report", vec![("in", red), ("full", from), ("html", to)]));
            for (command, flags) in runs {
                let what = format!("{fault}: {command} {flags:?}");
                let err = run(&Invocation::new(command, &flags)).unwrap_err();
                assert!(err.starts_with(&format!("{from}: ")), "{what}: {err}");
                assert!(err.contains("index entry "), "{what}: {err}");
                assert!(!target.exists(), "{what} left an output");
                assert_eq!(temp_siblings(&target), Vec::<String>::new(), "{what}");
            }
        }
    }
    for path in [&input, &reduced, &original] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn a_load_failing_in_two_sections_says_what_the_stream_reduce_says() {
    // A flipped payload byte in the first RECORDS chunk of sections 2 and
    // 5: the whole-trace load (`analyze`, `report --full`) gives section
    // 2's error on every worker count, in the words of `reduce` on as many
    // workers.
    let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
    let mut bytes = encode_app_container(&app, ChunkSpec::with_segments(8));
    let index = read_index(&mut Cursor::new(&bytes)).unwrap();
    for section in [2, 5] {
        let records = chunk_end(&bytes, index.sections[section].offset).unwrap() as usize;
        bytes[records + 10] ^= 0x40;
    }
    let input = temp_path("two_bad_sections.trc");
    let target = temp_path("two_bad_sections_out.trc");
    std::fs::write(&input, &bytes).unwrap();
    let (from, to) = (input.to_str().unwrap(), target.to_str().unwrap());
    for workers in [1, 2, 3, app.rank_count() + 3] {
        let shards = workers.to_string();
        let reduce = [
            ("in", from),
            ("out", to),
            ("method", "avgWave"),
            ("shards", shards.as_str()),
        ];
        let streamed = run(&Invocation::new("reduce", &reduce)).unwrap_err();
        let loaded = load_container_file(&input, workers).unwrap_err();
        assert_eq!(format!("{from}: {loaded}"), streamed, "{workers} workers");
        assert!(!target.exists(), "--shards {shards} left an output");
        let bad = index.sections[2];
        let place = match workers {
            1 => String::new(),
            _ => format!(
                "rank section 2 ({}, byte offset {}): ",
                bad.rank, bad.offset
            ),
        };
        let crc = format!(
            "{from}: {place}chunk at byte {} is corrupt",
            chunk_end(&bytes, bad.offset).unwrap()
        );
        assert!(streamed.starts_with(&crc), "--shards {shards}: {streamed}");
    }
    let _ = std::fs::remove_file(&input);
}

#[test]
fn a_reduced_container_given_for_a_trace_fails_alike_on_every_worker_count() {
    // Every driver refuses it in the sequential scan's words, whether it
    // reads the file whole or seeks to its sections.
    let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
    let reduced = Reducer::with_default_threshold(Method::AvgWave).reduce_app(&app);
    let input = temp_path("reduced_as_trace.trc");
    let target = temp_path("reduced_as_trace_out.trc");
    std::fs::write(
        &input,
        encode_reduced_container(&reduced, ChunkSpec::default()),
    )
    .unwrap();
    let (from, to) = (input.to_str().unwrap(), target.to_str().unwrap());
    let mut errors = vec![run(&Invocation::new("analyze", &[("in", from)])).unwrap_err()];
    for shards in ["1", "2", "3"] {
        let reduce = [
            ("in", from),
            ("out", to),
            ("method", "avgWave"),
            ("shards", shards),
        ];
        errors.push(run(&Invocation::new("reduce", &reduce)).unwrap_err());
        assert!(!target.exists(), "--shards {shards} left an output");
    }
    let _ = std::fs::remove_file(&input);
    assert!(errors[0].contains("a reduced payload"), "{}", errors[0]);
    assert!(errors.iter().all(|e| *e == errors[0]), "{errors:#?}");
}

#[test]
fn a_reduce_failing_in_its_last_section_keeps_the_target_on_every_worker_count() {
    // The reduction writes its output as it goes, so when the last rank
    // section fails the sections before it have gone into the temp file
    // already.  Every worker count still leaves the previous target and
    // no temp file, and says what the sequential
    // reader says: the whole-text parser, or the container decoder, in the
    // words of a section read through the index on two or more workers.
    let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
    let text = write_app_trace(&app);
    let last = text.rfind("\nRANK ").unwrap() + 1;
    let records = last + text[last..].find('\n').unwrap() + 1;
    let bad_text = format!("{}EVENT 0 nonsense\n{}", &text[..records], &text[records..]);
    let mut container = encode_app_container(&app, ChunkSpec::with_segments(8));
    let index = read_index(&mut Cursor::new(&container)).unwrap();
    let bad = *index.sections.last().unwrap();
    let chunk = chunk_end(&container, bad.offset).unwrap() as usize;
    container[chunk + 10] ^= 0x40;
    let decoded = decode_app_any(&container).unwrap_err();
    let section = format!(
        "rank section {} ({}, byte offset {}): {decoded}",
        index.sections.len() - 1,
        bad.rank,
        bad.offset
    );
    let text_error = parse_app_trace(&bad_text).unwrap_err().to_string();
    let cases = [
        ("last_section.txt", bad_text.into_bytes(), [&text_error; 2]),
        (
            "last_section.trc",
            container,
            [&decoded.to_string(), &section],
        ),
    ];
    let target = temp_path("last_section_out.trc");
    write_file_atomic(&target, |file| file.write_all(b"previous output")).unwrap();
    for (name, bytes, [one_worker, seeking]) in &cases {
        let input = temp_path(name);
        std::fs::write(&input, bytes).unwrap();
        let (from, to) = (input.to_str().unwrap(), target.to_str().unwrap());
        for shards in ["1", "2", "3"] {
            let expected = match shards {
                "1" => one_worker,
                _ => seeking,
            };
            let reduce = [
                ("in", from),
                ("out", to),
                ("method", "avgWave"),
                ("shards", shards),
            ];
            let case = format!("{name}, --shards {shards}");
            let err = run(&Invocation::new("reduce", &reduce)).unwrap_err();
            assert_eq!(err, format!("{from}: {expected}"), "{case}");
            assert_eq!(
                std::fs::read(&target).unwrap(),
                b"previous output",
                "{case}"
            );
            assert_eq!(temp_siblings(&target), Vec::<String>::new(), "{case}");
        }
        let _ = std::fs::remove_file(&input);
    }
    let _ = std::fs::remove_file(&target);
}

#[test]
fn a_reduce_into_a_sink_that_fills_up_keeps_the_previous_bytes() {
    // The sink fails while the workers are still reducing: at the header,
    // half-way and at the last byte, for both input formats, on one, two
    // and three workers.
    let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
    let reducer = Reducer::with_default_threshold(Method::AvgWave);
    let spec = ChunkSpec::with_segments(2).codec(Codec::DeltaLz);
    let full = encode_reduced_container(&reducer.reduce_app(&app), spec);
    let text_input = temp_path("fills_up.txt");
    let container_input = temp_path("fills_up_in.trc");
    std::fs::write(&text_input, write_app_trace(&app)).unwrap();
    std::fs::write(&container_input, encode_app_container(&app, spec)).unwrap();
    let path = temp_path("fills_up_out.trc");
    write_file_atomic(&path, |file| file.write_all(b"previous output")).unwrap();
    for (source, input) in [("text", &text_input), ("container", &container_input)] {
        for workers in [1, 2, 3] {
            let reduce = |file: &mut File, budget| {
                let sink = BufWriter::with_capacity(256, FillsUp { file, budget });
                let format = OutputFormat::Container(spec);
                match reduce_any_file_into(&reducer, input, workers, sink, format) {
                    Ok(_) => Ok(()),
                    Err(StreamError::Sink(e)) => Err(e),
                    Err(e) => panic!("an input error from a valid trace: {e}"),
                }
            };
            for budget in [0, full.len() / 2, full.len() - 1] {
                let case = format!("{source}, {workers} workers, {budget} bytes");
                let err = write_file_atomic(&path, |file| reduce(file, budget)).unwrap_err();
                assert!(err.contains("disk full"), "{case}: {err}");
                assert_eq!(std::fs::read(&path).unwrap(), b"previous output", "{case}");
                assert_eq!(temp_siblings(&path), Vec::<String>::new(), "{case}");
            }
            write_file_atomic(&path, |file| reduce(file, full.len())).unwrap();
            let written = std::fs::read(&path).unwrap();
            assert!(written == full, "{source}, {workers} workers");
            write_file_atomic(&path, |file| file.write_all(b"previous output")).unwrap();
        }
    }
    let _ = std::fs::remove_file(&path);

    // Through the CLI, a device that is always full: the error names the
    // output, not the input.
    if Path::new("/dev/full").exists() {
        let from = text_input.to_str().unwrap();
        let reduce = [("in", from), ("out", "/dev/full"), ("method", "avgWave")];
        let err = run(&Invocation::new("reduce", &reduce)).unwrap_err();
        assert!(err.starts_with("cannot write /dev/full: "), "{err}");
    }
    let _ = std::fs::remove_file(&text_input);
    let _ = std::fs::remove_file(&container_input);
}
