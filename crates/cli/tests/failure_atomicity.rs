//! Failure atomicity of everything the CLI writes (ROADMAP 5c): outputs go
//! through `write_file_atomic` — a sibling temp file renamed over the
//! target — so a failed write leaves neither a truncated file nor a
//! clobbered previous output, and no write leaves its temp file behind.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use trace_container::{
    crc32, decode_app_any, decode_reduced_any, encode_app_container, read_app_container,
    write_app_container, ChunkSpec, Codec, CompressError, ContainerError,
};
use trace_format::{parse_app_trace, write_app_trace};
use trace_reduce::{Method, Reducer};
use trace_sim::{SizePreset, Workload, WorkloadKind};
use trace_stream::{
    convert_container, convert_text, reduce_any_file, reduce_container_file, StreamError,
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
                let reader = BufReader::new(File::open(&input)?);
                convert_text(reader, BufWriter::new(file), spec, &off, workers)
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
            let reader = BufReader::new(File::open(&input)?);
            convert_container(reader, BufWriter::new(file), spec, &off, workers)
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
    // `reduce --stream` without `--shards` decodes its input on a second
    // thread; what that thread meets is still the command's error.
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
        let flags = [
            ("in", from),
            ("out", to),
            ("method", "avgWave"),
            ("stream", ""),
        ];
        let err = run(&Invocation::new("reduce", &flags)).unwrap_err();
        assert_eq!(err, format!("{}: {expected}", input.display()), "{name}");
        assert_eq!(
            std::fs::read(&target).unwrap(),
            b"previous output",
            "{name}"
        );
        assert_eq!(temp_siblings(&target), Vec::<String>::new(), "{name}");
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
        match convert_text(text.as_bytes(), sink, spec, &off, workers) {
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
            let runs: [(&str, Vec<(&str, &str)>); 5] = [
                ("reduce", vec![("out", to), ("method", "avgWave")]),
                (
                    "reduce",
                    vec![("out", to), ("method", "avgWave"), ("stream", "")],
                ),
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
