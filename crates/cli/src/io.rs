//! Trace file input/output for the CLI.
//!
//! File formats are chosen by extension: `.txt` and `.trctxt` use the
//! human-readable text format from `trace-format`, everything else is
//! binary.  Binary files have one format, a chunked v2 container, whose
//! [`ChunkSpec`] names the codec on write (`delta-lz` by default, `none`
//! with `--codec none`).  A retired monolithic v1 file is refused by the
//! container's readers with one typed error; its length survives only as
//! the yardstick of the paper's file-size criterion (`trace_model::codec`).
//! [`convert_app_trace`] streams a text or v2 input into a v2 container
//! without loading it.

use std::fmt::Display;
use std::fs;
use std::io::{self, BufReader, BufWriter, Write};
use std::path::Path;

use trace_container::{
    decode_app_any, decode_reduced_any, section_workers, write_app_container,
    write_reduced_container, ChunkSpec,
};
use trace_format::{parse_app_trace, parse_reduced_trace, write_app_trace, write_reduced_trace};
use trace_model::{AppTrace, ReducedAppTrace};
use trace_stream::{convert_container, convert_text, detect_input, StreamError, TraceInputKind};

/// True if the path should use the text format.
pub fn is_text_path(path: &Path) -> bool {
    matches!(
        path.extension().and_then(|e| e.to_str()),
        Some("txt") | Some("trctxt")
    )
}

/// Writes `path` all-or-nothing: `write` fills a sibling temp file, which is
/// renamed over the target only once it succeeded and removed otherwise —
/// so a failed write never leaves a truncated file or clobbers the previous
/// output.  A target that exists and is not a regular file (`/dev/null`, a
/// pipe) is written in place; renaming over it would replace the device.
pub fn write_file_atomic(
    path: &Path,
    write: impl FnOnce(&mut fs::File) -> io::Result<()>,
) -> Result<(), String> {
    let describe = |e: io::Error| format!("cannot write {}: {e}", path.display());
    if fs::metadata(path).is_ok_and(|meta| !meta.is_file()) {
        return fs::File::create(path)
            .and_then(|mut file| write(&mut file))
            .map_err(describe);
    }
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let temp = path.with_file_name(format!(".{name}.{}.tmp", std::process::id()));
    fs::File::create(&temp)
        .and_then(|mut file| write(&mut file))
        .and_then(|()| fs::rename(&temp, path))
        .map_err(|e| {
            let _ = fs::remove_file(&temp);
            describe(e)
        })
}

/// Reads `path` and decodes it: text by extension, otherwise binary.
fn load<T, P: Display, D: Display>(
    path: &Path,
    parse: impl FnOnce(&str) -> Result<T, P>,
    decode: impl FnOnce(&[u8]) -> Result<T, D>,
) -> Result<T, String> {
    let unreadable = |e: io::Error| format!("cannot read {}: {e}", path.display());
    if is_text_path(path) {
        let text = fs::read_to_string(path).map_err(unreadable)?;
        parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    } else {
        let bytes = fs::read(path).map_err(unreadable)?;
        decode(&bytes).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Loads a full application trace from `path` (text or binary by
/// extension); the whole read-and-decode is one [`trace_obs::Stage::Parse`]
/// span in `recorder`.
pub fn load_app_trace(path: &Path, recorder: &trace_obs::Recorder) -> Result<AppTrace, String> {
    let mut obs = recorder.shard();
    let span = obs.start();
    let result = load(path, parse_app_trace, decode_app_any);
    obs.end(trace_obs::Stage::Parse, span);
    result
}

/// Loads a reduced trace from `path` (text or binary by extension).
pub fn load_reduced_trace(path: &Path) -> Result<ReducedAppTrace, String> {
    load(path, parse_reduced_trace, decode_reduced_any)
}

/// A sink and the number of bytes it has taken.
struct Counted<W>(W, usize);

impl<W: Write> Write for Counted<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.0.write(buf)?;
        self.1 += n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

/// Streams what `encode` writes through a buffer into `path` atomically,
/// under one [`trace_obs::Stage::Store`] span.  Returns the number of bytes
/// written.
fn store(
    path: &Path,
    recorder: &trace_obs::Recorder,
    encode: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> Result<usize, String> {
    let mut obs = recorder.shard();
    let span = obs.start();
    let mut written = 0;
    write_file_atomic(path, |file| {
        let mut out = Counted(BufWriter::new(file), 0);
        encode(&mut out)?;
        out.flush()?;
        written = out.1;
        Ok(())
    })?;
    obs.end(trace_obs::Stage::Store, span);
    Ok(written)
}

/// Stores a full application trace to `path`: text by extension, otherwise
/// a v2 container under `spec`.  Returns the number of bytes written.
/// Container writes additionally record per-chunk compression spans and
/// codec byte counters into `recorder`; the bytes do not depend on it.
pub fn store_app_trace(
    path: &Path,
    app: &AppTrace,
    spec: ChunkSpec,
    recorder: &trace_obs::Recorder,
) -> Result<usize, String> {
    store(path, recorder, |out| {
        if is_text_path(path) {
            out.write_all(write_app_trace(app).as_bytes())
        } else {
            write_app_container(out, app, spec, recorder).map(drop)
        }
    })
}

/// Stores a reduced trace to `path`, like [`store_app_trace`].
pub fn store_reduced_trace(
    path: &Path,
    reduced: &ReducedAppTrace,
    spec: ChunkSpec,
    recorder: &trace_obs::Recorder,
) -> Result<usize, String> {
    store(path, recorder, |out| {
        if is_text_path(path) {
            out.write_all(write_reduced_trace(reduced).as_bytes())
        } else {
            write_reduced_container(out, reduced, spec, recorder).map(drop)
        }
    })
}

/// Converts the full trace at `input` to `path`.  A text input (by
/// extension) or a v2 container bound for a container streams: the trace
/// is read one rank at a time while its sections encode, under one
/// [`trace_obs::Stage::Store`] span.  A text output loads the whole trace
/// and stores it.  An input error reads as it does from
/// [`load_app_trace`], however far the output got; either way no partial
/// output is left.  Returns the number of bytes written.
pub fn convert_app_trace(
    input: &Path,
    path: &Path,
    spec: ChunkSpec,
    recorder: &trace_obs::Recorder,
) -> Result<usize, String> {
    let text = is_text_path(input);
    // An input whose magic cannot be read or is refused takes the load path,
    // which reports why.
    let streams = !is_text_path(path)
        && (text || matches!(detect_input(input), Ok(TraceInputKind::ContainerV2)));
    if !streams {
        let app = load_app_trace(input, recorder)?;
        return store_app_trace(path, &app, spec, recorder);
    }
    let unreadable = |e: io::Error| format!("cannot read {}: {e}", input.display());
    let file = fs::File::open(input).map_err(unreadable)?;
    let mut failed_input = None;
    let written = store(path, recorder, |out| {
        let reader = BufReader::new(file);
        let converted = if text {
            convert_text(reader, out, spec, recorder, section_workers()).map(drop)
        } else {
            convert_container(reader, out, spec, recorder, section_workers()).map(drop)
        };
        converted.map_err(|e| match e {
            StreamError::Sink(e) => e,
            e => io::Error::other(failed_input.insert(e).to_string()),
        })
    });
    match failed_input {
        Some(StreamError::Io(e)) => Err(unreadable(e)),
        Some(e) => Err(format!("{}: {e}", input.display())),
        None => written,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use trace_container::{encode_app_container, Codec};
    use trace_reduce::{Method, Reducer};
    use trace_sim::{SizePreset, Workload, WorkloadKind};

    fn off() -> trace_obs::Recorder {
        trace_obs::Recorder::disabled()
    }

    /// A unique temporary file path for a test (removed by the caller).
    fn temp_path(name: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("trace_tools_io_{}_{name}", std::process::id()));
        path
    }

    #[test]
    fn extension_detection() {
        assert!(is_text_path(Path::new("a.txt")));
        assert!(is_text_path(Path::new("dir/b.trctxt")));
        assert!(!is_text_path(Path::new("a.trc")));
        assert!(!is_text_path(Path::new("noext")));
    }

    /// The two codecs the CLI writes.
    fn specs() -> [ChunkSpec; 2] {
        [Codec::None, Codec::DeltaLz].map(ChunkSpec::with_codec)
    }

    #[test]
    fn app_trace_round_trips_through_every_format() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let [none, dlz] = specs();
        for (name, spec) in [
            ("app_roundtrip_none.bin", none),
            ("app_roundtrip_dlz.bin", dlz),
            ("app_roundtrip.txt", dlz),
        ] {
            let path = temp_path(name);
            let written = store_app_trace(&path, &app, spec, &off()).unwrap();
            assert_eq!(written, std::fs::metadata(&path).unwrap().len() as usize);
            let loaded = load_app_trace(&path, &off()).unwrap();
            assert_eq!(loaded, app, "{name}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn binary_writes_default_to_v2_containers() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let path = temp_path("default_is_v2.bin");
        for spec in specs() {
            store_app_trace(&path, &app, spec, &off()).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            assert_eq!(&bytes[..4], b"TRC2");
            assert!(bytes == encode_app_container(&app, spec), "{spec:?}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reduced_trace_round_trips_through_every_format() {
        let app = Workload::new(WorkloadKind::EarlyGather, SizePreset::Tiny).generate();
        let reduced = Reducer::with_default_threshold(Method::AvgWave).reduce_app(&app);
        let [none, dlz] = specs();
        for (name, spec) in [
            ("reduced_roundtrip_none.bin", none),
            ("reduced_roundtrip_dlz.bin", dlz),
            ("reduced_roundtrip.txt", dlz),
        ] {
            let path = temp_path(name);
            store_reduced_trace(&path, &reduced, spec, &off()).unwrap();
            let loaded = load_reduced_trace(&path).unwrap();
            assert_eq!(loaded, reduced, "{name}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn missing_files_and_garbage_content_report_errors() {
        let missing = Path::new("/nonexistent/definitely/missing.trc");
        assert!(load_app_trace(missing, &off()).is_err());
        assert!(load_reduced_trace(missing).is_err());

        let path = temp_path("garbage.txt");
        std::fs::write(&path, "this is not a trace").unwrap();
        let err = load_app_trace(&path, &off()).unwrap_err();
        assert!(err.contains("trace format error"), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}
