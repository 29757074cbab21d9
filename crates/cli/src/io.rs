//! Trace file input/output for the CLI.
//!
//! File formats are chosen by extension: `.txt` and `.trctxt` use the
//! human-readable text format from `trace-format`, everything else is
//! binary (`reduce` alone detects its input's format by magic bytes).
//! Binary files have one format, a chunked v2 container, whose
//! [`ChunkSpec`] names the codec on write (`delta-lz` by default, `none`
//! with `--codec none`).  A retired monolithic v1 file is refused by the
//! container's readers with one typed error; its length survives only as
//! the yardstick of the paper's file-size criterion (`trace_model::codec`).
//! `convert_app_trace` streams a text or v2 input into either format
//! without loading it, and `stream_into_file` writes a reduction's or a
//! conversion's output as it goes.

use std::fs;
use std::io::{self, BufReader, BufWriter, Write};
use std::path::Path;

use trace_container::{
    read_reduced_container, section_workers, write_app_container, ChunkSpec, ContainerError,
};
use trace_format::{read_app_trace, read_reduced_trace, write_app_trace_to};
use trace_model::{AppTrace, ReducedAppTrace};
use trace_stream::{
    convert_container, convert_text, load_container_file, OutputFormat, StreamError,
};

/// True if the path should use the text format.
pub(crate) fn is_text_path(path: &Path) -> bool {
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

/// What reading `path` failed with: the source itself is "cannot read",
/// what is wrong with its bytes names the file.
fn input_error(path: &Path, e: StreamError) -> String {
    match e {
        StreamError::Io(e) | StreamError::Container(ContainerError::Io(e)) => {
            format!("cannot read {}: {e}", path.display())
        }
        e => format!("{}: {e}", path.display()),
    }
}

/// Decodes `path` from the open file: text by extension, otherwise
/// binary, which opens the file itself.
fn load<T>(
    path: &Path,
    text: impl FnOnce(BufReader<fs::File>) -> Result<T, StreamError>,
    binary: impl FnOnce(&Path) -> Result<T, StreamError>,
) -> Result<T, String> {
    let loaded = if is_text_path(path) {
        fs::File::open(path)
            .map_err(StreamError::from)
            .and_then(|file| text(BufReader::new(file)))
    } else {
        binary(path)
    };
    loaded.map_err(|e| input_error(path, e))
}

/// Loads a full application trace from `path` (text or binary by
/// extension), for the commands that need it whole: `analyze` and
/// `report --full`.  A container decodes its rank sections on one worker
/// per core ([`load_container_file`]); text is read in order.  `reduce`
/// and `convert` never load: they stream the file through
/// [`stream_into_file`].
pub(crate) fn load_app_trace(path: &Path) -> Result<AppTrace, String> {
    load(path, read_app_trace, |path| {
        load_container_file(path, section_workers())
    })
}

/// Loads a reduced trace from `path` (text or binary by extension).  Both
/// readers refuse segment ids that break the reduced format's rules (text
/// at the line, a container at its rank section), so every execution
/// replays its stored segment.
pub(crate) fn load_reduced_trace(path: &Path) -> Result<ReducedAppTrace, String> {
    load(path, read_reduced_trace, |path| {
        let file = BufReader::new(fs::File::open(path)?);
        Ok(read_reduced_container(file)?)
    })
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
pub(crate) fn store_app_trace(
    path: &Path,
    app: &AppTrace,
    spec: ChunkSpec,
    recorder: &trace_obs::Recorder,
) -> Result<usize, String> {
    store(path, recorder, |out| {
        if is_text_path(path) {
            write_app_trace_to(out, app).map(drop)
        } else {
            write_app_container(out, app, spec, recorder).map(drop)
        }
    })
}

/// Streams a trace read from `input` into `path` atomically: `stream`
/// writes it into the sink it is given, in the format the path's extension
/// names (text, or a v2 container under `spec`), as it goes — a reduction
/// or a conversion.  The stream opens `input` once per worker, so an input
/// that exists and is not a regular file (a pipe, a device) is refused
/// before anything is read or written.  What is wrong with `input` reads
/// as it does from [`load_app_trace`], however far the output got; a
/// failing sink reads as a failed write; either way no partial output is
/// left.  The writer records each section it writes, and the index and
/// trailer, as [`trace_obs::Stage::Store`] spans; the flush and rename
/// here are one more.  Returns what `stream` returned and the number of
/// bytes written.
pub(crate) fn stream_into_file<T>(
    input: &Path,
    path: &Path,
    spec: ChunkSpec,
    recorder: &trace_obs::Recorder,
    stream: impl FnOnce(&mut dyn Write, OutputFormat) -> Result<T, StreamError>,
) -> Result<(T, usize), String> {
    if fs::metadata(input).is_ok_and(|meta| !meta.is_file()) {
        return Err(format!(
            "{} is not a regular file: the input is read once per worker, so it must be a \
             file that can be opened again, not a pipe or a device",
            input.display()
        ));
    }
    let format = if is_text_path(path) {
        OutputFormat::Text
    } else {
        OutputFormat::Container(spec)
    };
    let mut obs = recorder.shard();
    let (mut failed_input, mut streamed, mut written, mut tail) = (None, None, 0, None);
    let stored = write_file_atomic(path, |file| {
        let mut out = Counted(BufWriter::new(file), 0);
        match stream(&mut out, format) {
            Ok(value) => streamed = Some(value),
            Err(StreamError::Sink(e)) => return Err(e),
            Err(e) => return Err(io::Error::other(failed_input.insert(e).to_string())),
        }
        tail = Some(obs.start());
        out.flush()?;
        written = out.1;
        Ok(())
    });
    if let Some(e) = failed_input {
        return Err(input_error(input, e));
    }
    stored?;
    if let Some(tail) = tail {
        obs.end(trace_obs::Stage::Store, tail);
    }
    let streamed = streamed.ok_or("the stream returned nothing")?;
    Ok((streamed, written))
}

/// Converts the full trace at `input` (text by extension, otherwise a v2
/// container) to `path`, in the format its extension names, through
/// [`stream_into_file`]: a rank section at a time on one worker per core,
/// never the whole trace resident.  Returns the number of bytes written.
pub(crate) fn convert_app_trace(
    input: &Path,
    path: &Path,
    spec: ChunkSpec,
    recorder: &trace_obs::Recorder,
) -> Result<usize, String> {
    let workers = section_workers();
    let ((), written) = stream_into_file(input, path, spec, recorder, |out, format| {
        let converted = if is_text_path(input) {
            let open = |_| fs::File::open(input).map(BufReader::new);
            convert_text(open, out, format, recorder, workers)
        } else {
            convert_container(input, out, format, recorder, workers)
        };
        converted.map(drop)
    })?;
    Ok(written)
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
            let loaded = load_app_trace(&path).unwrap();
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
        let reducer = Reducer::with_default_threshold(Method::AvgWave);
        let reduced = reducer.reduce_app(&app);
        let [none, dlz] = specs();
        let input = temp_path("reduced_roundtrip_input.trc");
        store_app_trace(&input, &app, dlz, &off()).unwrap();
        for (name, spec) in [
            ("reduced_roundtrip_none.bin", none),
            ("reduced_roundtrip_dlz.bin", dlz),
            ("reduced_roundtrip.txt", dlz),
        ] {
            let path = temp_path(name);
            let (stats, written) = stream_into_file(&input, &path, spec, &off(), |out, format| {
                let reduced = trace_stream::reduce_any_file_into(&reducer, &input, 2, out, format);
                Ok(reduced?.0.stats)
            })
            .unwrap();
            assert_eq!(written, std::fs::metadata(&path).unwrap().len() as usize);
            assert_eq!(stats.execs, reduced.total_execs(), "{name}");
            let loaded = load_reduced_trace(&path).unwrap();
            assert_eq!(loaded, reduced, "{name}");
            let _ = std::fs::remove_file(&path);
        }
        let _ = std::fs::remove_file(&input);
    }

    #[test]
    fn missing_files_and_garbage_content_report_errors() {
        let missing = Path::new("/nonexistent/definitely/missing.trc");
        assert!(load_app_trace(missing).is_err());
        assert!(load_reduced_trace(missing).is_err());

        let path = temp_path("garbage.txt");
        std::fs::write(&path, "this is not a trace").unwrap();
        let err = load_app_trace(&path).unwrap_err();
        assert!(err.contains("trace format error"), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}
