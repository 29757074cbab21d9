//! Converting a full trace without loading it.
//!
//! [`convert_text`] and [`convert_container`] write a trace in either
//! format, text or container, a rank section at a time, on the one section
//! pipeline the reductions run ([`crate::shard`]): the same sources, with
//! a copy in place of the reduction.  Each worker copies the records of
//! the sections it reads from its source straight into its encoder, and
//! the calling thread writes finished sections into the sink in rank
//! order.  Text workers claim byte ranges of the body and read the
//! sections that start in them; container workers claim sections and seek
//! to them by the index footer.  Resident memory is, per worker, the
//! sections of one range or one section being encoded (and those finished
//! ahead of the next one the sink takes), never the whole trace.  The
//! calling thread checks the declared rank count and the trailer of a
//! text, and the index holds a container's sections to the file, so a
//! header that declares too many or too few ranks, or a missing trailer,
//! is the same typed error the whole-trace parsers give.

use std::io::{self, BufRead, Seek, Write};
use std::path::Path;

use trace_container::PayloadKind::App;
use trace_model::TraceTables;
use trace_obs::Recorder;

use crate::binary::container_file;
use crate::error::StreamError;
use crate::shard::text_ranges;
use crate::sink::{OutputFormat, TraceWriter};

/// Converts the text trace each of up to `workers` workers reads from
/// `open(worker)` into `format`, written to `out`, and returns the sink.
/// All readers must yield the same bytes, from the trace's first; each
/// worker seeks to the byte ranges it claims.  The bytes equal those of
/// writing `parse_app_trace(text)?` in `format` whatever the worker count.
/// What is wrong with the input is the error the streaming parser gives;
/// a failing sink is a [`StreamError::Sink`].  Each worker's parser
/// records its batches as [`trace_obs::Stage::Parse`] spans, and the
/// encoders record their chunks as the container writer does.
pub fn convert_text<R: BufRead + Seek + Send, W: Write>(
    open: impl Fn(usize) -> io::Result<R> + Sync,
    out: W,
    format: OutputFormat,
    recorder: &Recorder,
    workers: usize,
) -> Result<W, StreamError> {
    let writer = |tables: &TraceTables| TraceWriter::open(out, format, App, tables, recorder);
    let (writer, _) = text_ranges(recorder, workers, open, writer)?;
    writer.finish()
}

/// Converts the app container at `path` into `format`, written to `out`,
/// like [`convert_text`]: the bytes equal those of writing the decoded
/// trace.  The source's chunk reads are the `parse` spans.
pub fn convert_container<W: Write>(
    path: impl AsRef<Path>,
    out: W,
    format: OutputFormat,
    recorder: &Recorder,
    workers: usize,
) -> Result<W, StreamError> {
    let writer = |tables: &TraceTables| TraceWriter::open(out, format, App, tables, recorder);
    let (writer, _) = container_file(recorder, path.as_ref(), workers, writer)?;
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use trace_container::{decode_app_any, encode_app_container, ChunkSpec, Codec};
    use trace_format::{parse_app_trace, write_app_trace};
    use trace_model::AppTrace;
    use trace_obs::Stage;
    use trace_sim::{SizePreset, Workload, WorkloadKind};

    /// Text, and both codecs the CLI writes at one segment per chunk and
    /// at the default 128.
    fn formats() -> impl Iterator<Item = OutputFormat> {
        let specs = [Codec::None, Codec::DeltaLz]
            .into_iter()
            .flat_map(|codec| [1, 128].map(|n| ChunkSpec::with_segments(n).codec(codec)));
        std::iter::once(OutputFormat::Text).chain(specs.map(OutputFormat::Container))
    }

    /// What writing `app` whole in `format` gives.
    fn written(app: &AppTrace, format: OutputFormat) -> Vec<u8> {
        match format {
            OutputFormat::Text => write_app_trace(app).into_bytes(),
            OutputFormat::Container(spec) => encode_app_container(app, spec),
        }
    }

    /// One worker, two, three, and more workers than ranks.
    fn worker_counts(ranks: usize) -> [usize; 4] {
        [1, 2, 3, ranks + 3]
    }

    fn from_text(
        text: &[u8],
        format: OutputFormat,
        workers: usize,
    ) -> Result<Vec<u8>, StreamError> {
        let off = Recorder::disabled();
        convert_text(|_| Ok(Cursor::new(text)), Vec::new(), format, &off, workers)
    }

    /// Converts `bytes`, written to a file of their own.
    fn from_container(
        bytes: &[u8],
        format: OutputFormat,
        workers: usize,
    ) -> Result<Vec<u8>, StreamError> {
        static FILES: AtomicUsize = AtomicUsize::new(0);
        let file = FILES.fetch_add(1, Ordering::Relaxed);
        let name = format!("trace_stream_convert_{}_{file}.trc", std::process::id());
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, bytes).unwrap();
        let off = Recorder::disabled();
        let converted = convert_container(&path, Vec::new(), format, &off, workers);
        let _ = std::fs::remove_file(&path);
        converted
    }

    /// Text and container input, on every worker count, give exactly what
    /// the whole-trace writers give.
    fn assert_streams_like_the_encoder(app: &AppTrace) {
        let text = write_app_trace(app);
        let input = encode_app_container(app, ChunkSpec::with_segments(3));
        for format in formats() {
            let expected = written(app, format);
            for workers in worker_counts(app.ranks.len()) {
                let case = format!("{} {format:?} {workers} workers", app.name);
                assert!(
                    from_text(text.as_bytes(), format, workers).unwrap() == expected,
                    "text {case}"
                );
                assert!(
                    from_container(&input, format, workers).unwrap() == expected,
                    "container {case}"
                );
            }
        }
    }

    #[test]
    fn streamed_conversion_equals_the_encoder_on_every_tiny_workload() {
        for workload in Workload::all(SizePreset::Tiny) {
            assert_streams_like_the_encoder(&workload.generate());
        }
    }

    #[test]
    fn no_rank_one_rank_and_an_empty_rank_stream_like_the_encoder() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        for ranks in [0, 1] {
            assert_streams_like_the_encoder(&AppTrace {
                ranks: app.ranks[..ranks].to_vec(),
                ..app.clone()
            });
        }
        let mut empty_rank = app;
        empty_rank.ranks[1].records.clear();
        assert_streams_like_the_encoder(&empty_rank);
    }

    /// The error a whole-trace parse of `text` gives.
    fn parse_error(text: &str) -> String {
        parse_app_trace(text).unwrap_err().to_string()
    }

    #[test]
    fn hostile_text_headers_fail_like_the_whole_trace_parser() {
        let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        let text = write_app_trace(&app);
        let ranks = app.rank_count();
        let declared = format!("TRACE RANKS {ranks} ");
        assert!(text.contains(&declared));
        let single = AppTrace {
            ranks: app.ranks[..1].to_vec(),
            ..app.clone()
        };
        let cases = [
            text.replace(&declared, &format!("TRACE RANKS {} ", ranks + 1)),
            text.replace(&declared, &format!("TRACE RANKS {} ", ranks - 1)),
            write_app_trace(&single)
                .replace("TRACE RANKS 1 ", &format!("TRACE RANKS {} ", 1u64 << 40)),
            text.replace("END_TRACE\n", ""),
        ];
        let spec = OutputFormat::Container(ChunkSpec::with_codec(Codec::DeltaLz));
        for (case, hostile) in cases.iter().enumerate() {
            let expected = parse_error(hostile);
            for workers in worker_counts(ranks) {
                let err = from_text(hostile.as_bytes(), spec, workers).unwrap_err();
                assert!(err.as_format().is_some(), "case {case}: {err}");
                assert_eq!(err.to_string(), expected, "case {case}, {workers} workers");
            }
        }
    }

    #[test]
    fn a_container_whose_preamble_and_index_disagree_fails_like_the_decoder() {
        // Two containers whose preambles differ only in the declared rank
        // count, a varint of one byte either way: the head of one spliced
        // onto the sections, index and trailer of the other is CRC-valid,
        // with every offset in place.
        let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        let spec = ChunkSpec::with_segments(4).codec(Codec::DeltaLz);
        let fewer = AppTrace {
            ranks: app.ranks[..app.ranks.len() - 1].to_vec(),
            ..app.clone()
        };
        let (all, short) = (
            encode_app_container(&app, spec),
            encode_app_container(&fewer, spec),
        );
        let first_section = |bytes: &[u8]| {
            trace_container::read_index(&mut Cursor::new(bytes))
                .unwrap()
                .sections[0]
                .offset as usize
        };
        let head = first_section(&all);
        assert_eq!(head, first_section(&short));
        let cases = [
            [&short[..head], &all[head..]].concat(),
            [&all[..head], &short[head..]].concat(),
        ];
        for (case, hostile) in cases.iter().enumerate() {
            let expected = decode_app_any(hostile).unwrap_err().to_string();
            for workers in worker_counts(app.ranks.len()) {
                let err =
                    from_container(hostile, OutputFormat::Container(spec), workers).unwrap_err();
                assert!(err.as_container().is_some(), "case {case}: {err}");
                assert_eq!(err.to_string(), expected, "case {case}, {workers} workers");
            }
        }
    }

    #[test]
    fn a_bad_record_or_a_truncation_mid_rank_is_the_parsers_error() {
        let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        assert!(app.ranks.len() > 5);
        let text = write_app_trace(&app);
        let rank5 = text
            .find(&format!("RANK {}\n", app.ranks[5].rank.as_u32()))
            .unwrap();
        let record = rank5 + text[rank5..].find('\n').unwrap() + 1;
        let bad_line = format!("{}EVENT nonsense\n{}", &text[..record], &text[record..]);
        let truncated = &text[..record + 40];
        let spec = ChunkSpec::with_codec(Codec::DeltaLz);
        let format = OutputFormat::Container(spec);
        for hostile in [bad_line.as_str(), truncated] {
            let expected = parse_error(hostile);
            for workers in worker_counts(app.ranks.len()) {
                let err = from_text(hostile.as_bytes(), format, workers).unwrap_err();
                assert_eq!(err.to_string(), expected, "{workers} workers");
            }
        }
        let bytes = encode_app_container(&app, spec);
        let cut = &bytes[..bytes.len() * 3 / 5];
        let expected = decode_app_any(cut).unwrap_err().to_string();
        for workers in worker_counts(app.ranks.len()) {
            let err = from_container(cut, format, workers).unwrap_err();
            assert_eq!(err.to_string(), expected, "{workers} workers");
        }
    }

    /// A sink that takes `budget` bytes and then fails every write.
    #[derive(Debug)]
    struct FailAfter {
        budget: usize,
    }

    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.budget == 0 {
                return Err(io::Error::other("sink full"));
            }
            let n = buf.len().min(self.budget);
            self.budget -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failing_sink_is_a_sink_error() {
        let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        let text = write_app_trace(&app);
        let spec = ChunkSpec::with_segments(2).codec(Codec::DeltaLz);
        let len = encode_app_container(&app, spec).len();
        let off = Recorder::disabled();
        for workers in worker_counts(app.ranks.len()) {
            for budget in [0, len / 2, len - 1] {
                let sink = FailAfter { budget };
                let open = |_| Ok(Cursor::new(text.as_bytes()));
                let format = OutputFormat::Container(spec);
                let err = convert_text(open, sink, format, &off, workers).unwrap_err();
                let StreamError::Sink(err) = err else {
                    panic!("{workers} workers, {budget} bytes: {err}");
                };
                assert_eq!(err.to_string(), "sink full");
            }
        }
    }

    #[test]
    fn parse_spans_are_the_parsers_batches_and_counters_match_the_encoder() {
        let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        let text = write_app_trace(&app);
        let spec = ChunkSpec::with_segments(4).codec(Codec::DeltaLz);
        let encoder = Recorder::with_clock(trace_obs::ManualClock::new(0));
        trace_container::write_app_container(Vec::new(), &app, spec, &encoder).unwrap();
        let expected = encoder.report().counters;
        // The parser fills a batch of at most `BATCH_RECORDS` records, and
        // ends one early only at a rank's end.
        let ranks = app.ranks.iter();
        let batches = ranks.map(|rank| rank.records.len().div_ceil(trace_format::BATCH_RECORDS));
        let batches: usize = batches.sum();
        for workers in worker_counts(app.ranks.len()) {
            let recorder = Recorder::with_clock(trace_obs::ManualClock::new(0));
            let open = |_| Ok(Cursor::new(text.as_bytes()));
            let format = OutputFormat::Container(spec);
            convert_text(open, Vec::new(), format, &recorder, workers).unwrap();
            let report = recorder.report();
            let parses = report.spans.iter().filter(|s| s.stage == Stage::Parse);
            assert_eq!(parses.count(), batches, "{workers} workers");
            assert_eq!(report.counters, expected, "{workers} workers");
        }
    }
}
