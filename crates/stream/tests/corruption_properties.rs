//! Property: corrupt input never panics a parser.
//!
//! The decode surfaces (text stream parser, chunked container reader) are
//! written panic-free — enforced statically by `cargo run -p xtask -- lint`
//! — and these properties exercise the same guarantee dynamically: any
//! truncation, bit flip or garbage prefix must surface as a typed error
//! (with a line number for text input) or parse to something valid, never
//! unwind.

use std::io::{self, BufRead, BufReader, Cursor, Read};

use proptest::prelude::*;
use trace_container::{encode_app_container, ChunkSpec};
use trace_format::record::{meaningful_line, parse_app_body_line, AppBodyLine, HeaderBuilder};
use trace_format::write::APP_HEADER;
use trace_format::{
    parse_app_trace, parse_reduced_trace, write_app_trace, write_reduced_trace, FormatError,
    ReducedReader,
};
use trace_model::{Rank, ReducedRankTrace};
use trace_reduce::{Method, Reducer};
use trace_sim::specgen::{trace_from_specs, SegmentSpec};
use trace_sim::{SizePreset, Workload, WorkloadKind};
use trace_stream::{reduce_container_stream, reduce_stream, AppItem, StreamError, StreamParser};

fn build_trace(rank_specs: &[Vec<SegmentSpec>]) -> trace_model::AppTrace {
    trace_from_specs("corrupttrace", rank_specs)
}

fn spec_strategy() -> impl Strategy<Value = Vec<Vec<(u8, u8, u16)>>> {
    prop::collection::vec(
        prop::collection::vec((0u8..4, 0u8..4, 0u16..2000), 0..6),
        1..4,
    )
}

fn reducer() -> Reducer {
    Reducer::with_default_threshold(Method::AvgWave)
}

/// Asserts a text parse outcome is sane: success, or a format error whose
/// line number does not exceed the input's line count (structural errors
/// report line 0).
fn assert_text_outcome(result: Result<(), StreamError>, input: &[u8]) {
    if let Err(err) = result {
        if let Some(format_err) = err.as_format() {
            let lines = input.iter().filter(|&&b| b == b'\n').count() + 1;
            assert!(
                format_err.line <= lines,
                "line {} out of range for {} lines",
                format_err.line,
                lines
            );
        }
    }
}

/// A reader that hands its bytes out in chunks of `sizes` (cycled) and
/// reports `Interrupted` before every third chunk, so that every line of the
/// input straddles a refill of the parser's block buffer at some size.
struct Chunked<'a> {
    data: &'a [u8],
    sizes: Vec<usize>,
    calls: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.calls += 1;
        if self.calls.is_multiple_of(3) {
            return Err(io::ErrorKind::Interrupted.into());
        }
        let size = self.sizes[self.calls % self.sizes.len()];
        let (chunk, rest) = self.data.split_at(size.min(buf.len()).min(self.data.len()));
        buf[..chunk.len()].copy_from_slice(chunk);
        self.data = rest;
        Ok(chunk.len())
    }
}

/// Everything a parse yields: the items up to the first error, and that
/// error (line and message for a format error, kind and text for I/O).
fn drain(reader: impl BufRead) -> (Vec<AppItem>, Option<String>) {
    let mut items = Vec::new();
    let mut parser = match StreamParser::new(reader) {
        Ok(parser) => parser,
        Err(err) => return (items, Some(format!("{err:?}"))),
    };
    loop {
        match parser.next_item() {
            Ok(Some(item)) => items.push(item),
            Ok(None) => return (items, None),
            Err(err) => return (items, Some(format!("{err:?}"))),
        }
    }
}

/// The chunked parses of `input` must equal its whole-buffer parse, and —
/// where the input is text at all — the in-memory parser's verdict.
fn assert_chunking_is_invisible(input: &[u8], random_sizes: Vec<usize>) {
    let whole = drain(Cursor::new(input));
    for sizes in [vec![1], vec![7], random_sizes] {
        // `BufReader` passes reads as large as the parser's straight through.
        let chunked = BufReader::new(Chunked {
            data: input,
            sizes: sizes.clone(),
            calls: 0,
        });
        assert_eq!(drain(chunked), whole, "chunk sizes {sizes:?}");
    }
    let items = |app: trace_model::AppTrace| -> Vec<AppItem> {
        app.ranks
            .iter()
            .flat_map(|rank| {
                let records = rank.records.iter().cloned().map(AppItem::Record);
                std::iter::once(AppItem::RankStart(rank.rank))
                    .chain(records)
                    .chain(std::iter::once(AppItem::RankEnd(rank.rank)))
            })
            .collect()
    };
    match std::str::from_utf8(input).map(parse_app_trace) {
        Ok(Ok(app)) => assert_eq!(whole, (items(app), None)),
        Ok(Err(err)) => assert_eq!(whole.1, Some(format!("{:?}", StreamError::Format(err)))),
        // The parser reads no further than `END_TRACE`, as the reduced
        // reader does: bytes that are not UTF-8 fail it only where they come
        // before that.  A parse that succeeds admits exactly the inputs whose
        // text in front of the bad bytes is a whole trace, and yields its
        // items.
        Err(bad) => match &whole.1 {
            Some(err) => assert!(
                err.contains("InvalidData") && err.contains("valid UTF-8"),
                "{err}"
            ),
            None => {
                let valid = std::str::from_utf8(&input[..bad.valid_up_to()]).unwrap();
                let app = parse_app_trace(valid).expect("the trailer precedes the bytes");
                assert_eq!(whole.0, items(app));
            }
        },
    }
}

/// Everything a reduced parse yields: the rank sections up to the first
/// error, and that error.
fn drain_reduced(reader: impl BufRead) -> (Vec<ReducedRankTrace>, Option<String>) {
    let mut ranks = Vec::new();
    let mut reader = match ReducedReader::<_, StreamError>::new(reader) {
        Ok(reader) => reader,
        Err(err) => return (ranks, Some(format!("{err:?}"))),
    };
    loop {
        match reader.next_rank() {
            Ok(Some(rank)) => ranks.push(rank),
            Ok(None) => return (ranks, None),
            Err(err) => return (ranks, Some(format!("{err:?}"))),
        }
    }
}

/// The reduced-text counterpart of [`assert_chunking_is_invisible`]: the
/// reader's chunked reads equal its whole-buffer read, and — where the
/// input is text at all — the whole-trace parser's verdict, rank for rank.
fn assert_reduced_chunking_is_invisible(input: &[u8], random_sizes: Vec<usize>) {
    let whole = drain_reduced(Cursor::new(input));
    for sizes in [vec![1], vec![7], random_sizes] {
        let chunked = BufReader::new(Chunked {
            data: input,
            sizes: sizes.clone(),
            calls: 0,
        });
        assert_eq!(drain_reduced(chunked), whole, "chunk sizes {sizes:?}");
    }
    match std::str::from_utf8(input).map(parse_reduced_trace) {
        Ok(Ok(reduced)) => assert_eq!(whole, (reduced.ranks, None)),
        Ok(Err(err)) => assert_eq!(whole.1, Some(format!("{:?}", StreamError::Format(err)))),
        // The reader reads no further than `END_TRACE`: bytes that are not
        // UTF-8 fail it only where they come before that, and otherwise the
        // text in front of them parses to the same ranks.
        Err(bad) => match &whole.1 {
            Some(err) => assert!(
                err.contains("InvalidData") && err.contains("valid UTF-8"),
                "{err}"
            ),
            None => {
                let valid = std::str::from_utf8(&input[..bad.valid_up_to()]).unwrap();
                let reduced = parse_reduced_trace(valid).expect("the trailer precedes the bytes");
                assert_eq!(whole.0, reduced.ranks);
            }
        },
    }
}

/// Byte-level mutations of a text trace, picked by `seed`.
fn mutate_text(text: &str, seed: u64) -> Vec<u8> {
    let lines: Vec<&str> = text.lines().collect();
    let at = (seed >> 8) as usize % lines.len();
    let splice = |replacement: Vec<u8>| {
        let mut out = Vec::new();
        for (index, line) in lines.iter().enumerate() {
            out.extend_from_slice(if index == at {
                &replacement
            } else {
                line.as_bytes()
            });
            out.push(b'\n');
        }
        out
    };
    let line = lines[at];
    match seed % 12 {
        0 => text.as_bytes().to_vec(),
        1 => text.replace('\n', "\r\n").into_bytes(),
        2 => text.trim_end().as_bytes().to_vec(),
        3 => text
            .replace('\n', " \n\n\u{2003}# caf\u{e9}\n\u{a0}\n")
            .into_bytes(),
        4 => splice(line.replace(' ', "\u{a0}").into_bytes()),
        5 => splice(line.replace(' ', "\t\x0B\x0C").into_bytes()),
        // Invalid UTF-8: inside a record, and inside a comment.
        6 => splice([line.as_bytes(), b"\xff"].concat()),
        7 => splice([line.as_bytes(), b"\n# caf\xe9"].concat()),
        // A comment longer than the parser's block buffer.
        8 => splice([line.as_bytes(), b"\n# ", "x".repeat(300_000).as_bytes()].concat()),
        9 => splice(format!("{line} 4294967296 extra").into_bytes()),
        10 => splice(line.replacen(' ', " 4294967296 ", 1).into_bytes()),
        _ => {
            let mut bytes = text.as_bytes().to_vec();
            let pos = (seed >> 8) as usize % bytes.len();
            bytes[pos] ^= 1 << ((seed >> 4) % 8);
            bytes
        }
    }
}

/// Everything a parse that skips every rank section yields: the ranks it
/// skipped, and its error.
fn drain_skipping(reader: impl BufRead) -> (Vec<Rank>, Option<String>) {
    let mut ranks = Vec::new();
    let mut parser = match StreamParser::new(reader) {
        Ok(parser) => parser,
        Err(err) => return (ranks, Some(format!("{err:?}"))),
    };
    loop {
        let skipped = match parser.next_item() {
            Ok(Some(AppItem::RankStart(_))) => parser.skip_current_rank(),
            Ok(Some(item)) => return (ranks, Some(format!("{item:?} outside a section"))),
            Ok(None) => return (ranks, None),
            Err(err) => Err(err),
        };
        match skipped {
            Ok(rank) => ranks.push(rank),
            Err(err) => return (ranks, Some(format!("{err:?}"))),
        }
    }
}

/// What [`drain_skipping`] must give, from a skip that takes the input one
/// raw line at a time: a line of 1 MiB or more is an error, a line with
/// non-ASCII bytes must be UTF-8, blanks and `#` comments go, and inside a
/// section a line starting `RANK` or reading `END_TRACE` is an error and
/// one the grammar reads as `END_RANK` ends it.
fn reference_skipping(input: &[u8]) -> (Vec<Rank>, Option<String>) {
    const MAX_LINE_BYTES: usize = 1 << 20;
    let mut ranks = Vec::new();
    let mut pieces = input.split(|&b| b == b'\n').peekable();
    let mut line_no = 0;
    // The next meaningful line and its number, or the error reading it.
    let mut next = || -> Result<Option<(usize, &[u8])>, StreamError> {
        while let Some(raw) = pieces.next() {
            if raw.is_empty() && pieces.peek().is_none() {
                break;
            }
            line_no += 1;
            if raw.len() >= MAX_LINE_BYTES {
                let message = format!("line exceeds {MAX_LINE_BYTES} bytes");
                return Err(FormatError::at(line_no, message).into());
            }
            if std::str::from_utf8(raw).is_err() {
                let message = "stream did not contain valid UTF-8";
                return Err(io::Error::new(io::ErrorKind::InvalidData, message).into());
            }
            if let Some(line) = meaningful_line(raw) {
                return Ok(Some((line_no, line)));
            }
        }
        Ok(None)
    };
    let end = |expecting: &str| -> StreamError {
        let message = format!("unexpected end of input, expected {expecting}");
        FormatError::structural(message).into()
    };
    let mut run = || -> Result<(), StreamError> {
        match next()? {
            Some((_, line)) if line == APP_HEADER.as_bytes() => {}
            Some((line_no, line)) => {
                let line = String::from_utf8_lossy(line);
                let message = format!("expected header {APP_HEADER:?}, found {line:?}");
                return Err(FormatError::at(line_no, message).into());
            }
            None => return Err(end("header")),
        }
        let mut builder = HeaderBuilder::new();
        let mut body = loop {
            let Some((line_no, line)) = next()? else {
                return Err(end(builder.expecting()));
            };
            if !builder.feed(line_no, line)? {
                break Some((line_no, line));
            }
        };
        let tables = builder.finish()?;
        loop {
            let Some((line_no, line)) =
                body.take().map_or_else(&mut next, |line| Ok(Some(line)))?
            else {
                return Err(end("RANK or END_TRACE"));
            };
            match parse_app_body_line(&tables, line_no, line, false)? {
                AppBodyLine::RankStart(rank) => loop {
                    let Some((line_no, line)) = next()? else {
                        return Err(end("rank records or END_RANK"));
                    };
                    if line.starts_with(b"RANK") || line == b"END_TRACE" {
                        let line = String::from_utf8_lossy(line);
                        let message = format!("unexpected record {line:?} inside a rank section");
                        return Err(FormatError::at(line_no, message).into());
                    }
                    let parsed = parse_app_body_line(&tables, line_no, line, true);
                    if matches!(parsed, Ok(AppBodyLine::EndRank)) {
                        ranks.push(rank);
                        break;
                    }
                },
                AppBodyLine::EndTrace if ranks.len() == tables.declared_ranks => return Ok(()),
                AppBodyLine::EndTrace => {
                    return Err(FormatError::structural(format!(
                        "header declares {} ranks but {} rank sections were found",
                        tables.declared_ranks,
                        ranks.len()
                    ))
                    .into())
                }
                _ => return Err(StreamError::Protocol("a record outside a section")),
            }
        }
    };
    let error = run().err().map(|err| format!("{err:?}"));
    (ranks, error)
}

/// A parser skipping every section, fed whole or in reads of `sizes`
/// bytes, gives what the per-line reference skip gives.
fn assert_skipping_matches_the_per_line_skip(input: &[u8], sizes: &[Vec<usize>]) {
    let expected = reference_skipping(input);
    assert_eq!(drain_skipping(Cursor::new(input)), expected, "whole");
    for sizes in sizes {
        let chunked = BufReader::new(Chunked {
            data: input,
            sizes: sizes.clone(),
            calls: 0,
        });
        assert_eq!(drain_skipping(chunked), expected, "chunk sizes {sizes:?}");
    }
}

#[test]
fn chunked_reads_of_all_paper_workloads_match_the_whole_buffer_parse() {
    for kind in WorkloadKind::all_paper() {
        let text = write_app_trace(&Workload::new(kind, SizePreset::Tiny).generate());
        assert_chunking_is_invisible(text.as_bytes(), vec![3, 64, 1, 4096, 13, 100_000]);
    }
}

/// Shrunk from `chunked_reads_of_mutated_text_match_the_whole_buffer_parse`
/// under other run seeds: mutation 7 put a comment that is not UTF-8 after
/// the `END_TRACE` line, which the parser never reads.
#[test]
fn bytes_that_are_not_utf8_after_end_trace_are_never_read() {
    let text = write_app_trace(&build_trace(&[vec![(0, 2, 0)]]));
    let input = mutate_text(&text, 1_907_399_454_110_345_599);
    assert!(input.ends_with(b"END_TRACE\n# caf\xe9\n"));
    assert_chunking_is_invisible(&input, vec![1]);
    let streamed = reduce_stream(&reducer(), Cursor::new(&input)).unwrap();
    assert_eq!(
        streamed.reduced,
        reducer().reduce_app(&build_trace(&[vec![(0, 2, 0)]]))
    );
}

/// Shrunk from `truncated_text_never_panics` under other run seeds: the cut
/// at 217 of 218 bytes drops only the final `\n` after `END_TRACE`.
#[test]
fn a_text_trace_cut_before_its_final_newline_reduces_as_the_whole() {
    let text = write_app_trace(&build_trace(&[vec![(0, 2, 0)]]));
    let cut = text
        .strip_suffix('\n')
        .expect("the writer ends the trace with a newline");
    assert!(cut.ends_with("\nEND_TRACE"));
    let whole = reduce_stream(&reducer(), Cursor::new(text.as_bytes())).unwrap();
    let truncated = reduce_stream(&reducer(), Cursor::new(cut.as_bytes())).unwrap();
    assert_eq!(truncated.reduced, whole.reduced);
}

#[test]
fn chunked_reads_of_reduced_paper_workloads_and_their_mutations_match_the_whole_buffer_parse() {
    for (index, kind) in WorkloadKind::all_paper().into_iter().enumerate() {
        let app = Workload::new(kind, SizePreset::Tiny).generate();
        let text = write_reduced_trace(&reducer().reduce_app(&app));
        assert_reduced_chunking_is_invisible(text.as_bytes(), vec![3, 64, 1, 4096, 13, 100_000]);
        // One mutation of each kind, at a place that moves with the workload.
        for mutation in 0..12u64 {
            let seed = (index as u64 * 7919 + mutation * 104_729) << 8;
            let seed = seed - seed % 12 + mutation;
            let input = mutate_text(&text, seed);
            assert_reduced_chunking_is_invisible(&input, vec![5, 300, 2]);
        }
    }
}

#[test]
fn a_skipping_parser_agrees_with_the_per_line_skip_on_every_kind_of_line() {
    let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
    let text = write_app_trace(&app);
    // `text` with `extra` put in front of the `record`-th record line of
    // section `rank`.
    let before_record = |rank: usize, record: usize, extra: &[u8]| {
        let section = text.find(&format!("\nRANK {rank}\n")).unwrap() + 1;
        let mut at = section + text[section..].find('\n').unwrap() + 1;
        for _ in 0..record {
            at += text[at..].find('\n').unwrap() + 1;
        }
        let bytes = text.as_bytes();
        [&bytes[..at], extra, &bytes[at..]].concat()
    };
    let line_of = |input: &[u8], needle: &[u8]| {
        let at = input
            .windows(needle.len())
            .position(|w| w == needle)
            .unwrap();
        input[..at].iter().filter(|&&b| b == b'\n').count() + 1
    };
    let format_error =
        |line, message: &str| format!("{:?}", StreamError::Format(FormatError::at(line, message)));
    let sizes = [vec![13], vec![4096], vec![65_537, 3]];

    // A stray `RANK` or `END_TRACE` in a skipped section is an error on its
    // line, and so is a line that is not UTF-8.
    for stray in [&b"RANK 9\n"[..], b"END_TRACE\n"] {
        let input = before_record(2, 3, stray);
        let line = line_of(&input, stray);
        let found = String::from_utf8_lossy(&stray[..stray.len() - 1]).into_owned();
        let message = format!("unexpected record {found:?} inside a rank section");
        let expected = (vec![Rank(0), Rank(1)], Some(format_error(line, &message)));
        assert_eq!(drain_skipping(Cursor::new(&input)), expected);
        assert_skipping_matches_the_per_line_skip(&input, &sizes);
    }
    let input = before_record(4, 0, b"EVENT 0 5 10 2 COMPUTE \xE9\n");
    let (ranks, error) = drain_skipping(Cursor::new(&input));
    assert_eq!(ranks.len(), 4);
    assert!(error.unwrap().contains("InvalidData"));
    assert_skipping_matches_the_per_line_skip(&input, &sizes);

    // Blank lines, comments, indented records, a non-ASCII comment, a
    // record ending in a blank and `\r\n` line ends all pass as the
    // per-line rule passes them.
    let passing: [&[u8]; 6] = [
        b"\n\n   \n",
        b"# a comment\n#EVENT\n",
        b"  EVENT 0 5 10 2 COMPUTE\n\tSEG_BEGIN 0 0\n",
        "# caf\u{e9}\n\u{a0}EVENT 0\n".as_bytes(),
        b"SEG_END 0 100 \x0B\n",
        b"",
    ];
    for extra in passing {
        let input = before_record(3, 1, extra);
        assert_eq!(drain_skipping(Cursor::new(&input)).1, None, "{extra:?}");
        assert_skipping_matches_the_per_line_skip(&input, &sizes);
    }
    // `END_RANK` and a trailing token ends a section, as the grammar reads
    // it: here the line after it opens a ninth.
    let input = before_record(3, 1, b"END_RANK 7 extra\nRANK 3\n");
    let (ranks, error) = drain_skipping(Cursor::new(&input));
    assert_eq!(ranks.len(), app.rank_count() + 1);
    assert!(error.unwrap().contains("but 9 rank sections"));
    assert_skipping_matches_the_per_line_skip(&input, &sizes);
    let crlf = text.replace('\n', "\r\n");
    assert_eq!(drain_skipping(Cursor::new(&crlf)).0.len(), app.rank_count());
    assert_skipping_matches_the_per_line_skip(crlf.as_bytes(), &sizes);

    // A section larger than the parser's block, so that lines are split by
    // refills whatever the read sizes.
    let records: String = (0..20_000)
        .map(|i| format!("EVENT 0 {i} {} 2 COMPUTE\n", i + 1))
        .collect();
    let input = before_record(5, 2, records.as_bytes());
    assert_eq!(drain_skipping(Cursor::new(&input)).1, None);
    assert_skipping_matches_the_per_line_skip(&input, &sizes);

    // A line of 1 MiB is an error on its line.
    let long = [&b"EVENT 0 "[..], &vec![b'7'; 1 << 20], b"\n"].concat();
    let input = before_record(1, 2, &long);
    let line = line_of(&input, &long[..16]);
    let message = format!("line exceeds {} bytes", 1 << 20);
    assert_eq!(
        drain_skipping(Cursor::new(&input)),
        (vec![Rank(0)], Some(format_error(line, &message)))
    );
    assert_skipping_matches_the_per_line_skip(&input, &[vec![65_537, 3]]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn chunked_reads_of_mutated_text_match_the_whole_buffer_parse(
        rank_specs in spec_strategy(),
        seeds in prop::collection::vec(any::<u64>(), 12),
        sizes in prop::collection::vec(1usize..200, 1..8),
    ) {
        let text = write_app_trace(&build_trace(&rank_specs));
        for (kind, seed) in seeds.into_iter().enumerate() {
            // Every mutation kind once per case, at a random place.
            let seed = seed - seed % 12 + kind as u64;
            assert_chunking_is_invisible(&mutate_text(&text, seed), sizes.clone());
        }
    }

    #[test]
    fn chunked_reads_of_mutated_reduced_text_match_the_whole_buffer_parse(
        rank_specs in spec_strategy(),
        seeds in prop::collection::vec(any::<u64>(), 12),
        sizes in prop::collection::vec(1usize..200, 1..8),
    ) {
        let text = write_reduced_trace(&reducer().reduce_app(&build_trace(&rank_specs)));
        for (kind, seed) in seeds.into_iter().enumerate() {
            let seed = seed - seed % 12 + kind as u64;
            assert_reduced_chunking_is_invisible(&mutate_text(&text, seed), sizes.clone());
        }
    }

    #[test]
    fn skipping_mutated_text_matches_a_per_line_skip(
        rank_specs in spec_strategy(),
        seeds in prop::collection::vec(any::<u64>(), 12),
        sizes in prop::collection::vec(1usize..200, 1..8),
    ) {
        let text = write_app_trace(&build_trace(&rank_specs));
        for (kind, seed) in seeds.into_iter().enumerate() {
            let seed = seed - seed % 12 + kind as u64;
            let input = mutate_text(&text, seed);
            assert_skipping_matches_the_per_line_skip(&input, &[vec![1], vec![7], sizes.clone()]);
        }
    }

    #[test]
    fn truncated_text_never_panics(
        rank_specs in spec_strategy(),
        cut_seed in any::<usize>(),
    ) {
        let text = write_app_trace(&build_trace(&rank_specs));
        let bytes = text.as_bytes();
        let cut = cut_seed % (bytes.len() + 1);
        let truncated = &bytes[..cut];
        let result = reduce_stream(&reducer(), Cursor::new(truncated)).map(|_| ());
        // The grammar reads a last line without its `\n`, so the one cut
        // that drops only the final `\n` after `END_TRACE` leaves the whole
        // trace; every shorter cut loses part of it.
        if cut + 1 < bytes.len() {
            prop_assert!(result.is_err(), "truncation at {cut} must not parse");
        } else {
            prop_assert!(bytes.ends_with(b"END_TRACE\n"));
            prop_assert!(result.is_ok(), "truncation at {cut} keeps END_TRACE");
        }
        assert_text_outcome(result, truncated);
    }

    #[test]
    fn bit_flipped_text_never_panics(
        rank_specs in spec_strategy(),
        pos_seed in any::<usize>(),
        bit in 0u8..8,
    ) {
        let text = write_app_trace(&build_trace(&rank_specs));
        let mut bytes = text.into_bytes();
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= 1 << bit;
        let result = reduce_stream(&reducer(), Cursor::new(&bytes[..])).map(|_| ());
        assert_text_outcome(result, &bytes);
    }

    #[test]
    fn garbage_prefix_text_never_panics(garbage in prop::collection::vec(any::<u8>(), 0..256)) {
        // Arbitrary bytes are (at best) not a valid header; either way the
        // parser must return, not unwind.
        let _ = reduce_stream(&reducer(), Cursor::new(&garbage[..]));
    }

    #[test]
    fn truncated_container_never_panics(
        rank_specs in spec_strategy(),
        cut_seed in any::<usize>(),
    ) {
        let bytes = encode_app_container(&build_trace(&rank_specs), ChunkSpec::with_segments(3));
        let cut = cut_seed % bytes.len();
        let result = reduce_container_stream(&reducer(), Cursor::new(&bytes[..cut]));
        prop_assert!(result.is_err(), "truncation at {cut} of {} must not parse", bytes.len());
    }

    #[test]
    fn bit_flipped_container_never_panics(
        rank_specs in spec_strategy(),
        pos_seed in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut bytes = encode_app_container(&build_trace(&rank_specs), ChunkSpec::with_segments(3));
        let reference = reduce_container_stream(&reducer(), Cursor::new(&bytes[..]))
            .expect("pristine container parses");
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= 1 << bit;
        // A flip is either detected (CRC, magic, structure) or lands in a
        // byte that keeps the container decodable; both are fine — only a
        // panic or a silent wrong answer on detectable corruption is not.
        if let Ok(reduction) = reduce_container_stream(&reducer(), Cursor::new(&bytes[..])) {
            let _ = (reduction, &reference);
        }
    }
}
