//! The text parser decodes the records of a rank section in batches of up
//! to `BATCH_RECORDS`; these tests pin that batching changes nothing a
//! caller can see.  Every input is drained two ways — `next_item` alone,
//! and `next_item` with `take_records` after each record — and both must
//! give the items a record-at-a-time parser gives: the in-memory
//! `parse_app_trace`'s records, then its first error (line and message),
//! or the reader's own I/O error after exactly the lines before it.

use std::io::{self, BufReader, Cursor, Read};

use trace_format::{parse_app_trace, write_app_trace, FormatError};
use trace_model::{AppTrace, Rank};
use trace_sim::{SizePreset, Workload};
use trace_stream::parser::BATCH_RECORDS;
use trace_stream::{AppItem, StreamError, StreamParser};

/// What a drain saw: the items in order, then the first error, if any.
#[derive(Debug)]
struct Drained {
    items: Vec<AppItem>,
    error: Option<StreamError>,
}

/// Drains `parser` to its end or first error; `batches` hands each
/// record's batch over through `take_records`.
fn drain<R: io::BufRead>(parser: Result<StreamParser<R>, StreamError>, batches: bool) -> Drained {
    let mut items = Vec::new();
    let error = parser
        .and_then(|mut parser| {
            while let Some(item) = parser.next_item()? {
                let record = matches!(item, AppItem::Record(_));
                items.push(item);
                if batches && record {
                    let rest = parser.take_records().iter();
                    items.extend(rest.map(|record| AppItem::Record(*record)));
                }
            }
            Ok(())
        })
        .err();
    Drained { items, error }
}

/// Drains a fresh reader from `open` both ways and asserts they agree on
/// the items and on the first error; returns the one outcome.
fn drain_both<R: io::BufRead>(what: &str, open: impl Fn() -> R) -> Drained {
    let single = drain(StreamParser::new(open()), false);
    let batched = drain(StreamParser::new(open()), true);
    assert_eq!(single.items, batched.items, "{what}: items");
    assert_eq!(
        format!("{:?}", single.error),
        format!("{:?}", batched.error),
        "{what}: first error"
    );
    single
}

/// The items of a whole trace, in stream order.
fn items_of(app: &AppTrace) -> Vec<AppItem> {
    let mut items = Vec::new();
    for rank in &app.ranks {
        items.push(AppItem::RankStart(rank.rank));
        items.extend(rank.records.iter().map(|record| AppItem::Record(*record)));
        items.push(AppItem::RankEnd(rank.rank));
    }
    items
}

/// Asserts that `text` drains, both ways, to exactly the trace the
/// in-memory parser reads from it.
fn assert_drains_like_the_in_memory_parser(what: &str, text: &str) {
    let app = parse_app_trace(text).unwrap_or_else(|e| panic!("{what}: {e}"));
    let drained = drain_both(what, || Cursor::new(text.as_bytes()));
    assert!(drained.error.is_none(), "{what}: {:?}", drained.error);
    assert_eq!(drained.items, items_of(&app), "{what}");
}

/// A trace whose rank sections hold `counts[i]` records each: segments of
/// one event, cut wherever the count falls.
fn trace_with_sections(counts: &[usize]) -> String {
    let mut text = format!(
        "TRACEFORMAT 1\nTRACE RANKS {} NAME batches\nREGION 0 work\nCONTEXT 0 main.1\n",
        counts.len()
    );
    for (rank, &count) in counts.iter().enumerate() {
        text.push_str(&format!("RANK {rank}\n"));
        for i in 0..count as u64 {
            let t = 100 * (i / 3);
            text.push_str(&match i % 3 {
                0 => format!("SEG_BEGIN 0 {t}\n"),
                1 => format!("EVENT 0 {} {} 0 COMPUTE\n", t + 10, t + 90),
                _ => format!("SEG_END 0 {}\n", t + 100),
            });
        }
        text.push_str("END_RANK\n");
    }
    text.push_str("END_TRACE\n");
    text
}

/// Byte offset of the `index`-th record line of rank section `rank`, and
/// its length, terminator included.
fn record_line(text: &str, rank: usize, index: usize) -> (usize, usize) {
    let section = text.find(&format!("\nRANK {rank}\n")).unwrap() + 1;
    let mut at = section + text[section..].find('\n').unwrap() + 1;
    for _ in 0..index {
        at += text[at..].find('\n').unwrap() + 1;
    }
    (at, text[at..].find('\n').unwrap() + 1)
}

#[test]
fn the_18_tiny_workloads_drain_alike_both_ways() {
    for workload in Workload::all(SizePreset::Tiny) {
        let app = workload.generate();
        let text = write_app_trace(&app);
        let drained = drain_both(&workload.name(), || Cursor::new(text.as_bytes()));
        assert!(drained.error.is_none(), "{}", workload.name());
        assert_eq!(drained.items, items_of(&app), "{}", workload.name());
    }
}

#[test]
fn comments_blank_lines_crlf_tabs_and_plus_signs_inside_a_section() {
    let text = "TRACEFORMAT 1\nTRACE RANKS 2 NAME odd\nREGION 0 work\nCONTEXT 0 main.1\n\
                RANK 0\r\n\
                SEG_BEGIN 0 0\r\n\
                # a comment between records\n\
                \n\
                \tEVENT\t0 +10\t90 0 COMPUTE\n\
                   \r\n\
                SEG_END 0 +100   \n\
                #SEG_BEGIN 0 100\n\
                SEG_BEGIN\t0\t100\r\n\
                EVENT 0 110 +190 0 COMPUTE\r\n\
                \t\n\
                SEG_END 0 200\n\
                # the section ends after a comment\n\
                END_RANK\r\n\
                RANK 1\n\
                END_RANK\n\
                END_TRACE\n";
    assert_drains_like_the_in_memory_parser("odd lines", text);
}

#[test]
fn sections_around_the_batch_cap_drain_alike_both_ways() {
    let cap = BATCH_RECORDS;
    for count in [cap - 1, cap, cap + 1, 2 * cap] {
        let text = trace_with_sections(&[count, 1, count]);
        assert_drains_like_the_in_memory_parser(&format!("{count} records"), &text);
    }
    // A batch that spans a refill of the reader's 128 KiB block: the line
    // the first block cuts is a record in the middle of a batch.
    let text = trace_with_sections(&[3 * cap, 3 * cap, 3 * cap]);
    let block = 128 * 1024;
    let straddling = (0..3).flat_map(|rank| (0..3 * cap).map(move |index| (rank, index)));
    let cut = straddling
        .map(|(rank, index)| (index, record_line(&text, rank, index)))
        .find(|(_, (at, len))| *at < block && block < at + len);
    let (index, _) = cut.expect("a record line holds the block boundary");
    assert!(index % cap != 0, "the boundary falls inside a batch");
    assert_drains_like_the_in_memory_parser("block refill", &text);
}

#[test]
fn a_malformed_line_at_any_batch_offset_is_the_in_memory_parsers_error() {
    let cap = BATCH_RECORDS;
    let text = trace_with_sections(&[2 * cap + 5, 3]);
    let items = items_of(&parse_app_trace(&text).unwrap());
    let bad_lines = [
        "EVENT 0 x 9 0 COMPUTE\n",
        "SEG_END 7 100\n",
        "RANK 1\n",
        "END_TRACE\n",
        "BOGUS 1 2\n",
    ];
    for offset in [0, cap - 1, cap, cap + 1] {
        for bad in bad_lines {
            let (at, len) = record_line(&text, 0, offset);
            let broken = format!("{}{bad}{}", &text[..at], &text[at + len..]);
            let what = format!("{bad:?} at offset {offset}");
            let expected = parse_app_trace(&broken).expect_err(&what);
            let drained = drain_both(&what, || Cursor::new(broken.as_bytes()));
            let error = drained.error.expect(&what);
            let found: &FormatError = error.as_format().expect(&what);
            assert_eq!(found, &expected, "{what}");
            // The section's start and the records before the bad line.
            assert_eq!(drained.items, items[..offset + 1], "{what}");
        }
    }
}

/// A reader that fails once, with an I/O error, when it reaches byte
/// `fail_at`, and then reads on.
struct FailsOnceAt {
    bytes: Vec<u8>,
    pos: usize,
    fail_at: usize,
    failed: bool,
}

impl Read for FailsOnceAt {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if !self.failed && self.pos == self.fail_at {
            self.failed = true;
            return Err(io::Error::other("the disk went away"));
        }
        let end = if self.failed {
            self.bytes.len()
        } else {
            self.fail_at
        };
        let n = buf.len().min(end - self.pos);
        buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

#[test]
fn an_io_error_inside_a_batch_comes_after_the_records_before_it() {
    let cap = BATCH_RECORDS;
    let text = trace_with_sections(&[3 * cap, cap + 1, 7]);
    let body = text.find("RANK 0\n").unwrap();
    let items = items_of(&parse_app_trace(&text).unwrap());
    let mut fail_points = vec![128 * 1024, text.len() - 30];
    for (rank, index) in [
        (0, 1),
        (0, cap - 1),
        (0, cap),
        (0, 2 * cap + 7),
        (1, cap),
        (2, 3),
    ] {
        let (at, len) = record_line(&text, rank, index);
        // At the line's first byte, inside it, and at its last.
        fail_points.extend([at, at + len / 2, at + len - 1]);
    }
    for fail_at in fail_points {
        let open = || {
            let bytes = text.clone().into_bytes();
            let reader = FailsOnceAt {
                bytes,
                pos: 0,
                fail_at,
                failed: false,
            };
            // A block-sized request bypasses the `BufReader`'s own buffer.
            BufReader::new(reader)
        };
        let what = format!("failing at byte {fail_at}");
        let drained = drain_both(&what, open);
        let Some(StreamError::Io(error)) = &drained.error else {
            panic!("{what}: {:?}", drained.error);
        };
        assert_eq!(error.to_string(), "the disk went away", "{what}");
        // Every item whose line ends before the failing byte, no other.
        let whole_lines = text[body..fail_at].matches('\n').count();
        assert_eq!(drained.items, items[..whole_lines], "{what}");
    }
}

/// Opens `text`, serves `served` records of rank section `rank` through
/// `next_item` (then the rest of their batch, if `take`), skips the
/// section, and drains what follows.
fn skip_after(text: &str, rank: u32, served: usize, take: bool) -> (Rank, Drained) {
    let mut parser = StreamParser::new(Cursor::new(text.as_bytes())).unwrap();
    while parser.next_item().unwrap() != Some(AppItem::RankStart(Rank(rank))) {}
    for _ in 0..served {
        let item = parser.next_item().unwrap();
        assert!(matches!(item, Some(AppItem::Record(_))), "{item:?}");
    }
    if take {
        parser.take_records();
    }
    let skipped = parser.skip_current_rank().unwrap();
    (skipped, drain(Ok(parser), false))
}

#[test]
fn skip_current_rank_drops_the_unserved_batch_and_leaves_the_same_next_item() {
    let cap = BATCH_RECORDS;
    let counts = [7, cap + 10, 7];
    let text = trace_with_sections(&counts);
    for (rank, records) in (0..).zip(counts) {
        // Skipped straight after its start, before any batch.
        let (skipped, expected) = skip_after(&text, rank, 0, false);
        assert_eq!(skipped, Rank(rank));
        assert!(expected.error.is_none(), "{:?}", expected.error);
        let next = expected.items.first();
        assert_eq!(
            next,
            (rank < 2).then_some(&AppItem::RankStart(Rank(rank + 1)))
        );
        // Partly served; and every record served, so that the batch was
        // stopped by `END_RANK`, which the skip must still read.
        let mut served = vec![1, 3, records];
        if records > cap {
            served.extend([cap, cap + 1]);
        }
        for served in served {
            for take in [false, true] {
                let what = format!("rank {rank}, {served} served, take {take}");
                let (skipped, rest) = skip_after(&text, rank, served, take);
                assert_eq!(skipped, Rank(rank), "{what}");
                assert_eq!(rest.items, expected.items, "{what}");
                assert!(rest.error.is_none(), "{what}: {:?}", rest.error);
            }
        }
    }
    // A malformed record stops a batch, not a skip: skipping validates no
    // record, with or without the batch in front of it.
    let (at, len) = record_line(&text, 1, 20);
    let broken = format!(
        "{}EVENT 0 x 9 0 COMPUTE\n{}",
        &text[..at],
        &text[at + len..]
    );
    let (_, expected) = skip_after(&text, 1, 0, false);
    for served in [0, 1, 20] {
        for take in [false, true] {
            let what = format!("malformed, {served} served, take {take}");
            let (skipped, rest) = skip_after(&broken, 1, served, take);
            assert_eq!(skipped, Rank(1), "{what}");
            assert_eq!(rest.items, expected.items, "{what}");
            assert!(rest.error.is_none(), "{what}: {:?}", rest.error);
        }
    }
}
