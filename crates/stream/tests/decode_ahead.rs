//! What a streaming reduction on one worker gives a caller, for text and
//! for containers: for every input below, the reduction — every
//! `StreamStats` field included — or the error, variant and message.  The
//! numbers and messages were recorded from a reducer reading its source on
//! its own thread, which is what a one-worker run does, and they held
//! while such a run decoded its input ahead on a second thread: how the
//! one worker reads its source changes nothing here.
//!
//! The inputs: the 18 tiny workloads; the text parser's hostile set (a
//! malformed line at either side of a batch boundary, an I/O error at byte
//! k); a container cut inside a chunk; zero declared ranks; a header that
//! declares one rank fewer or one more than the file holds; an extra
//! section holding a malformed record, which only the declared count may
//! reject, since a section past the declared ones is skipped, not parsed;
//! malformed records in two sections; a section ended by `END_RANK` and a
//! trailing token; and a missing trailer.
//!
//! Text runs are also made on 2, 3 and ranks + 3 workers, which pass the
//! sections other workers own: each gives one worker's outcome.

use std::io::{self, BufReader, Cursor, Read, Seek, SeekFrom};

use trace_container::{crc32, encode_app_container, ChunkSpec};
use trace_format::write_app_trace;
use trace_model::AppTrace;
use trace_reduce::{MatchStats, Method, Reducer};
use trace_sim::{SizePreset, Workload, WorkloadKind};
use trace_stream::parser::BATCH_RECORDS;
use trace_stream::{
    reduce_container_file, reduce_container_stream, reduce_stream, reduce_stream_sharded,
    StreamError, StreamParser, StreamReduction, StreamStats,
};

fn reducer() -> Reducer {
    Reducer::with_default_threshold(Method::AvgWave)
}

/// A text trace reduced on one worker, by both text entry points; they
/// must agree.  So must the sharded entry point on 2, 3 and ranks + 3
/// workers, which pass the sections other workers own.
fn text_run(text: &[u8]) -> Result<StreamReduction, StreamError> {
    let open = || BufReader::new(Cursor::new(text.to_vec()));
    let streamed = reduce_stream(&reducer(), open());
    let sharded = reduce_stream_sharded(&reducer(), 1, |_| Ok(open()));
    assert_eq!(outcome(&streamed), outcome(&sharded));
    assert_any_worker_count_agrees(&streamed, open);
    streamed
}

/// Asserts that the sharded text driver on 2, 3 and ranks + 3 workers, each
/// reading from `open`, gives `one_worker`'s outcome.
fn assert_any_worker_count_agrees<R: io::BufRead + Seek + Send>(
    one_worker: &Result<StreamReduction, StreamError>,
    open: impl Fn() -> R + Sync,
) {
    let ranks = StreamParser::new(open()).map_or(0, |parser| parser.tables().declared_ranks);
    for workers in [2, 3, ranks + 3] {
        let sharded = reduce_stream_sharded(&reducer(), workers, |_| Ok(open()));
        assert_eq!(
            outcome_on_any_workers(&sharded),
            outcome_on_any_workers(one_worker),
            "{workers} workers"
        );
    }
}

fn container_run(bytes: &[u8]) -> Result<StreamReduction, StreamError> {
    reduce_container_stream(&reducer(), Cursor::new(bytes))
}

/// What a run shows a caller, to compare two runs by.
fn outcome(run: &Result<StreamReduction, StreamError>) -> String {
    match run {
        Ok(run) => format!("{:?} {:?}", run.stats, run.reduced),
        Err(error) => format!("{error:?}"),
    }
}

/// [`outcome`] without the peak of resident segments, which is one
/// observation on one worker and the sum of the workers' peaks on several,
/// and without the bytes passed, which depend on how the text is cut.
fn outcome_on_any_workers(run: &Result<StreamReduction, StreamError>) -> String {
    match run {
        Ok(run) => {
            let stats = StreamStats {
                peak_resident_segments: 0,
                passed_bytes: 0,
                ..run.stats
            };
            format!("{stats:?} {:?}", run.reduced)
        }
        Err(error) => format!("{error:?}"),
    }
}

fn variant(error: &StreamError) -> &'static str {
    match error {
        StreamError::Io(_) => "Io",
        StreamError::Format(_) => "Format",
        StreamError::Container(_) => "Container",
        StreamError::Protocol(_) => "Protocol",
        StreamError::Section { .. } => "Section",
        StreamError::Sink(_) => "Sink",
    }
}

/// Every `StreamStats` field but `peak_chunk_bytes`, in declaration order,
/// the matching counters last.
fn counts(stats: &StreamStats) -> [usize; 16] {
    let StreamStats {
        ranks,
        events,
        segments,
        stored,
        execs,
        possible_matches,
        peak_resident_segments,
        orphan_events,
        unterminated_segments,
        peak_chunk_bytes: _,
        passed_bytes: _,
        matching,
    } = *stats;
    let MatchStats {
        comparisons,
        prefilter_rejects,
        early_abandons,
        full_kernels,
        matches,
        index_window_prunes,
        eligible,
    } = matching;
    [
        ranks,
        events,
        segments,
        stored,
        execs,
        possible_matches,
        peak_resident_segments,
        orphan_events,
        unterminated_segments,
        comparisons,
        prefilter_rejects,
        early_abandons,
        full_kernels,
        matches,
        index_window_prunes,
        eligible,
    ]
}

/// Per tiny workload: the counts of [`counts`], the same for text and
/// container, and the container's `peak_chunk_bytes` (text's is 0).
const TINY: [(&str, [usize; 16], usize); 18] = [
    (
        "early_gather",
        [8, 184, 96, 24, 96, 72, 3, 0, 0, 72, 0, 0, 72, 72, 0, 72],
        2632,
    ),
    (
        "imbalance_at_mpi_barrier",
        [8, 184, 96, 24, 96, 72, 3, 0, 0, 72, 0, 0, 72, 72, 0, 72],
        2632,
    ),
    (
        "late_receiver",
        [8, 184, 96, 24, 96, 72, 3, 0, 0, 72, 0, 0, 72, 72, 0, 72],
        2632,
    ),
    (
        "late_sender",
        [8, 184, 96, 24, 96, 72, 3, 0, 0, 72, 0, 0, 72, 72, 0, 72],
        2632,
    ),
    (
        "late_broadcast",
        [8, 184, 96, 24, 96, 72, 3, 0, 0, 72, 0, 0, 72, 72, 0, 72],
        2632,
    ),
    (
        "Nto1_32",
        [
            8, 344, 176, 33, 176, 152, 5, 0, 0, 154, 11, 0, 143, 143, 0, 238,
        ],
        4872,
    ),
    (
        "NtoN_32",
        [
            8, 344, 176, 43, 176, 152, 6, 0, 0, 180, 45, 2, 133, 133, 0, 421,
        ],
        4872,
    ),
    (
        "1toN_32",
        [
            8, 344, 176, 31, 176, 152, 5, 0, 0, 153, 8, 0, 145, 145, 0, 215,
        ],
        4872,
    ),
    (
        "1to1r_32",
        [
            8, 344, 176, 33, 176, 152, 5, 0, 0, 154, 11, 0, 143, 143, 0, 236,
        ],
        4872,
    ),
    (
        "1to1s_32",
        [
            8, 344, 176, 34, 176, 152, 5, 0, 0, 154, 12, 0, 142, 142, 0, 246,
        ],
        4872,
    ),
    (
        "Nto1_1024",
        [
            8, 344, 176, 35, 176, 152, 6, 0, 0, 159, 17, 1, 141, 141, 0, 260,
        ],
        4872,
    ),
    (
        "NtoN_1024",
        [
            8, 344, 176, 40, 176, 152, 5, 0, 0, 244, 108, 0, 136, 136, 0, 397,
        ],
        4872,
    ),
    (
        "1toN_1024",
        [
            8, 344, 176, 33, 176, 152, 5, 0, 0, 154, 11, 0, 143, 143, 0, 238,
        ],
        4872,
    ),
    (
        "1to1r_1024",
        [
            8, 344, 176, 34, 176, 152, 5, 0, 0, 157, 15, 0, 142, 142, 0, 242,
        ],
        4872,
    ),
    (
        "1to1s_1024",
        [
            8, 344, 176, 38, 176, 152, 5, 0, 0, 162, 24, 0, 138, 138, 0, 316,
        ],
        4872,
    ),
    (
        "dyn_load_balance",
        [8, 192, 96, 56, 96, 64, 7, 0, 0, 148, 35, 73, 40, 40, 0, 148],
        2688,
    ),
    (
        "sweep3d_8p",
        [
            8, 3976, 1360, 156, 1360, 1256, 22, 0, 0, 1759, 548, 7, 1204, 1204, 0, 2047,
        ],
        37912,
    ),
    (
        "sweep3d_32p",
        [
            32, 27680, 7488, 663, 7488, 7072, 22, 0, 0, 11368, 4446, 97, 6825, 6825, 0, 12563,
        ],
        45024,
    ),
];

#[test]
fn the_18_tiny_workloads_reduce_as_before_from_text_and_container() {
    let mut found = Vec::new();
    for workload in Workload::all(SizePreset::Tiny) {
        let app = workload.generate();
        let in_memory = reducer().reduce_app(&app);
        let text = text_run(write_app_trace(&app).as_bytes()).unwrap();
        let container = encode_app_container(&app, ChunkSpec::default());
        let container = container_run(&container).unwrap();
        assert_eq!(text.reduced, in_memory, "{}", workload.name());
        assert_eq!(container.reduced, in_memory, "{}", workload.name());
        assert_eq!(text.stats.peak_chunk_bytes, 0, "{}", workload.name());
        let shared = counts(&text.stats);
        assert_eq!(counts(&container.stats), shared, "{}", workload.name());
        found.push((workload.name(), shared, container.stats.peak_chunk_bytes));
    }
    let pinned: Vec<_> = TINY
        .iter()
        .map(|(n, c, p)| (n.to_string(), *c, *p))
        .collect();
    let rows: Vec<String> = found.iter().map(|row| format!("    {row:?},")).collect();
    assert!(
        found == pinned,
        "the reductions differ from the pinned ones; found:\n{}",
        rows.join("\n")
    );
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

/// `text` with the `index`-th record line of section `rank` malformed.
fn malformed(text: &str, rank: usize, index: usize) -> String {
    let (at, len) = record_line(text, rank, index);
    format!(
        "{}EVENT 0 x 9 0 COMPUTE\n{}",
        &text[..at],
        &text[at + len..]
    )
}

/// A reader that fails once, with an I/O error, when it reaches byte
/// `fail_at`, and then reads on.  A reader that seeks past the byte
/// without reaching it reads on too.
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
        let end = if self.failed || self.pos > self.fail_at {
            self.bytes.len()
        } else {
            self.fail_at
        };
        let n = buf.len().min(end.saturating_sub(self.pos));
        buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

impl Seek for FailsOnceAt {
    fn seek(&mut self, to: SeekFrom) -> io::Result<u64> {
        self.pos = match to {
            SeekFrom::Start(at) => at as usize,
            SeekFrom::End(back) => self.bytes.len().saturating_add_signed(back as isize),
            SeekFrom::Current(by) => self.pos.saturating_add_signed(by as isize),
        };
        Ok(self.pos as u64)
    }
}

/// The error a hostile input gives: its variant and its message.
type Expected = (&'static str, &'static str);

/// Checks each `(case, run)` against the pinned `(variant, message)`, or,
/// for a run that must succeed, the pinned counts and `peak_chunk_bytes`.
fn check(cases: Vec<(String, Result<StreamReduction, StreamError>)>, pinned: &[Expected]) {
    let found: Vec<(String, String)> = cases
        .iter()
        .map(|(_, run)| match run {
            Ok(run) => {
                let peak = run.stats.peak_chunk_bytes;
                ("Ok".to_string(), format!("{:?} {peak}", counts(&run.stats)))
            }
            Err(error) => (variant(error).to_string(), error.to_string()),
        })
        .collect();
    let pinned: Vec<(String, String)> = pinned
        .iter()
        .map(|(variant, message)| (variant.to_string(), message.to_string()))
        .collect();
    let rows = cases.iter().zip(&found);
    let rows: Vec<String> = rows
        .map(|((case, _), row)| format!("    // {case}\n    {row:?},"))
        .collect();
    assert!(
        found == pinned,
        "the outcomes differ from the pinned ones; found:\n{}",
        rows.join("\n")
    );
}

const TEXT_HOSTILE: [Expected; 14] = [
    // a malformed record at batch offset 0
    (
        "Format",
        "trace format error at line 6: invalid event start: \"x\"",
    ),
    // a malformed record at batch offset 2047
    (
        "Format",
        "trace format error at line 2053: invalid event start: \"x\"",
    ),
    // a malformed record at batch offset 2048
    (
        "Format",
        "trace format error at line 2054: invalid event start: \"x\"",
    ),
    // a malformed record at batch offset 2049
    (
        "Format",
        "trace format error at line 2055: invalid event start: \"x\"",
    ),
    // an I/O error at byte 131072
    ("Io", "trace stream i/o error: the disk went away"),
    // an I/O error at byte 43341
    ("Io", "trace stream i/o error: the disk went away"),
    // an I/O error at byte 178317
    ("Io", "trace stream i/o error: the disk went away"),
    // zero declared ranks
    ("Ok", "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] 0"),
    // one rank fewer declared
    (
        "Format",
        "trace format error: header declares 7 ranks but 8 rank sections were found",
    ),
    // one rank more declared
    (
        "Format",
        "trace format error: header declares 9 ranks but 8 rank sections were found",
    ),
    // no trailer
    (
        "Format",
        "trace format error: unexpected end of input, expected RANK or END_TRACE",
    ),
    // an extra section holding a malformed record
    (
        "Format",
        "trace format error: header declares 1 ranks but 2 rank sections were found",
    ),
    // malformed records in sections 1 and 3
    (
        "Format",
        "trace format error at line 65: invalid event start: \"x\"",
    ),
    // END_RANK with a trailing token
    (
        "Ok",
        "[5, 67, 68, 6, 68, 62, 2, 0, 3, 62, 0, 0, 62, 62, 0, 62] 0",
    ),
];

#[test]
fn hostile_text_gives_the_same_error_or_reduction() {
    let cap = BATCH_RECORDS;
    let mut cases = Vec::new();
    // A malformed record on either side of the first batch boundary.
    let batches = trace_with_sections(&[2 * cap + 5, 3]);
    for offset in [0, cap - 1, cap, cap + 1] {
        let broken = malformed(&batches, 0, offset);
        let what = format!("a malformed record at batch offset {offset}");
        cases.push((what, text_run(broken.as_bytes())));
    }
    // An I/O error at the block boundary, inside a batch, and near the end.
    let long = trace_with_sections(&[3 * cap, cap + 1, 7]);
    let (at, len) = record_line(&long, 0, cap);
    for fail_at in [128 * 1024, at + len / 2, long.len() - 30] {
        let open = || {
            let bytes = long.clone().into_bytes();
            let reader = FailsOnceAt {
                bytes,
                pos: 0,
                fail_at,
                failed: false,
            };
            BufReader::new(reader)
        };
        let reduced = reduce_stream(&reducer(), open());
        let sharded = reduce_stream_sharded(&reducer(), 1, |_| Ok(open()));
        assert_eq!(outcome(&reduced), outcome(&sharded));
        assert_any_worker_count_agrees(&reduced, open);
        cases.push((format!("an I/O error at byte {fail_at}"), reduced));
    }
    // Zero declared ranks.
    let empty = trace_with_sections(&[]);
    cases.push((
        "zero declared ranks".to_string(),
        text_run(empty.as_bytes()),
    ));
    // A header declaring one rank fewer or one more, and no trailer.
    let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
    let text = write_app_trace(&app);
    let ranks = app.rank_count();
    let declared = format!("TRACE RANKS {ranks} ");
    let declare = |n: usize| text.replace(&declared, &format!("TRACE RANKS {n} "));
    for (what, broken) in [
        ("one rank fewer declared", declare(ranks - 1)),
        ("one rank more declared", declare(ranks + 1)),
        ("no trailer", text.replace("END_TRACE\n", "")),
    ] {
        cases.push((what.to_string(), text_run(broken.as_bytes())));
    }
    // An extra section past the declared one, holding a malformed record.
    let extra = malformed(&trace_with_sections(&[7, cap + 3]), 1, cap)
        .replace("TRACE RANKS 2 ", "TRACE RANKS 1 ");
    let what = "an extra section holding a malformed record";
    cases.push((what.to_string(), text_run(extra.as_bytes())));
    // Malformed records in two sections: the first one's error, whichever
    // worker meets its own first.
    let sections = trace_with_sections(&[40, 30, 50, 20, 60]);
    let twice = malformed(&malformed(&sections, 3, 2), 1, 17);
    let what = "malformed records in sections 1 and 3";
    cases.push((what.to_string(), text_run(twice.as_bytes())));
    // A section ended by `END_RANK` and a trailing token, which the
    // grammar reads as `END_RANK`, in front of sections other workers own.
    let trailing = sections.replacen("END_RANK\n", "END_RANK 7 extra\n", 1);
    let what = "END_RANK with a trailing token";
    cases.push((what.to_string(), text_run(trailing.as_bytes())));
    check(cases, &TEXT_HOSTILE);
}

/// `container` with the declared rank count of its preamble set to
/// `declared`; the count is the preamble payload's last byte (a varint
/// under 128), and the frame's CRC is made to match.
fn declaring(container: &[u8], declared: u8) -> Vec<u8> {
    // File header, then the PREAMBLE frame: kind, codec, payload length,
    // CRC, payload.
    let mut bytes = container.to_vec();
    let len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let payload = 16..16 + len;
    assert!(bytes[payload.end - 1] < 0x80, "a one-byte count");
    bytes[payload.end - 1] = declared;
    let crc = crc32(&bytes[payload]);
    bytes[12..16].copy_from_slice(&crc.to_le_bytes());
    bytes
}

const CONTAINER_HOSTILE: [Expected; 5] = [
    // cut inside a chunk
    (
        "Container",
        "container truncated while reading chunk payload",
    ),
    // zero declared ranks
    ("Ok", "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] 93"),
    // one rank fewer declared
    ("Container", "rank sections: file declares 7, found 8"),
    // one rank more declared
    ("Container", "rank sections: file declares 9, found 8"),
    // no trailer
    (
        "Container",
        "container truncated while reading index trailer",
    ),
];

#[test]
fn hostile_containers_give_the_same_error_or_reduction() {
    let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
    let bytes = encode_app_container(&app, ChunkSpec::with_segments(8));
    let ranks = u8::try_from(app.rank_count()).unwrap();
    let empty = AppTrace {
        ranks: Vec::new(),
        ..app.clone()
    };
    let cases = [
        ("cut inside a chunk", bytes[..bytes.len() / 2].to_vec()),
        (
            "zero declared ranks",
            encode_app_container(&empty, ChunkSpec::default()),
        ),
        ("one rank fewer declared", declaring(&bytes, ranks - 1)),
        ("one rank more declared", declaring(&bytes, ranks + 1)),
        ("no trailer", bytes[..bytes.len() - 12].to_vec()),
    ];
    // A container whose index trailer cannot be read gives one worker's
    // outcome on two, too.
    for (what, bytes) in [&cases[0], &cases[4]] {
        let mut path = std::env::temp_dir();
        path.push(format!("decode_ahead_{}_{what}.trc", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        let sharded = reduce_container_file(&reducer(), &path, 2);
        let _ = std::fs::remove_file(&path);
        assert_eq!(outcome(&sharded), outcome(&container_run(bytes)), "{what}");
    }
    let runs = cases.map(|(what, bytes)| (what.to_string(), container_run(&bytes)));
    check(runs.into_iter().collect(), &CONTAINER_HOSTILE);
}
