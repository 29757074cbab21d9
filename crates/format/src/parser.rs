//! Pull readers for the text format, a rank section at a time.
//!
//! [`AppReader`] reads a full trace and [`ReducedReader`] a reduced one,
//! from any [`BufRead`] source, without ever holding more than one block of
//! the file in memory.  They are the only text readers: the whole-trace
//! parsers in [`crate::parse`] collect what they yield from memory, and the
//! `trace_stream` crate reduces and converts what [`AppReader`] yields from
//! a file.  Both open with one header routine and close with one rank-count
//! check, and are generic over their error, which is built from the
//! source's [`io::Error`]s and the text's [`FormatError`]s ([`ReadError`]).
//!
//! Lines are not copied out of the input: the reader owns one block buffer,
//! refills it with plain `read` calls, finds line ends a word at a time and
//! hands each trimmed line to the byte grammar as a slice of that buffer.
//!
//! Inside a rank section, [`AppReader`] decodes records a batch at a time,
//! as the container reader decodes a chunk: a record line starts a batch of
//! up to [`BATCH_RECORDS`] records, which ends early at the first line that
//! is not a record.  That line goes back to the reader, to be read again by
//! the next call, so items, errors and line numbers are the ones a
//! record-at-a-time parser gives, in the same order.

use std::io::{self, BufRead, Seek, SeekFrom};
use std::marker::PhantomData;
use std::ops::Range;

use trace_model::{
    AppItem, Rank, ReducedRankTrace, Segment, SegmentExec, StoredSegment, Time, TraceRecord,
};
use trace_obs::{ObsShard, SpanStart, Stage};

use crate::error::FormatError;
use crate::record::{
    context_ref, event_fields, meaningful_line, parse_app_body_line, plain_record_line,
    unexpected_record, AppBodyLine, Cursor, HeaderBuilder, TraceTables,
};
use crate::write::{APP_HEADER, REDUCED_HEADER};

/// Size of the block buffer: large enough that refills (one `read` and one
/// move of the unfinished line to the front) are rare next to line parsing.
const BLOCK_BYTES: usize = 128 * 1024;

/// The longest line, terminator included, the reader accepts.  The block
/// buffer grows towards this bound only when a single line does not fit it;
/// input without newlines is a typed error, not unbounded memory.
const MAX_LINE_BYTES: usize = 1 << 20;

/// The most records one batch holds: a record line in a rank section has
/// the lines that follow it parsed too, up to this many records in all.
pub const BATCH_RECORDS: usize = 2048;

/// `STORED … <n>` announces `n` EVENT lines; no more than this many slots
/// are reserved on the header's word alone.
const MAX_RESERVED_EVENTS: usize = 4096;

/// The error a text reader returns: it is built from the source's I/O
/// failures (a line that is not UTF-8 is one, as `read_line` made it) and
/// from what is wrong with the text.
pub trait ReadError: From<io::Error> + From<FormatError> {}

impl<E: From<io::Error> + From<FormatError>> ReadError for E {}

/// Index of the first `\n` in `haystack`, examined eight bytes at a time.
#[inline]
fn find_newline(haystack: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    let mut words = haystack.chunks_exact(8);
    let mut offset = 0;
    for word in words.by_ref() {
        // A byte of `x` is zero exactly where the input holds `\n`; the
        // subtraction borrows only out of zero bytes, so the lowest flagged
        // byte is the first newline (higher flags may be borrow artefacts).
        let x = u64::from_le_bytes(*word.first_chunk::<8>()?) ^ (ONES * u64::from(b'\n'));
        let zeros = x.wrapping_sub(ONES) & !x & HIGHS;
        if zeros != 0 {
            return Some(offset + (zeros.trailing_zeros() / 8) as usize);
        }
        offset += 8;
    }
    let tail = words.remainder().iter().position(|&b| b == b'\n')?;
    Some(offset + tail)
}

/// The trailer's check, shared by both readers: the rank count the header
/// declares against the rank sections read.
fn check_rank_count(tables: &TraceTables, found: usize) -> Result<(), FormatError> {
    if found == tables.declared_ranks {
        return Ok(());
    }
    Err(FormatError::structural(format!(
        "header declares {} ranks but {found} rank sections were found",
        tables.declared_ranks
    )))
}

/// Reads meaningful lines (blank and `#`-comment lines skipped) from a
/// source, tracking 1-based line numbers.  Lines are slices of one block
/// buffer; nothing is copied per line.
struct LineReader<R, E> {
    inner: R,
    /// Unread input is `buf[start..filled]`.
    buf: Vec<u8>,
    start: usize,
    filled: usize,
    eof: bool,
    line_no: usize,
    /// The raw line last returned, and whether to return it once more.
    last: Range<usize>,
    replay: bool,
    /// Offset in the input of `buf[0]`.
    origin: u64,
    error: PhantomData<fn() -> E>,
}

impl<R: BufRead, E: ReadError> LineReader<R, E> {
    fn new(inner: R) -> Self {
        LineReader {
            inner,
            buf: vec![0; BLOCK_BYTES],
            start: 0,
            filled: 0,
            eof: false,
            line_no: 0,
            last: 0..0,
            replay: false,
            origin: 0,
            error: PhantomData,
        }
    }

    /// Offset in the input of the line last returned.
    fn line_offset(&self) -> u64 {
        self.origin + self.last.start as u64
    }

    /// Reads the magic line, which must be `magic`, and the header tables.
    /// The line that ends the header is left to be read again, as the
    /// first of the body.
    fn header(&mut self, magic: &str) -> Result<TraceTables, E> {
        self.next_line("header", |line_no, first| {
            if first == magic.as_bytes() {
                return Ok(());
            }
            let first = String::from_utf8_lossy(first);
            let message = format!("expected header {magic:?}, found {first:?}");
            Err(FormatError::at(line_no, message))
        })?;
        let mut builder = HeaderBuilder::new();
        while self.next_line(builder.expecting(), |line_no, line| {
            builder.feed(line_no, line)
        })? {}
        self.replay = true;
        Ok(builder.finish()?)
    }

    /// Advances to the next meaningful line and returns what `parse` makes
    /// of its number and trimmed text; the end of input is an error naming
    /// what the caller was `expecting`.
    fn next_line<T>(
        &mut self,
        expecting: &str,
        parse: impl FnOnce(usize, &[u8]) -> Result<T, FormatError>,
    ) -> Result<T, E> {
        let Some(parsed) = self.next_meaningful(parse)? else {
            return Err(FormatError::structural(format!(
                "unexpected end of input, expected {expecting}"
            ))
            .into());
        };
        Ok(parsed?)
    }

    /// Advances to the next meaningful line and returns what `parse` makes
    /// of its number and trimmed text, or `None` at the end of input.  Line
    /// classification is the shared rule in
    /// [`crate::record::meaningful_line`]; a line with non-ASCII bytes —
    /// record or comment — must be UTF-8, as `read_line` demanded.
    fn next_meaningful<T>(
        &mut self,
        parse: impl FnOnce(usize, &[u8]) -> T,
    ) -> Result<Option<T>, E> {
        while let Some(raw) = self.next_raw()? {
            let raw = self.buf.get(raw).unwrap_or_default();
            if !raw.is_ascii() && std::str::from_utf8(raw).is_err() {
                // The error `BufRead::read_line` gives for such a line.
                let message = "stream did not contain valid UTF-8";
                return Err(io::Error::new(io::ErrorKind::InvalidData, message).into());
            }
            if let Some(line) = meaningful_line(raw) {
                return Ok(Some(parse(self.line_no, line)));
            }
        }
        Ok(None)
    }

    /// Passes the plain record lines (`plain_record_line`) at the front of
    /// the block, which [`LineReader::next_meaningful`] would pass one call
    /// each, and counts their line numbers.  Stops before any other line,
    /// before a line the block does not hold whole or that ends at or past
    /// input offset `end`, and at once if a line waits to be read again:
    /// those take the per-line path.
    fn pass_plain_records(&mut self, end: u64) {
        if self.replay {
            return;
        }
        let end = usize::try_from(end.saturating_sub(self.origin)).unwrap_or(usize::MAX);
        let unread = self.buf.get(self.start..self.filled.min(end));
        let unread = unread.unwrap_or_default();
        let (mut rest, mut lines) = (unread, 0);
        while let Some(at) = find_newline(rest) {
            let (Some(line), Some(after)) = (rest.get(..at), rest.get(at + 1..)) else {
                break;
            };
            if !plain_record_line(line) {
                break;
            }
            (rest, lines) = (after, lines + 1);
        }
        self.start += unread.len() - rest.len();
        self.line_no += lines;
    }

    /// Advances past the next line of input and returns its range in `buf`,
    /// terminator excluded, or `None` at end of input.  A line the block
    /// holds whole is found inline, which is what lets a batch's loop run
    /// without a call per line; a line that needs a refill takes the call.
    #[inline]
    fn next_raw(&mut self) -> Result<Option<Range<usize>>, E> {
        if std::mem::take(&mut self.replay) {
            return Ok(Some(self.last.clone()));
        }
        let unread = self.buf.get(self.start..self.filled).unwrap_or_default();
        let Some(at) = find_newline(unread) else {
            return self.next_raw_refilling();
        };
        let end = self.start + at;
        self.line_no += 1;
        self.last = self.start..end;
        self.start = end + 1;
        Ok(Some(self.last.clone()))
    }

    /// `next_raw` for a line the block does not hold whole.
    #[inline(never)]
    fn next_raw_refilling(&mut self) -> Result<Option<Range<usize>>, E> {
        // `buf[start..scanned]` is known to hold no newline.
        let mut scanned = self.start;
        let end = loop {
            let unread = self.buf.get(scanned..self.filled).unwrap_or_default();
            if let Some(at) = find_newline(unread) {
                break scanned + at;
            }
            if self.eof {
                if self.start == self.filled {
                    return Ok(None);
                }
                break self.filled;
            }
            scanned = self.filled - self.start;
            self.refill()?;
        };
        self.line_no += 1;
        self.last = self.start..end;
        self.start = (end + 1).min(self.filled);
        Ok(Some(self.last.clone()))
    }

    /// Moves the unfinished line to the front of the buffer and reads more
    /// input behind it, growing the buffer only if that line fills it.
    fn refill(&mut self) -> Result<(), E> {
        self.origin += self.start as u64;
        self.buf.copy_within(self.start..self.filled, 0);
        self.filled -= self.start;
        self.start = 0;
        if self.filled == self.buf.len() {
            if self.filled >= MAX_LINE_BYTES {
                let message = format!("line exceeds {MAX_LINE_BYTES} bytes");
                return Err(FormatError::at(self.line_no + 1, message).into());
            }
            self.buf.resize((self.filled * 2).min(MAX_LINE_BYTES), 0);
        }
        let free = self.buf.get_mut(self.filled..).unwrap_or_default();
        let read = loop {
            match self.inner.read(free) {
                Ok(read) => break read,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        };
        self.eof = read == 0;
        self.filled += read;
        Ok(())
    }
}

impl<R: BufRead + Seek, E: ReadError> LineReader<R, E> {
    /// Moves to input offset `to`, which the next line read starts at.
    fn seek(&mut self, to: u64) -> Result<(), E> {
        self.inner.seek(SeekFrom::Start(to))?;
        (self.origin, self.start, self.filled, self.eof) = (to, 0, 0, false);
        self.replay = false;
        Ok(())
    }
}

#[derive(Clone, Copy, Debug)]
enum State {
    Body,
    InRank(Rank),
    Done,
}

impl State {
    /// What the next line has to be, for end-of-input error messages.
    fn expecting(self) -> &'static str {
        match self {
            State::InRank(_) => "rank records or END_RANK",
            State::Body | State::Done => "RANK or END_TRACE",
        }
    }
}

/// Pull reader for the full-trace text format over any [`BufRead`] source.
///
/// Construction parses the magic line and the header tables; each
/// [`AppReader::next_item`] call then yields one rank boundary or record.
/// `Ok(None)` means the `END_TRACE` trailer was reached and the declared
/// rank count matched.  Records are parsed a batch at a time (see the
/// module docs); [`AppReader::take_records`] hands over the rest of the
/// current batch at once.
pub struct AppReader<R, E> {
    lines: LineReader<R, E>,
    tables: TraceTables,
    state: State,
    ranks_seen: usize,
    /// Bytes passed unparsed while resyncing, over every range.
    passed: u64,
    /// The records of the current batch; `batch[next..]` have not been
    /// handed out yet.  One buffer, reused from batch to batch.
    batch: Vec<TraceRecord>,
    next: usize,
    /// What the reader failed with while filling the batch, returned once
    /// the records before it are handed out.
    held: Option<E>,
    obs: ObsShard,
}

impl<R: BufRead, E: ReadError> AppReader<R, E> {
    /// Reads the magic line and header tables from `reader`.
    pub fn new(reader: R) -> Result<Self, E> {
        let mut lines = LineReader::new(reader);
        let tables = lines.header(APP_HEADER)?;
        Ok(Self::reading(lines, tables))
    }

    /// A reader of the body of a trace whose header gave `tables`, from
    /// where `reader` is; [`AppReader::seek_range`] places it.
    pub fn with_tables(reader: R, tables: TraceTables) -> Self {
        Self::reading(LineReader::new(reader), tables)
    }

    fn reading(lines: LineReader<R, E>, tables: TraceTables) -> Self {
        AppReader {
            lines,
            tables,
            state: State::Body,
            ranks_seen: 0,
            passed: 0,
            batch: Vec::new(),
            next: 0,
            held: None,
            obs: ObsShard::disabled(),
        }
    }

    /// Offset in the input of the line read last: after [`AppReader::new`],
    /// the line that ended the header, where the body starts.
    pub fn offset(&self) -> u64 {
        self.lines.line_offset()
    }

    /// The bytes every [`AppReader::seek_range`] so far passed without
    /// parsing them.
    pub fn passed_bytes(&self) -> u64 {
        self.passed
    }

    /// Attaches an observability shard: each batch of records is parsed
    /// under one [`Stage::Parse`] span.  The shard flushes to its recorder
    /// when the reader is dropped.
    pub fn set_obs(&mut self, obs: ObsShard) {
        self.obs = obs;
    }

    /// The header tables (program name, declared rank count, region and
    /// context names).
    pub fn tables(&self) -> &TraceTables {
        &self.tables
    }

    /// Number of complete rank sections seen so far.
    pub fn ranks_seen(&self) -> usize {
        self.ranks_seen
    }

    /// Pulls the next item, or `Ok(None)` once the trailer was consumed.
    pub fn next_item(&mut self) -> Result<Option<AppItem>, E> {
        if let Some(record) = self.batch.get(self.next) {
            self.next += 1;
            return Ok(Some(AppItem::Record(*record)));
        }
        if let Some(error) = self.held.take() {
            return Err(error);
        }
        let in_rank = matches!(self.state, State::InRank(_));
        if matches!(self.state, State::Done) {
            return Ok(None);
        }

        let span = self.obs.start();
        let (tables, expecting) = (&self.tables, self.state.expecting());
        let parsed = self.lines.next_line(expecting, |line_no, line| {
            parse_app_body_line(tables, line_no, line, in_rank)
        })?;

        match parsed {
            AppBodyLine::RankStart(rank) => {
                self.state = State::InRank(rank);
                Ok(Some(AppItem::RankStart(rank)))
            }
            AppBodyLine::Record(record) => {
                self.fill_batch(record, span);
                Ok(Some(AppItem::Record(record)))
            }
            AppBodyLine::EndRank => {
                // `parse_app_body_line` only yields END_RANK when told a
                // rank section is open; report a parser bug as a structural
                // error rather than trusting the invariant with a panic.
                let State::InRank(rank) = self.state else {
                    return Err(FormatError::structural("END_RANK outside a rank section").into());
                };
                self.state = State::Body;
                self.ranks_seen += 1;
                Ok(Some(AppItem::RankEnd(rank)))
            }
            AppBodyLine::EndTrace => {
                check_rank_count(&self.tables, self.ranks_seen)?;
                self.state = State::Done;
                Ok(None)
            }
        }
    }

    /// Reads the next line between rank sections.  Returns the offset of
    /// the `RANK` line there, left to be read again as its section's start,
    /// or `None` at the trailer.  Unlike [`AppReader::next_item`], this
    /// leaves the trailer's rank-count check to the caller: a reader of a
    /// byte range ([`AppReader::seek_range`]) has not seen every section.
    pub fn section_ahead(&mut self) -> Result<Option<u64>, E> {
        if !matches!(self.state, State::Body) {
            return Ok(None);
        }
        let (tables, expecting) = (&self.tables, self.state.expecting());
        let parsed = self.lines.next_line(expecting, |line_no, line| {
            parse_app_body_line(tables, line_no, line, false)
        })?;
        if let AppBodyLine::RankStart(_) = parsed {
            self.lines.replay = true;
            return Ok(Some(self.lines.line_offset()));
        }
        self.state = State::Done;
        Ok(None)
    }

    /// Makes `first` the first record of a new batch and parses the record
    /// lines after it into the batch, as one [`Stage::Parse`] span from
    /// `span`.
    fn fill_batch(&mut self, first: TraceRecord, span: SpanStart) {
        self.batch.clear();
        self.batch.push(first);
        self.next = 1;
        let tables = &self.tables;
        while self.batch.len() < BATCH_RECORDS {
            let line = self
                .lines
                .next_meaningful(|line_no, line| parse_app_body_line(tables, line_no, line, true));
            match line {
                Ok(Some(Ok(AppBodyLine::Record(record)))) => self.batch.push(record),
                // `END_RANK` or a line in error goes back to the reader: the
                // next call meets it, and `skip_current_rank` passes over a
                // malformed record as it would have without the batch.
                Ok(Some(_)) => {
                    self.lines.replay = true;
                    break;
                }
                // The next call reports the end of input.
                Ok(None) => break,
                // The reader consumed what failed; the error waits for the
                // records before it.
                Err(error) => {
                    self.held = Some(error);
                    break;
                }
            }
        }
        self.obs.end(Stage::Parse, span);
    }

    /// The records of the current batch that [`AppReader::next_item`] has
    /// not yielded yet, handed out at once — they follow the record it
    /// returned last.  Empty once the batch is used up: the next batch is
    /// parsed by the next `next_item` call.
    pub fn take_records(&mut self) -> &[TraceRecord] {
        let rest = self.batch.get(self.next..).unwrap_or_default();
        self.next = self.batch.len();
        rest
    }

    /// Skips the remainder of the open rank section without parsing its
    /// record payloads (the sharded driver uses this to pass over ranks
    /// owned by other workers).  Returns the skipped rank.
    ///
    /// Section structure is still enforced — a stray `RANK`/`END_TRACE`
    /// inside the section is an error, and the section ends where the
    /// grammar ends it, at a line whose first token is `END_RANK` — but
    /// record lines are not validated.  Plain record lines
    /// (`plain_record_line`) are passed a block at a time, with no call
    /// per line; every other line takes the per-line rule, so errors and
    /// line numbers are the ones a line-at-a-time skip gives.  Records of
    /// the current batch not yet handed out are dropped; an error held
    /// behind them is returned.
    pub fn skip_current_rank(&mut self) -> Result<Rank, E> {
        let State::InRank(rank) = self.state else {
            return Err(
                FormatError::structural("skip_current_rank called outside a rank section").into(),
            );
        };
        self.batch.clear();
        self.next = 0;
        if let Some(error) = self.held.take() {
            return Err(error);
        }
        let tables = &self.tables;
        let section_ended = |line_no, line: &[u8]| {
            if line.starts_with(b"RANK") || line == b"END_TRACE" {
                let line = String::from_utf8_lossy(line);
                let message = format!("unexpected record {line:?} inside a rank section");
                return Err(FormatError::at(line_no, message));
            }
            // The grammar's rule: `END_RANK` is the line's first token.
            let ended = line.starts_with(b"END_RANK")
                && matches!(
                    parse_app_body_line(tables, line_no, line, true),
                    Ok(AppBodyLine::EndRank)
                );
            Ok(ended)
        };
        let expecting = self.state.expecting();
        loop {
            self.lines.pass_plain_records(u64::MAX);
            if self.lines.next_line(expecting, section_ended)? {
                break;
            }
        }
        self.state = State::Body;
        self.ranks_seen += 1;
        Ok(rank)
    }
}

impl<R: BufRead + Seek, E: ReadError> AppReader<R, E> {
    /// Reads the rank sections whose `RANK` lines start in the byte range
    /// `range` of the body from now on.  `resync` unless `range.start` is
    /// where a line between sections starts (the body's start): the reader
    /// then moves to the first line that starts in the range and passes
    /// lines, as a skipped section's are passed, up to the first `RANK`
    /// line.  Returns that line's offset, the range's start without
    /// `resync`, or `None` if no `RANK` line starts in the range: its bytes
    /// are another range's.  The sections are read with
    /// [`AppReader::section_ahead`] and [`AppReader::next_item`], on past
    /// the range's end to finish the last, up to the first `RANK` line at
    /// or past its end.
    pub fn seek_range(&mut self, range: Range<u64>, resync: bool) -> Result<Option<u64>, E> {
        (self.state, self.held) = (State::Body, None);
        self.batch.clear();
        if !resync {
            self.lines.seek(range.start)?;
            return Ok(Some(range.start));
        }
        // The line that holds the byte before the range starts before it.
        self.lines.seek(range.start.saturating_sub(1))?;
        self.lines.next_raw()?;
        let found = loop {
            self.lines.pass_plain_records(range.end);
            let Some(raw) = self.lines.next_raw()? else {
                break None;
            };
            let at = self.lines.line_offset();
            if at >= range.end {
                break None;
            }
            let raw = self.lines.buf.get(raw).unwrap_or_default();
            if meaningful_line(raw).is_some_and(|line| line.starts_with(b"RANK")) {
                self.lines.replay = true;
                break Some(at);
            }
        };
        let stop = found.unwrap_or_else(|| {
            self.state = State::Done;
            (self.lines.origin + self.lines.start as u64).min(range.end)
        });
        self.passed += stop.saturating_sub(range.start);
        Ok(found)
    }
}

/// One record line of a reduced rank section, parsed.
enum ReducedLine {
    /// A `STORED` line and the number of `EVENT` lines it announces; its
    /// events are still to be read.
    Stored(StoredSegment, u64),
    Exec(SegmentExec),
}

/// Parses one line of a reduced rank section that holds `stored` stored
/// segments so far, `None` for its `END_RANK`: stored ids are dense (each
/// is its position), and an execution names a stored segment that exists.
fn parse_reduced_line(
    tables: &TraceTables,
    stored: usize,
    line_no: usize,
    line: &[u8],
) -> Result<Option<ReducedLine>, FormatError> {
    let cur = &mut Cursor::new(line_no, line);
    match cur.token() {
        Some(b"END_RANK") => Ok(None),
        Some(b"STORED") => {
            let id = cur.u32("stored segment id")?;
            if id as usize != stored {
                let message = format!("stored ids must be dense; expected {stored} got {id}");
                return Err(cur.error(message));
            }
            let represented = cur.u32("represented count")?;
            let context = context_ref(tables, cur)?;
            let end = cur.u64("segment end")?;
            let events = cur.u64("event count")?;
            let segment = Segment {
                context,
                start: Time::ZERO,
                end: Time::from_nanos(end),
                events: Vec::with_capacity((events as usize).min(MAX_RESERVED_EVENTS)),
            };
            let stored = StoredSegment {
                id,
                segment,
                represented,
            };
            Ok(Some(ReducedLine::Stored(stored, events)))
        }
        Some(b"EXEC") => {
            let segment = cur.u32("stored segment id")?;
            if segment as usize >= stored {
                let message = format!("execution references unknown stored segment {segment}");
                return Err(cur.error(message));
            }
            let start = Time::from_nanos(cur.u64("execution start")?);
            Ok(Some(ReducedLine::Exec(SegmentExec { segment, start })))
        }
        other => Err(unexpected_record(cur, other, true)),
    }
}

/// Pull reader for the reduced-trace text format over any [`BufRead`]
/// source: construction parses the magic line and the header tables, and
/// each [`ReducedReader::next_rank`] call yields one whole rank section.
/// `Ok(None)` means the `END_TRACE` trailer was reached and the declared
/// rank count matched.
pub struct ReducedReader<R, E> {
    lines: LineReader<R, E>,
    tables: TraceTables,
    ranks_seen: usize,
    done: bool,
}

impl<R: BufRead, E: ReadError> ReducedReader<R, E> {
    /// Reads the magic line and header tables from `reader`.
    pub fn new(reader: R) -> Result<Self, E> {
        let mut lines = LineReader::new(reader);
        let tables = lines.header(REDUCED_HEADER)?;
        Ok(ReducedReader {
            lines,
            tables,
            ranks_seen: 0,
            done: false,
        })
    }

    /// The header tables (program name, declared rank count, region and
    /// context names).
    pub fn tables(&self) -> &TraceTables {
        &self.tables
    }

    /// Reads the next rank section up to and including its `END_RANK`, or
    /// returns `Ok(None)` once the trailer was consumed.
    pub fn next_rank(&mut self) -> Result<Option<ReducedRankTrace>, E> {
        if self.done {
            return Ok(None);
        }
        let tables = &self.tables;
        let body = self.lines.next_line("RANK or END_TRACE", |line_no, line| {
            parse_app_body_line(tables, line_no, line, false)
        })?;
        // Outside a section the grammar yields a rank start or the trailer.
        let AppBodyLine::RankStart(rank) = body else {
            check_rank_count(tables, self.ranks_seen)?;
            self.done = true;
            return Ok(None);
        };
        let mut rank = ReducedRankTrace::new(rank);
        let stored_event = |line_no, line: &[u8]| {
            let cur = &mut Cursor::new(line_no, line);
            if !cur.token().is_some_and(|t| t.starts_with(b"EVENT")) {
                return Err(cur.error("expected EVENT line inside a STORED segment"));
            }
            event_fields(tables, cur)
        };
        let expecting = "STORED/EXEC records or END_RANK";
        while let Some(line) = self.lines.next_line(expecting, |line_no, line| {
            parse_reduced_line(tables, rank.stored.len(), line_no, line)
        })? {
            match line {
                ReducedLine::Exec(exec) => rank.execs.push(exec),
                ReducedLine::Stored(mut stored, events) => {
                    for _ in 0..events {
                        let event = self.lines.next_line("EVENT line", stored_event)?;
                        stored.segment.events.push(event);
                    }
                    rank.stored.push(stored);
                }
            }
        }
        self.ranks_seen += 1;
        Ok(Some(rank))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use trace_model::{AppTrace, RankTrace};
    use trace_sim::{SizePreset, Workload, WorkloadKind};

    use crate::write::write_app_trace;

    /// The two failures a reader has, kept apart as a caller would.
    #[derive(Debug)]
    enum TestError {
        Io(io::Error),
        Format(FormatError),
    }

    impl From<io::Error> for TestError {
        fn from(e: io::Error) -> Self {
            TestError::Io(e)
        }
    }

    impl From<FormatError> for TestError {
        fn from(e: FormatError) -> Self {
            TestError::Format(e)
        }
    }

    impl TestError {
        fn format(self) -> FormatError {
            match self {
                TestError::Format(e) => e,
                TestError::Io(e) => panic!("expected a format error, got {e}"),
            }
        }
    }

    type Reader<'a> = AppReader<Cursor<&'a [u8]>, TestError>;

    fn parser_for(text: &str) -> Reader<'_> {
        AppReader::new(Cursor::new(text.as_bytes())).expect("valid trace")
    }

    #[test]
    fn streamed_items_rebuild_the_exact_app_trace() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let text = write_app_trace(&app);
        let mut parser = parser_for(&text);
        let tables = parser.tables().clone();
        let mut rebuilt = AppTrace {
            name: tables.name.clone(),
            regions: tables.regions.clone(),
            contexts: tables.contexts.clone(),
            ranks: Vec::new(),
        };
        let mut open: Option<RankTrace> = None;
        while let Some(item) = parser.next_item().unwrap() {
            match item {
                AppItem::RankStart(rank) => open = Some(RankTrace::new(rank)),
                AppItem::Record(record) => open.as_mut().unwrap().push(record),
                AppItem::RankEnd(_) => rebuilt.ranks.push(open.take().unwrap()),
            }
        }
        assert_eq!(rebuilt, app);
        assert_eq!(parser.ranks_seen(), app.rank_count());
        // The stream is exhausted and stays exhausted.
        assert_eq!(parser.next_item().unwrap(), None);
    }

    #[test]
    fn skip_current_rank_passes_over_sections() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let text = write_app_trace(&app);
        let mut parser = parser_for(&text);
        let mut skipped = 0;
        while let Some(item) = parser.next_item().unwrap() {
            if let AppItem::RankStart(rank) = item {
                assert_eq!(parser.skip_current_rank().unwrap(), rank);
                skipped += 1;
            }
        }
        assert_eq!(skipped, app.rank_count());
    }

    #[test]
    fn errors_match_the_in_memory_parser() {
        let Err(err) = Reader::new(Cursor::new(b"BOGUS 9\n".as_slice())) else {
            panic!("bad magic line must fail");
        };
        assert_eq!(err.format().line, 1);

        let truncated = "TRACEFORMAT 1\nTRACE RANKS 1 NAME x\nRANK 0\n";
        let mut parser = parser_for(truncated);
        let err = loop {
            match parser.next_item() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("truncated input must fail"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.format().line, 0, "end of input is structural");

        let mismatch = "TRACEFORMAT 1\nTRACE RANKS 2 NAME x\nRANK 0\nEND_RANK\nEND_TRACE\n";
        let mut parser = parser_for(mismatch);
        let err = loop {
            match parser.next_item() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("rank-count mismatch must fail"),
                Err(e) => break e,
            }
        };
        let err = err.format();
        assert!(err.message.contains("rank sections"), "{err}");
    }

    #[test]
    fn the_batch_never_grows_past_its_cap() {
        let mut text = String::from("TRACEFORMAT 1\nTRACE RANKS 1 NAME x\nCONTEXT 0 main.1\n");
        text.push_str("RANK 0\n");
        for time in 0..10 * BATCH_RECORDS {
            text.push_str(&format!("SEG_BEGIN 0 {time}\n"));
        }
        text.push_str("END_RANK\nEND_TRACE\n");
        let mut parser = parser_for(&text);
        let mut records = 0;
        while let Some(item) = parser.next_item().unwrap() {
            if matches!(item, AppItem::Record(_)) {
                records += 1 + parser.take_records().len();
            }
            assert!(parser.batch.capacity() <= BATCH_RECORDS);
        }
        assert_eq!(records, 10 * BATCH_RECORDS);
    }

    #[test]
    fn newline_search_agrees_with_a_bytewise_scan() {
        let mut haystack = vec![b'x'; 41];
        assert_eq!(find_newline(&haystack), None);
        assert_eq!(find_newline(&[]), None);
        for at in (0..haystack.len()).rev() {
            // Bytes that differ from `\n` in one bit, and a later newline,
            // must not move the answer.
            haystack[at] = b'\n';
            for decoy in [0x0B, 0x8A, 0x0A ^ 0x01, 0x00, 0xFF] {
                if let Some(next) = haystack.get_mut(at + 1) {
                    *next = decoy;
                }
                assert_eq!(find_newline(&haystack), Some(at), "decoy {decoy:#x}");
                assert_eq!(find_newline(&haystack[at..]), Some(0));
            }
        }
    }

    #[test]
    fn a_line_beyond_the_cap_is_a_typed_error_and_the_buffer_stays_bounded() {
        // Lines up to the cap grow the buffer and parse …
        let long_comment = format!("# {}\n", "x".repeat(MAX_LINE_BYTES - 3));
        let fits = format!("TRACEFORMAT 1\n{long_comment}TRACE RANKS 0 NAME x\nEND_TRACE\n");
        let mut parser = parser_for(&fits);
        assert_eq!(parser.next_item().unwrap(), None);
        assert_eq!(parser.lines.buf.len(), MAX_LINE_BYTES);

        // … input that never ends its line is refused at the cap.
        let endless = format!(
            "TRACEFORMAT 1\nTRACE RANKS 1 NAME x\nRANK 0\n{}",
            "x".repeat(2 << 20)
        );
        let mut parser = parser_for(&endless);
        assert_eq!(
            parser.next_item().unwrap(),
            Some(AppItem::RankStart(Rank(0)))
        );
        let err = parser.next_item().unwrap_err().format();
        assert_eq!(err.line, 4);
        assert_eq!(err.message, format!("line exceeds {MAX_LINE_BYTES} bytes"));
        assert_eq!(parser.lines.buf.len(), MAX_LINE_BYTES);
        assert!(parser.lines.buf.capacity() <= 2 * MAX_LINE_BYTES);
        // The same from `skip_current_rank`, which rides the same reader.
        let mut parser = parser_for(&endless);
        parser.next_item().unwrap();
        let err = parser.skip_current_rank().unwrap_err();
        assert_eq!(err.format().line, 4);
    }

    #[test]
    fn lines_that_are_not_utf8_are_the_io_error_read_line_gave() {
        let head = b"TRACEFORMAT 1\nTRACE RANKS 1 NAME x\nREGION 0 r\nRANK 0\n";
        let bad_lines: [&[u8]; 3] = [b"EVENT 0 5 10 2 COMPUTE \xE9\n", b"# caf\xE9\n", b"  \xE9"];
        for bad in bad_lines {
            let bytes = [head, bad].concat();
            let mut parser = Reader::new(Cursor::new(&bytes[..])).unwrap();
            parser.next_item().unwrap();
            let TestError::Io(err) = parser.next_item().unwrap_err() else {
                panic!("{:?} must be an i/o error", String::from_utf8_lossy(bad));
            };
            // Exactly what `BufRead::read_line` reports.
            let mut line = String::new();
            let expected = Cursor::new(&b"\xE9\n"[..])
                .read_line(&mut line)
                .unwrap_err();
            assert_eq!(err.kind(), expected.kind());
            assert_eq!(err.to_string(), expected.to_string());
        }
    }

    #[test]
    fn comments_and_blank_lines_are_skipped_with_correct_numbering() {
        let text = "\
TRACEFORMAT 1

# a comment
TRACE RANKS 1 NAME x
CONTEXT 0 main.1
RANK 0
SEG_BEGIN 0 0
SEG_END 0 5
END_RANK
END_TRACE
";
        let mut parser = parser_for(text);
        let mut records = 0;
        while let Some(item) = parser.next_item().unwrap() {
            if matches!(item, AppItem::Record(_)) {
                records += 1;
            }
        }
        assert_eq!(records, 2);
    }

    #[test]
    fn a_reduced_reader_yields_one_whole_rank_per_call() {
        let text = "\
TRACEFORMAT_REDUCED 1
TRACE RANKS 2 NAME r
REGION 0 do_work
CONTEXT 0 main.1
RANK 0
STORED 0 2 0 50 1
EVENT 0 0 10 0 COMPUTE
EXEC 0 100
EXEC 0 200
END_RANK
RANK 1
END_RANK
END_TRACE
";
        let mut reader: ReducedReader<_, TestError> =
            ReducedReader::new(Cursor::new(text.as_bytes())).unwrap();
        assert_eq!(reader.tables().declared_ranks, 2);
        let first = reader.next_rank().unwrap().unwrap();
        assert_eq!((first.rank, first.stored.len()), (Rank(0), 1));
        assert_eq!(first.stored[0].segment.events.len(), 1);
        assert_eq!(first.execs.len(), 2);
        let second = reader.next_rank().unwrap().unwrap();
        assert_eq!((second.rank, second.stored.len()), (Rank(1), 0));
        assert!(reader.next_rank().unwrap().is_none());
        // The trailer stays consumed.
        assert!(reader.next_rank().unwrap().is_none());

        // One rank short: the count is checked at the trailer, after the
        // sections before it were handed out.
        let short = text.replace("RANKS 2", "RANKS 3");
        let mut reader: ReducedReader<_, TestError> =
            ReducedReader::new(Cursor::new(short.as_bytes())).unwrap();
        assert!(reader.next_rank().unwrap().is_some());
        assert!(reader.next_rank().unwrap().is_some());
        let err = reader.next_rank().unwrap_err().format();
        assert_eq!(
            err.message,
            "header declares 3 ranks but 2 rank sections were found"
        );
    }
}
