//! Where a run's ranks go, one at a time, as they are worked on.
//!
//! Every reduction hands each reduced rank to a [`RankSink`] in two steps:
//! the worker that reduced it turns it into a section
//! ([`RankSink::encode`]), and the calling thread takes the sections in
//! rank order ([`Sink::stitch`]).  There are two sinks:
//!
//! * [`Collect`] assembles the [`ReducedAppTrace`] the library's entry
//!   points return;
//! * [`TraceWriter`] encodes each rank on its worker, as a text section
//!   or a container section, and writes it into the output as soon as it
//!   is next.  The reduced trace is never assembled: a worker holds one
//!   rank's reduced state at a time, and the execution log goes out as it
//!   is made.
//!
//! A [`TraceWriter`] of a full trace is a conversion's whole stage: its
//! workers copy each section's records from the source straight into
//! their encoder, with no record buffer between.

use std::io::Write;

use trace_container::{ChunkSpec, ChunkWriter, EncodedSection, PayloadKind, SectionEncoder};
use trace_format::{
    write_app_header, write_app_records, write_rank_end, write_rank_start, write_reduced_header,
    write_reduced_rank, write_trailer,
};
use trace_model::{ReducedAppTrace, ReducedRankTrace, TraceTables};
use trace_obs::{ObsShard, Recorder};

use crate::error::StreamError;
use crate::reduce::{copy_records, open_section, Reduce, StreamStats};
use crate::shard::{Ran, Stage};
use crate::source::AppItemSource;

/// Where a run's sections go: each worker makes the sections it claims
/// with a state of its own, and the calling thread takes them in rank
/// order.  A [`Stage`] makes a section from its source, a [`RankSink`]
/// from a reduced rank.
pub(crate) trait Sink {
    /// What each worker keeps from section to section.
    type Worker: Send;
    /// What a worker hands the calling thread for one section.
    type Section: Send;

    /// A worker's state, recording into `recorder`.
    fn worker(&self, recorder: &Recorder) -> Self::Worker;

    /// Takes the next section in rank order, on the calling thread.
    fn stitch(&mut self, section: Self::Section) -> Result<(), StreamError>;
}

/// A reduction's output: each rank, just reduced, encoded on its worker.
pub(crate) trait RankSink: Sink {
    /// Turns `rank` into its section, on the worker.
    fn encode(
        worker: &mut Self::Worker,
        rank: ReducedRankTrace,
    ) -> Result<Self::Section, StreamError>;
}

/// The sink that assembles the reduced trace in memory.
pub(crate) struct Collect(pub(crate) ReducedAppTrace);

impl Collect {
    /// An empty reduced trace under `tables`.
    pub(crate) fn open(tables: &TraceTables) -> Result<Self, StreamError> {
        Ok(Collect(tables.reduced_trace()))
    }
}

impl Sink for Collect {
    type Worker = ();
    type Section = ReducedRankTrace;

    fn worker(&self, _: &Recorder) {}

    fn stitch(&mut self, rank: ReducedRankTrace) -> Result<(), StreamError> {
        self.0.ranks.push(rank);
        Ok(())
    }
}

impl RankSink for Collect {
    fn encode(_: &mut (), rank: ReducedRankTrace) -> Result<ReducedRankTrace, StreamError> {
        Ok(rank)
    }
}

/// How a trace is written.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutputFormat {
    /// The line-oriented text format.
    Text,
    /// A chunked v2 container under the spec.
    Container(ChunkSpec),
}

/// The sink that writes each rank into `out` as it comes: the header when
/// it opens, a section per rank, and the trailer (and, for a container,
/// the index) when it finishes.  Each stitch, and the finish, is one
/// [`trace_obs::Stage::Store`] span: the serial tail of the run.
pub(crate) struct TraceWriter<W: Write> {
    out: Output<W>,
    /// The trace's name, from its header.
    name: String,
    obs: ObsShard,
}

enum Output<W: Write> {
    Text(W),
    Container(Box<ChunkWriter<W>>),
}

/// A rank encoded on its worker.
pub(crate) enum Encoded {
    Text(Vec<u8>),
    Container(EncodedSection),
}

impl<W: Write> TraceWriter<W> {
    /// Writes the header of a trace of `kind` under `tables` into `out`.
    pub(crate) fn open(
        mut out: W,
        format: OutputFormat,
        kind: PayloadKind,
        tables: &TraceTables,
        recorder: &Recorder,
    ) -> Result<Self, StreamError> {
        let (name, ranks) = (&tables.name, tables.declared_ranks);
        let (regions, contexts) = (tables.regions.names(), tables.contexts.names());
        let out = match format {
            OutputFormat::Text => match kind {
                PayloadKind::App => write_app_header(&mut out, name, ranks, regions, contexts),
                PayloadKind::Reduced => {
                    write_reduced_header(&mut out, name, ranks, regions, contexts)
                }
            }
            .map(|()| Output::Text(out)),
            OutputFormat::Container(spec) => match kind {
                PayloadKind::App => ChunkWriter::app(out, name, ranks, regions, contexts, spec),
                PayloadKind::Reduced => {
                    ChunkWriter::reduced(out, name, ranks, regions, contexts, spec)
                }
            }
            .map(|writer| Output::Container(Box::new(writer))),
        };
        Ok(TraceWriter {
            out: out.map_err(StreamError::Sink)?,
            name: name.clone(),
            obs: recorder.shard(),
        })
    }

    /// Writes what ends the file, and returns the sink.
    pub(crate) fn finish(mut self) -> Result<W, StreamError> {
        let span = self.obs.start();
        let out = match self.out {
            Output::Text(mut out) => write_trailer(&mut out).map(|()| out),
            Output::Container(writer) => writer.finish(),
        };
        self.obs.end(trace_obs::Stage::Store, span);
        out.map_err(StreamError::Sink)
    }
}

impl<W: Write> Sink for TraceWriter<W> {
    /// A container's section encoder; text needs none.
    type Worker = Option<SectionEncoder>;
    type Section = Encoded;

    fn worker(&self, recorder: &Recorder) -> Option<SectionEncoder> {
        match &self.out {
            Output::Text(_) => None,
            Output::Container(writer) => Some(writer.section_encoder(recorder.shard())),
        }
    }

    fn stitch(&mut self, section: Encoded) -> Result<(), StreamError> {
        let span = self.obs.start();
        let stitched = match (&mut self.out, section) {
            (Output::Text(out), Encoded::Text(bytes)) => out.write_all(&bytes),
            (Output::Container(writer), Encoded::Container(section)) => writer.stitch(section),
            _ => return Err(StreamError::Protocol("a section of the other format")),
        };
        self.obs.end(trace_obs::Stage::Store, span);
        stitched.map_err(StreamError::Sink)
    }
}

impl<W: Write> RankSink for TraceWriter<W> {
    fn encode(
        encoder: &mut Option<SectionEncoder>,
        rank: ReducedRankTrace,
    ) -> Result<Encoded, StreamError> {
        let encoded = match encoder {
            Some(encoder) => encoder
                .encode(|writer| writer.reduced_rank(&rank))
                .map(Encoded::Container),
            None => {
                let mut bytes = Vec::new();
                write_reduced_rank(&mut bytes, &rank).map(|()| Encoded::Text(bytes))
            }
        };
        encoded.map_err(StreamError::Sink)
    }
}

impl<W: Write> Stage for TraceWriter<W> {
    /// Copies the section's records from `source` into its encoding as
    /// they are read.
    fn section<S: AppItemSource>(
        encoder: &mut Option<SectionEncoder>,
        source: &mut S,
        _: usize,
    ) -> Result<Encoded, StreamError> {
        let rank = open_section(source)?;
        let Some(encoder) = encoder else {
            let mut bytes = Vec::new();
            write_rank_start(&mut bytes, rank).map_err(StreamError::Sink)?;
            copy_records(source, |records| {
                write_app_records(&mut bytes, records).map_err(StreamError::Sink)
            })?;
            write_rank_end(&mut bytes).map_err(StreamError::Sink)?;
            return Ok(Encoded::Text(bytes));
        };
        let section = encoder.encode(|writer| {
            writer.begin_rank(rank).map_err(StreamError::Sink)?;
            copy_records(source, |records| {
                let written = records.iter().try_for_each(|record| writer.record(record));
                written.map_err(StreamError::Sink)
            })?;
            writer.end_rank().map_err(StreamError::Sink)
        });
        section.map(Encoded::Container)
    }
}

/// The outcome of a reduction written as it went: the sink, and what the
/// caller would otherwise read off the reduced trace.
#[derive(Debug)]
pub struct WrittenReduction<W> {
    /// The sink the reduced trace went into, finished.
    pub out: W,
    /// The trace's name, from its header.
    pub name: String,
    /// Instrumentation counters, with the output's totals.
    pub stats: StreamStats,
}

impl<W: Write> WrittenReduction<W> {
    /// Finishes the file a reduction wrote.
    pub(crate) fn finished(run: Ran<Reduce<'_, TraceWriter<W>>>) -> Result<Self, StreamError> {
        let (writer, stats) = Reduce::finished(run);
        let name = writer.name.clone();
        let out = writer.finish()?;
        Ok(WrittenReduction { out, name, stats })
    }
}
