//! Where a reduction's ranks go, one at a time, as they are reduced.
//!
//! Every driver hands each reduced rank to a [`RankSink`] in two steps: the
//! worker that reduced it turns it into a section ([`RankSink::encode`]),
//! and the calling thread takes the sections in rank order
//! ([`RankSink::stitch`]).  There are two sinks:
//!
//! * [`Collect`] assembles the [`ReducedAppTrace`] the library's entry
//!   points return;
//! * [`ReducedWriter`] encodes each rank on its worker, as a text section
//!   or a container section, and writes it into the output as soon as it
//!   is next.  The reduced trace is never assembled: a worker holds one
//!   rank's reduced state at a time, and the execution log goes out as it
//!   is made.

use std::io::Write;

use trace_container::{ChunkSpec, ChunkWriter, EncodedSection, SectionEncoder};
use trace_format::{write_reduced_header, write_reduced_rank, write_trailer};
use trace_model::{ReducedAppTrace, ReducedRankTrace, TraceTables};
use trace_obs::{ObsShard, Recorder, Stage};

use crate::error::StreamError;
use crate::reduce::StreamStats;

/// The two halves of a reduction's output: one encoder per worker, and
/// the calling thread's stitch in rank order.
pub(crate) trait RankSink {
    /// What each worker keeps from rank to rank.
    type Encoder: Send;
    /// What a worker hands the calling thread for one rank.
    type Section: Send;

    /// A worker's encoder, recording into `recorder`.
    fn encoder(&self, recorder: &Recorder) -> Self::Encoder;

    /// Turns `rank`, just reduced, into its section, on the worker.
    fn encode(
        encoder: &mut Self::Encoder,
        rank: ReducedRankTrace,
    ) -> Result<Self::Section, StreamError>;

    /// Takes the next section in rank order, on the calling thread.
    fn stitch(&mut self, section: Self::Section) -> Result<(), StreamError>;
}

/// The sink that assembles the reduced trace in memory.
pub(crate) struct Collect(pub(crate) ReducedAppTrace);

impl Collect {
    /// An empty reduced trace under `tables`.
    pub(crate) fn open(tables: &TraceTables) -> Result<Self, StreamError> {
        Ok(Collect(tables.reduced_trace()))
    }
}

impl RankSink for Collect {
    type Encoder = ();
    type Section = ReducedRankTrace;

    fn encoder(&self, _: &Recorder) {}

    fn encode(_: &mut (), rank: ReducedRankTrace) -> Result<ReducedRankTrace, StreamError> {
        Ok(rank)
    }

    fn stitch(&mut self, rank: ReducedRankTrace) -> Result<(), StreamError> {
        self.0.ranks.push(rank);
        Ok(())
    }
}

/// How a reduced trace is written.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReducedFormat {
    /// The line-oriented text format.
    Text,
    /// A chunked v2 container under the spec.
    Container(ChunkSpec),
}

/// The sink that writes each reduced rank into `out` as it comes: the
/// header when it opens, a section per rank, and the trailer (and, for a
/// container, the index) when it finishes.  Each stitch, and the finish,
/// is one [`Stage::Store`] span: the serial tail of the run.
pub(crate) struct ReducedWriter<W: Write> {
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

impl<W: Write> ReducedWriter<W> {
    /// Writes the header of a reduced trace under `tables` into `out`.
    pub(crate) fn open(
        mut out: W,
        format: ReducedFormat,
        tables: &TraceTables,
        recorder: &Recorder,
    ) -> Result<Self, StreamError> {
        let (name, ranks) = (&tables.name, tables.declared_ranks);
        let (regions, contexts) = (tables.regions.names(), tables.contexts.names());
        let out = match format {
            ReducedFormat::Text => {
                write_reduced_header(&mut out, name, ranks, regions, contexts)
                    .map_err(StreamError::Sink)?;
                Output::Text(out)
            }
            ReducedFormat::Container(spec) => Output::Container(Box::new(
                ChunkWriter::reduced(out, name, ranks, regions, contexts, spec)
                    .map_err(StreamError::Sink)?,
            )),
        };
        Ok(ReducedWriter {
            out,
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
        self.obs.end(Stage::Store, span);
        out.map_err(StreamError::Sink)
    }
}

impl<W: Write> RankSink for ReducedWriter<W> {
    /// A container's section encoder; text needs none.
    type Encoder = Option<SectionEncoder>;
    type Section = Encoded;

    fn encoder(&self, recorder: &Recorder) -> Option<SectionEncoder> {
        match &self.out {
            Output::Text(_) => None,
            Output::Container(writer) => Some(writer.section_encoder(recorder.shard())),
        }
    }

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

    fn stitch(&mut self, section: Encoded) -> Result<(), StreamError> {
        let span = self.obs.start();
        let stitched = match (&mut self.out, section) {
            (Output::Text(out), Encoded::Text(bytes)) => out.write_all(&bytes),
            (Output::Container(writer), Encoded::Container(section)) => writer.stitch(section),
            _ => return Err(StreamError::Protocol("a section of the other format")),
        };
        self.obs.end(Stage::Store, span);
        stitched.map_err(StreamError::Sink)
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
    /// Finishes the file a run wrote into `writer`.
    pub(crate) fn finished(
        (writer, stats): (ReducedWriter<W>, StreamStats),
    ) -> Result<Self, StreamError> {
        let name = writer.name.clone();
        let out = writer.finish()?;
        Ok(WrittenReduction { out, name, stats })
    }
}
