//! Registry of the paper's 18 workloads.
//!
//! The evaluation of the paper uses 18 program traces: five regular ATS
//! benchmarks, ten interference benchmarks (five communication patterns ×
//! two interference scales), the dynamic load-balancing benchmark, and two
//! Sweep3D runs.  [`Workload`] names and generates each of them, with a
//! [`SizePreset`] that scales the run down for unit tests and up for the
//! full experiment reproduction.

use trace_model::AppTrace;

use crate::ats::{self, RegularParams};
use crate::dynload::{dyn_load_balance, DynLoadParams};
use crate::interference::{interference, InterferenceParams, InterferenceScale, Pattern};
use crate::sweep3d::{sweep3d, Sweep3dParams};

/// How large a run to generate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SizePreset {
    /// Paper-scale runs: what the committed table of the paper's numbers,
    /// `PAPER_RESULTS.json` at the repository root, is generated at.
    Paper,
    /// Reduced iteration counts; keeps every behaviour but runs quickly.
    /// Used by the integration tests and examples.
    Small,
    /// Minimal runs for unit tests.
    Tiny,
}

impl SizePreset {
    /// Scales an iteration count for this preset.
    fn scale_iterations(self, paper_iterations: usize) -> usize {
        match self {
            SizePreset::Paper => paper_iterations,
            SizePreset::Small => (paper_iterations / 4).max(8),
            SizePreset::Tiny => (paper_iterations / 10).max(4),
        }
    }
}

/// Identifies one of the paper's workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WorkloadKind {
    /// `early_gather` (regular, N→1).
    EarlyGather,
    /// `imbalance_at_mpi_barrier` (regular, N→N).
    ImbalanceAtMpiBarrier,
    /// `late_receiver` (regular, 1→1 synchronous send).
    LateReceiver,
    /// `late_sender` (regular, 1→1 blocking receive).
    LateSender,
    /// `late_broadcast` (regular, 1→N).
    LateBroadcast,
    /// One of the ten interference benchmarks.
    Interference(Pattern, InterferenceScale),
    /// `dyn_load_balance`.
    DynLoadBalance,
    /// `sweep3d_8p` (input.50).
    Sweep3d8p,
    /// `sweep3d_32p` (input.150).
    Sweep3d32p,
}

impl WorkloadKind {
    /// All 18 workloads in the order the paper presents them.
    pub fn all_paper() -> Vec<WorkloadKind> {
        let mut all = vec![
            WorkloadKind::EarlyGather,
            WorkloadKind::ImbalanceAtMpiBarrier,
            WorkloadKind::LateReceiver,
            WorkloadKind::LateSender,
            WorkloadKind::LateBroadcast,
        ];
        for scale in [InterferenceScale::Nodes32, InterferenceScale::Procs1024] {
            for pattern in Pattern::ALL {
                all.push(WorkloadKind::Interference(pattern, scale));
            }
        }
        all.push(WorkloadKind::DynLoadBalance);
        all.push(WorkloadKind::Sweep3d8p);
        all.push(WorkloadKind::Sweep3d32p);
        all
    }

    /// The workload's name as used in the paper's figures and tables.
    pub fn name(&self) -> String {
        match self {
            WorkloadKind::EarlyGather => "early_gather".into(),
            WorkloadKind::ImbalanceAtMpiBarrier => "imbalance_at_mpi_barrier".into(),
            WorkloadKind::LateReceiver => "late_receiver".into(),
            WorkloadKind::LateSender => "late_sender".into(),
            WorkloadKind::LateBroadcast => "late_broadcast".into(),
            WorkloadKind::Interference(pattern, scale) => {
                format!("{}_{}", pattern.short_name(), scale.suffix())
            }
            WorkloadKind::DynLoadBalance => "dyn_load_balance".into(),
            WorkloadKind::Sweep3d8p => "sweep3d_8p".into(),
            WorkloadKind::Sweep3d32p => "sweep3d_32p".into(),
        }
    }

    /// Looks a workload up by its paper name.
    pub fn by_name(name: &str) -> Option<WorkloadKind> {
        Self::all_paper().into_iter().find(|k| k.name() == name)
    }
}

/// A workload plus the size preset to generate it at.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Workload {
    /// Which of the 18 workloads.
    pub kind: WorkloadKind,
    /// How large a run to generate.
    pub preset: SizePreset,
}

impl Workload {
    /// Creates a workload description.
    pub fn new(kind: WorkloadKind, preset: SizePreset) -> Self {
        Workload { kind, preset }
    }

    /// All 18 paper workloads at the given preset.
    pub fn all(preset: SizePreset) -> Vec<Workload> {
        WorkloadKind::all_paper()
            .into_iter()
            .map(|kind| Workload::new(kind, preset))
            .collect()
    }

    /// The workload's paper name.
    pub fn name(&self) -> String {
        self.kind.name()
    }

    /// Generates the full trace for this workload.
    pub fn generate(&self) -> AppTrace {
        let preset = self.preset;
        match self.kind {
            WorkloadKind::EarlyGather => ats::early_gather(&regular_params(preset)),
            WorkloadKind::ImbalanceAtMpiBarrier => {
                ats::imbalance_at_mpi_barrier(&regular_params(preset))
            }
            WorkloadKind::LateReceiver => ats::late_receiver(&regular_params(preset)),
            WorkloadKind::LateSender => ats::late_sender(&regular_params(preset)),
            WorkloadKind::LateBroadcast => ats::late_broadcast(&regular_params(preset)),
            WorkloadKind::Interference(pattern, scale) => {
                interference(pattern, scale, &interference_params(preset))
            }
            WorkloadKind::DynLoadBalance => dyn_load_balance(&dynload_params(preset)),
            WorkloadKind::Sweep3d8p => sweep3d(
                "sweep3d_8p",
                &sweep3d_params(Sweep3dParams::paper_8p(), preset),
            ),
            WorkloadKind::Sweep3d32p => sweep3d(
                "sweep3d_32p",
                &sweep3d_params(Sweep3dParams::paper_32p(), preset),
            ),
        }
    }
}

impl Workload {
    /// Writes the workload to `out` in the text trace format with every
    /// rank's run replayed `repeats` times back-to-back (time stamps offset
    /// so each rank stays monotone).
    ///
    /// Only one in-memory copy of the workload is generated regardless of
    /// `repeats`, and the amplified trace is streamed out record by record
    /// — this is how the end-to-end big-trace tests and benches produce
    /// traces much larger than the generator's working set.  A `repeats`
    /// of 0 is treated as 1.
    pub fn write_text_amplified_to<W: std::io::Write>(
        &self,
        mut out: W,
        repeats: usize,
    ) -> std::io::Result<W> {
        let app = self.generate();
        trace_format::write_app_header(
            &mut out,
            &app.name,
            app.rank_count(),
            app.regions.names(),
            app.contexts.names(),
        )?;
        replay_amplified(TextSink(out), &app, repeats)
    }

    /// Generates the workload and writes it to `out` as a chunked binary
    /// container (`.trc` v2), ready for the binary streaming consumers
    /// (`trace-tools reduce --stream` on container files, the
    /// `trace_container` crate's indexed readers).
    pub fn write_container_to<W: std::io::Write>(
        &self,
        out: W,
        spec: trace_container::ChunkSpec,
    ) -> std::io::Result<W> {
        self.write_container_amplified_to(out, 1, spec)
    }

    /// Writes the workload to `out` as a chunked container with every
    /// rank's run replayed `repeats` times back-to-back, mirroring
    /// [`Workload::write_text_amplified_to`]: one in-memory copy of the
    /// workload, O(one chunk) writer state, arbitrarily large output.
    pub fn write_container_amplified_to<W: std::io::Write>(
        &self,
        out: W,
        repeats: usize,
        spec: trace_container::ChunkSpec,
    ) -> std::io::Result<W> {
        let app = self.generate();
        let writer = trace_container::ChunkWriter::app(
            out,
            &app.name,
            app.rank_count(),
            app.regions.names(),
            app.contexts.names(),
            spec,
        )?;
        replay_amplified(ContainerSink(writer), &app, repeats)
    }
}

/// The rank/record/finish surface shared by the text and container trace
/// writers, so the amplification replay below exists once.
trait RecordSink<W> {
    fn begin_rank(&mut self, rank: trace_model::Rank) -> std::io::Result<()>;
    fn record(&mut self, record: &trace_model::TraceRecord) -> std::io::Result<()>;
    fn end_rank(&mut self) -> std::io::Result<()>;
    fn finish(self) -> std::io::Result<W>;
}

/// A text trace after its header: the sink writes the rank sections and
/// the trailer.
struct TextSink<W: std::io::Write>(W);

impl<W: std::io::Write> RecordSink<W> for TextSink<W> {
    fn begin_rank(&mut self, rank: trace_model::Rank) -> std::io::Result<()> {
        trace_format::write_rank_start(&mut self.0, rank)
    }
    fn record(&mut self, record: &trace_model::TraceRecord) -> std::io::Result<()> {
        trace_format::write_app_records(&mut self.0, std::slice::from_ref(record))
    }
    fn end_rank(&mut self) -> std::io::Result<()> {
        trace_format::write_rank_end(&mut self.0)
    }
    fn finish(mut self) -> std::io::Result<W> {
        trace_format::write_trailer(&mut self.0)?;
        Ok(self.0)
    }
}

struct ContainerSink<W: std::io::Write>(trace_container::ChunkWriter<W>);

impl<W: std::io::Write> RecordSink<W> for ContainerSink<W> {
    fn begin_rank(&mut self, rank: trace_model::Rank) -> std::io::Result<()> {
        self.0.begin_rank(rank)
    }
    fn record(&mut self, record: &trace_model::TraceRecord) -> std::io::Result<()> {
        self.0.record(record)
    }
    fn end_rank(&mut self) -> std::io::Result<()> {
        self.0.end_rank()
    }
    fn finish(self) -> std::io::Result<W> {
        self.0.finish()
    }
}

/// Streams `app` into `sink` with every rank's run replayed `repeats`
/// times back-to-back, time stamps offset so each rank stays monotone.
/// A `repeats` of 0 is treated as 1.
fn replay_amplified<W, S: RecordSink<W>>(
    mut sink: S,
    app: &AppTrace,
    repeats: usize,
) -> std::io::Result<W> {
    use trace_model::{Time, TraceRecord};

    let repeats = repeats.max(1);
    // Any per-repeat offset >= the run's end keeps each rank's record
    // stream monotone; the app-wide end keeps ranks aligned.
    let period = app.end_time().as_nanos();

    for rank in &app.ranks {
        sink.begin_rank(rank.rank)?;
        for repeat in 0..repeats {
            let offset = Time::from_nanos(period * repeat as u64);
            for record in &rank.records {
                let shifted = match record {
                    TraceRecord::SegmentBegin { context, time } => TraceRecord::SegmentBegin {
                        context: *context,
                        time: *time + offset,
                    },
                    TraceRecord::SegmentEnd { context, time } => TraceRecord::SegmentEnd {
                        context: *context,
                        time: *time + offset,
                    },
                    TraceRecord::Event(event) => TraceRecord::Event(event.offset(offset)),
                };
                sink.record(&shifted)?;
            }
        }
        sink.end_rank()?;
    }
    sink.finish()
}

fn regular_params(preset: SizePreset) -> RegularParams {
    let paper = RegularParams::paper();
    RegularParams {
        iterations: preset.scale_iterations(paper.iterations),
        ..paper
    }
}

fn interference_params(preset: SizePreset) -> InterferenceParams {
    let paper = InterferenceParams::paper();
    InterferenceParams {
        iterations: preset.scale_iterations(paper.iterations),
        ranks: match preset {
            SizePreset::Paper | SizePreset::Small => paper.ranks,
            SizePreset::Tiny => 8,
        },
        ..paper
    }
}

fn dynload_params(preset: SizePreset) -> DynLoadParams {
    let paper = DynLoadParams::paper();
    DynLoadParams {
        iterations: preset.scale_iterations(paper.iterations),
        ..paper
    }
}

fn sweep3d_params(paper: Sweep3dParams, preset: SizePreset) -> Sweep3dParams {
    Sweep3dParams {
        iterations: preset.scale_iterations(paper.iterations),
        ..paper
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_eighteen_paper_workloads_with_unique_names() {
        let all = WorkloadKind::all_paper();
        assert_eq!(all.len(), 18);
        let mut names: Vec<String> = all.iter().map(|k| k.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 18);
    }

    #[test]
    fn names_round_trip_through_by_name() {
        for kind in WorkloadKind::all_paper() {
            assert_eq!(WorkloadKind::by_name(&kind.name()), Some(kind));
        }
        assert_eq!(WorkloadKind::by_name("nonexistent"), None);
    }

    #[test]
    fn categories_partition_the_workloads() {
        use WorkloadKind::*;
        let all = WorkloadKind::all_paper();
        let count = |class: fn(&WorkloadKind) -> bool| all.iter().filter(|k| class(k)).count();
        let regular = count(|k| {
            matches!(
                k,
                EarlyGather | ImbalanceAtMpiBarrier | LateReceiver | LateSender | LateBroadcast
            )
        });
        let noise = count(|k| matches!(k, Interference(..)));
        let dynload = count(|k| matches!(k, DynLoadBalance));
        let apps = count(|k| matches!(k, Sweep3d8p | Sweep3d32p));
        assert_eq!((regular, noise, dynload, apps), (5, 10, 1, 2));
    }

    #[test]
    fn tiny_workloads_generate_and_are_well_formed() {
        // Generate every workload at the tiny preset; this covers every
        // generator path without long runtimes.
        for workload in Workload::all(SizePreset::Tiny) {
            let app = workload.generate();
            assert_eq!(app.name, workload.name());
            assert!(app.is_well_formed(), "{} malformed", app.name);
            assert!(app.total_events() > 0);
        }
    }

    #[test]
    fn amplified_traces_replay_the_run_and_stay_well_formed() {
        let workload = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny);
        let app = workload.generate();
        let bytes = workload.write_text_amplified_to(Vec::new(), 5).unwrap();
        let parsed = trace_format::parse_app_trace(std::str::from_utf8(&bytes).unwrap()).unwrap();
        assert!(parsed.is_well_formed());
        assert_eq!(parsed.rank_count(), app.rank_count());
        assert_eq!(parsed.total_events(), 5 * app.total_events());
        // repeats = 0 degrades to a single copy: the whole-trace writer's
        // bytes.
        let once = workload.write_text_amplified_to(Vec::new(), 0).unwrap();
        assert_eq!(
            String::from_utf8(once).unwrap(),
            trace_format::write_app_trace(&app)
        );
    }

    #[test]
    fn container_writers_round_trip_and_amplify() {
        use trace_container::{read_app_container, ChunkSpec, Codec};

        let workload = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny);
        let app = workload.generate();
        let bytes = workload
            .write_container_to(Vec::new(), ChunkSpec::with_segments(4))
            .unwrap();
        assert_eq!(read_app_container(&bytes[..]).unwrap(), app);

        let amplified = workload
            .write_container_amplified_to(Vec::new(), 5, ChunkSpec::with_segments(4))
            .unwrap();
        let parsed = read_app_container(&amplified[..]).unwrap();
        assert!(parsed.is_well_formed());
        assert_eq!(parsed.rank_count(), app.rank_count());
        assert_eq!(parsed.total_events(), 5 * app.total_events());

        // The chunk spec carries the compression codec straight through the
        // workload writers: amplified runs repeat, so delta-lz must shrink
        // the container while decoding to the identical trace.
        let compressed = workload
            .write_container_amplified_to(
                Vec::new(),
                5,
                ChunkSpec::with_segments(4).codec(Codec::DeltaLz),
            )
            .unwrap();
        assert!(
            compressed.len() < amplified.len(),
            "{} vs {}",
            compressed.len(),
            amplified.len()
        );
        assert_eq!(read_app_container(&compressed[..]).unwrap(), parsed);
    }

    #[test]
    fn presets_scale_trace_sizes() {
        let tiny = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny)
            .generate()
            .total_events();
        let small = Workload::new(WorkloadKind::LateSender, SizePreset::Small)
            .generate()
            .total_events();
        assert!(small > tiny);
    }
}
