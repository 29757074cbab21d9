//! Metamorphic relations (`support/relations.rs`) over every driver: every
//! method at its default threshold, reduced in memory, streamed from text
//! and from a container on one worker and on three, and converted to a
//! text file and reduced from it.  The transformed traces go through the
//! codecs too: a shift changes every `delta-lz` delta's base and the
//! varint lengths of the time stamps, a rank reversal the index footer.
//! Both relations are properties as well, over generated traces, so the
//! explored property runs reach them.  Scale runs through the same drivers,
//! every method at its default threshold (absDiff's scaled with the
//! trace); prefix runs in memory.

#[path = "support/relations.rs"]
mod relations;

use std::io::Cursor;
use std::path::PathBuf;

use proptest::prelude::*;
use trace_container::{encode_app_container, ChunkSpec, Codec};
use trace_format::write_app_trace;
use trace_model::{AppTrace, ReducedAppTrace};
use trace_obs::Recorder;
use trace_reduce::{Method, MethodConfig, Reducer};
use trace_sim::specgen::trace_from_specs;
use trace_sim::{SizePreset, Workload};
use trace_stream::{
    convert_container, reduce_any_file, reduce_container_file, reduce_stream_sharded, OutputFormat,
};

/// An odd shift of a little over a millisecond: it moves time stamps
/// across varint byte boundaries.
const SHIFT: u64 = 1_048_583;

/// The scale relation's factor: every time stamp and wait doubled.
const SCALE: u64 = 2;

/// One way a trace is reduced.
#[derive(Clone, Copy, Debug)]
enum Driver {
    InMemory,
    /// `reduce --stream` of a text file, on this many workers.
    Text(usize),
    /// `reduce --stream` of a container file, on this many workers.
    Container(usize),
    /// The container converted to a text file, then reduced from it.
    Converted,
}

/// The drivers that read a file.
const FILE_DRIVERS: [Driver; 5] = [
    Driver::Text(1),
    Driver::Text(3),
    Driver::Container(1),
    Driver::Container(3),
    Driver::Converted,
];

/// A trace and the files the drivers read it from, removed on drop.
struct Inputs {
    app: AppTrace,
    text: Vec<u8>,
    container: PathBuf,
    converted: PathBuf,
}

impl Inputs {
    fn new(app: AppTrace, tag: &str) -> Inputs {
        let file = |extension: &str| {
            let name = format!("metamorphic_{}_{tag}.{extension}", std::process::id());
            std::env::temp_dir().join(name)
        };
        let (container, converted) = (file("trc"), file("txt"));
        let spec = ChunkSpec::with_segments(4).codec(Codec::DeltaLz);
        std::fs::write(&container, encode_app_container(&app, spec)).unwrap();
        let off = Recorder::disabled();
        let text = convert_container(&container, Vec::new(), OutputFormat::Text, &off, 2).unwrap();
        std::fs::write(&converted, text).unwrap();
        let text = write_app_trace(&app).into_bytes();
        Inputs {
            app,
            text,
            container,
            converted,
        }
    }

    fn reduce(&self, driver: Driver, reducer: &Reducer) -> ReducedAppTrace {
        match driver {
            Driver::InMemory => reducer.reduce_app(&self.app),
            Driver::Text(workers) => {
                let open = |_| Ok(Cursor::new(&self.text[..]));
                reduce_stream_sharded(reducer, workers, open)
                    .unwrap()
                    .reduced
            }
            Driver::Container(workers) => {
                let run = reduce_container_file(reducer, &self.container, workers);
                run.unwrap().reduced
            }
            Driver::Converted => {
                let (run, _) = reduce_any_file(reducer, &self.converted, 3).unwrap();
                run.reduced
            }
        }
    }
}

impl Drop for Inputs {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.container);
        let _ = std::fs::remove_file(&self.converted);
    }
}

/// Checks both relations for `app`, every method at its default threshold
/// reduced in memory and by `driver(method's index)`, if any; returns the
/// first that fails.
fn relations_hold(
    app: &AppTrace,
    tag: &str,
    driver: impl Fn(usize) -> Option<Driver>,
) -> Result<(), String> {
    let shifted = Inputs::new(relations::shifted(app, SHIFT), &format!("{tag}_shift"));
    let reversed = Inputs::new(relations::reversed(app), &format!("{tag}_rev"));
    for (index, method) in Method::ALL.into_iter().enumerate() {
        let reducer = Reducer::with_default_threshold(method);
        let reduced = reducer.reduce_app(app);
        let cases = [
            (
                "shift",
                &shifted,
                relations::shifted_reduction(&reduced, SHIFT),
            ),
            (
                "rank order",
                &reversed,
                relations::reversed_reduction(&reduced),
            ),
        ];
        for (relation, inputs, expected) in &cases {
            for driver in std::iter::once(Driver::InMemory).chain(driver(index)) {
                if inputs.reduce(driver, &reducer) != *expected {
                    return Err(format!("{relation}: {} {method} {driver:?}", app.name));
                }
            }
        }
    }
    Ok(())
}

/// The file driver that reduces the `workload`-th tiny workload with the
/// `method`-th method, if any.  The file drivers take turns over the
/// methods and workloads, so every method runs on every driver, each pair
/// on three workloads or more.  `sweep3d_32p` alone would stream for ≈ 9 s
/// in a debug build, so it is reduced in memory only.
fn rotation(workload: usize, app: &AppTrace) -> impl Fn(usize) -> Option<Driver> {
    let streamed = app.total_events() < 10_000;
    move |method| streamed.then_some(FILE_DRIVERS[(workload + method) % FILE_DRIVERS.len()])
}

#[test]
fn shift_and_rank_order_hold_on_every_tiny_workload_through_every_driver() {
    for (index, workload) in Workload::all(SizePreset::Tiny).into_iter().enumerate() {
        let app = workload.generate();
        relations_hold(&app, &workload.name(), rotation(index, &app)).unwrap();
    }
}

#[test]
fn scale_holds_on_every_tiny_workload_through_every_driver() {
    for (index, workload) in Workload::all(SizePreset::Tiny).into_iter().enumerate() {
        let app = workload.generate();
        let tag = format!("{}_scale", workload.name());
        let scaled = Inputs::new(relations::scaled(&app, SCALE), &tag);
        let file_driver = rotation(index, &app);
        for (m, method) in Method::ALL.into_iter().enumerate() {
            let config = MethodConfig::with_default_threshold(method);
            let expected =
                relations::scaled_reduction(&Reducer::new(config).reduce_app(&app), SCALE);
            // absDiff's threshold is in time units; every other method's is
            // relative or a count.
            let threshold = match method {
                Method::AbsDiff => config.threshold * SCALE as f64,
                _ => config.threshold,
            };
            let reducer = Reducer::new(MethodConfig::new(method, threshold));
            // iter_avg's representative is an average rounded to the
            // nanosecond.
            let tolerance = u64::from(method == Method::IterAvg);
            for driver in std::iter::once(Driver::InMemory).chain(file_driver(m)) {
                let found = scaled.reduce(driver, &reducer);
                let holds = relations::equal_within(&found, &expected, tolerance);
                assert!(holds, "scale: {} {method} {driver:?}", app.name);
            }
        }
    }
}

#[test]
fn prefix_holds_in_memory_on_every_tiny_workload_for_every_method() {
    for workload in Workload::all(SizePreset::Tiny) {
        let app = workload.generate();
        let cut = relations::cut(&app);
        for method in Method::ALL {
            let reducer = Reducer::with_default_threshold(method);
            let (whole, found) = (reducer.reduce_app(&app), reducer.reduce_app(&cut));
            let stored = method != Method::IterAvg;
            let holds = relations::is_prefix(&found, &whole, stored);
            assert!(holds, "prefix: {} {method}", app.name);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn shift_and_rank_order_hold_on_generated_traces(rank_specs in prop::collection::vec(
        prop::collection::vec((0u8..4, 0u8..4, 0u16..2000), 0..10),
        1..5,
    )) {
        let app = trace_from_specs("relations", &rank_specs);
        let streamed = |_| Some(Driver::Text(3));
        prop_assert_eq!(relations_hold(&app, "generated", streamed), Ok(()));
    }
}
