//! Export/import demo: move traces between the binary container and the
//! OTF-style text format, reduce them, and compare file sizes.
//!
//! Run with:
//! ```text
//! cargo run --release --example export_import
//! ```

// Examples print their results to stdout by design.
#![allow(clippy::print_stdout)]

use trace_reduction::container::{
    decode_app_any, encode_app_container, encode_reduced_container, ChunkSpec, Codec,
};
use trace_reduction::format::{parse_app_trace, write_app_trace, write_reduced_trace};
use trace_reduction::model::codec::{app_trace_len, reduced_trace_len};
use trace_reduction::reduce::{Method, Reducer};
use trace_reduction::sim::{SizePreset, Workload, WorkloadKind};

fn main() {
    let app = Workload::new(WorkloadKind::Sweep3d8p, SizePreset::Small).generate();

    // Export the full trace in both formats: the binary one is a `.trc` v2
    // container under the CLI's default codec.  Criterion 1 counts neither:
    // it measures the retired monolithic v1 layout, without writing it.
    let spec = ChunkSpec::with_codec(Codec::DeltaLz);
    let binary = encode_app_container(&app, spec);
    let text = write_app_trace(&app);
    let full_v1 = app_trace_len(&app);
    println!(
        "full trace {}: {} events\n  container   : {:>9} bytes\n  text format : {:>9} bytes\n  \
         criterion 1: {full_v1:>9} v1 bytes",
        app.name,
        app.total_events(),
        binary.len(),
        text.len()
    );

    // Re-import both forms and check they are lossless.
    let reparsed = parse_app_trace(&text).expect("the writer always produces parsable output");
    assert_eq!(reparsed, app);
    let decoded = decode_app_any(&binary).expect("the writer always produces a valid container");
    assert_eq!(decoded, app);
    println!("  text and container round trips: lossless");

    // Reduce and export the reduced trace in both formats.
    for method in [Method::AvgWave, Method::IterAvg, Method::RelDiff] {
        let reduced = Reducer::with_default_threshold(method).reduce_app(&app);
        let reduced_binary = encode_reduced_container(&reduced, spec);
        let reduced_text = write_reduced_trace(&reduced);
        let percent = 100.0 * reduced_trace_len(&reduced) as f64 / full_v1 as f64;
        println!(
            "reduced with {:<8}: container {:>9} bytes, text {:>9} bytes, \
             criterion 1 {percent:>5.1}% of full",
            method.name(),
            reduced_binary.len(),
            reduced_text.len()
        );
    }

    println!(
        "\nThe text format exists for interoperability and debugging (try\n\
         `trace-tools convert --in trace.trc --out trace.txt`)."
    );
}
