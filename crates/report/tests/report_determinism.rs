//! The report sinks promise byte-identical output: across repeated runs
//! on the same input, and across every reduction driver (sequential,
//! parallel, streaming, sharded-streaming) — the drivers produce equal
//! reduced traces, and the sinks must not reintroduce nondeterminism on
//! top of them.

use std::io::Cursor;

use trace_eval::Original;
use trace_reduce::{reduce_app_parallel, Method, MethodConfig, Reducer};
use trace_report::{build_model, render_chrome_trace, render_html, render_text, ReportOptions};
use trace_sim::{SizePreset, Workload, WorkloadKind};
use trace_stream::{reduce_stream, reduce_stream_sharded};

fn options() -> ReportOptions {
    ReportOptions {
        method: MethodConfig::with_default_threshold(Method::RelDiff),
        ..ReportOptions::default()
    }
}

#[test]
fn sinks_are_byte_identical_across_repeat_runs() {
    let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
    let config = MethodConfig::with_default_threshold(Method::RelDiff);
    let reduced = Reducer::new(config).reduce_app(&app);

    let first = build_model(&reduced, Some(&app), None, &options()).unwrap();
    let second = build_model(&reduced, Some(&app), None, &options()).unwrap();
    assert_eq!(render_text(&first), render_text(&second));
    assert_eq!(render_html(&first), render_html(&second));
    assert_eq!(render_chrome_trace(&reduced), render_chrome_trace(&reduced));
}

#[test]
fn sinks_are_byte_identical_across_all_four_drivers() {
    let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
    let config = MethodConfig::with_default_threshold(Method::RelDiff);
    let text = trace_format::write_app_trace(&app);

    let sequential = Reducer::new(config).reduce_app(&app);
    let parallel = reduce_app_parallel(&Reducer::new(config), &app, 3);
    let streamed = reduce_stream(&Reducer::new(config), text.as_bytes())
        .expect("stream reduce")
        .reduced;
    let sharded = reduce_stream_sharded(&Reducer::new(config), 3, |_| {
        Ok(Cursor::new(text.clone().into_bytes()))
    })
    .expect("sharded reduce")
    .reduced;

    let drivers = [
        ("sequential", &sequential),
        ("parallel", &parallel),
        ("streaming", &streamed),
        ("sharded", &sharded),
    ];
    let reference_model = build_model(&sequential, None, None, &options()).unwrap();
    let reference = (
        render_text(&reference_model),
        render_html(&reference_model),
        render_chrome_trace(&sequential),
    );
    assert!(
        reference.1.starts_with("<!DOCTYPE html>"),
        "html preamble missing"
    );
    for (name, reduced) in drivers {
        let model = build_model(reduced, None, None, &options()).unwrap();
        assert_eq!(render_text(&model), reference.0, "{name} text drifted");
        assert_eq!(render_html(&model), reference.1, "{name} html drifted");
        assert_eq!(
            render_chrome_trace(reduced),
            reference.2,
            "{name} chrome trace drifted"
        );
    }
}

#[test]
fn chrome_export_round_trips_through_the_shared_reader() {
    let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
    let config = MethodConfig::with_default_threshold(Method::RelDiff);
    let reduced = Reducer::new(config).reduce_app(&app);

    let rendered = render_chrome_trace(&reduced);
    let events = trace_obs::chrome::parse(&rendered).expect("valid chrome document");
    assert_eq!(events.len(), reduced.total_execs());
    assert_eq!(trace_obs::chrome::render(&events), rendered);
}

#[test]
fn html_is_self_contained_and_escapes_the_json_island() {
    let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
    let config = MethodConfig::with_default_threshold(Method::RelDiff);
    let reduced = Reducer::new(config).reduce_app(&app);
    let model = build_model(&reduced, Some(&app), None, &options()).unwrap();
    let html = render_html(&model);

    assert!(!html.contains("http://") && !html.contains("https://"));
    assert!(!html.contains("src="), "no external scripts or images");
    assert!(html.contains("id=\"report-data\""));

    // The JSON island parses with the canonical reader after undoing the
    // one embedding escape (`<` is emitted as < so `</script>` can
    // never appear inside the island).
    let start = html.find("id=\"report-data\">").expect("island") + "id=\"report-data\">".len();
    let end = html[start..].find("</script>").expect("island end") + start;
    let island = &html[start..end];
    assert!(!island.contains('<'));
    let parsed = trace_obs::json::parse(island).expect("island is canonical JSON");
    assert_eq!(
        parsed.get("schema").and_then(|v| v.as_str()),
        Some("trace-report")
    );
    assert_eq!(
        parsed.get("ranks").and_then(|v| v.as_u64()),
        Some(reduced.rank_count() as u64)
    );
    // With the original, the island carries the evaluator's record.
    let criteria = Original::new(&app).evaluate(&reduced).unwrap().criteria;
    let island = parsed.get("criteria").expect("criteria object");
    for (key, value) in criteria.json_fields() {
        assert_eq!(island.get(&key), Some(&value), "{key}");
    }
    assert!(island.get("discrepancies").is_some());
}
