//! A reduced trace a reader returned replays every execution.
//!
//! `ReducedAppTrace::reconstruct` and the report (`build_model`'s region
//! trie, the chrome timeline) look each execution's stored segment up by
//! id, and skip one that does not resolve: the report crate is panic free,
//! so its lookups stay fallible.  What keeps them from ever missing is that
//! both reduced readers, text and container, refuse a trace whose stored
//! ids are not dense or whose executions name a segment it does not store.
//! Here every reduction the readers return is replayed in full, and every
//! trace that breaks the id rules is refused by all three encodings.

use std::io::Cursor;

use trace_container::{encode_reduced_container, read_reduced_container, ChunkSpec, Codec};
use trace_format::{parse_reduced_trace, write_reduced_trace};
use trace_model::{ReducedAppTrace, SegmentExec, Time};
use trace_reduce::{Method, MethodConfig, Reducer};
use trace_report::{build_model, reduced_timeline, ReportOptions, TrieNode};
use trace_sim::{SizePreset, Workload, WorkloadKind};

/// `reduced` through each reader: the two container codecs and text.
fn read_back(reduced: &ReducedAppTrace) -> Vec<(&'static str, Result<ReducedAppTrace, String>)> {
    let container = |codec| {
        let bytes = encode_reduced_container(reduced, ChunkSpec::with_codec(codec));
        read_reduced_container(Cursor::new(bytes)).map_err(|e| e.to_string())
    };
    vec![
        ("container none", container(Codec::None)),
        ("container delta-lz", container(Codec::DeltaLz)),
        (
            "text",
            parse_reduced_trace(&write_reduced_trace(reduced)).map_err(|e| e.to_string()),
        ),
    ]
}

fn trie_execs(node: &TrieNode) -> u64 {
    node.exec_count + node.children.values().map(trie_execs).sum::<u64>()
}

/// Every execution of `reduced` resolves, and the reconstruction, the trie
/// and the timeline each account for every one.
fn assert_nothing_missed(what: &str, reduced: &ReducedAppTrace) {
    let approx = reduced.reconstruct();
    for (rank, rebuilt) in reduced.ranks.iter().zip(&approx.ranks) {
        let mut events = 0;
        for exec in &rank.execs {
            let stored = rank.stored_segment(exec.segment);
            events += stored
                .expect("every execution resolves")
                .segment
                .events
                .len();
        }
        assert_eq!(
            rebuilt.segment_instance_count(),
            rank.exec_count(),
            "{what}"
        );
        assert_eq!(rebuilt.event_count(), events, "{what}");
    }
    let model = build_model(reduced, None, None, &ReportOptions::default()).unwrap();
    let execs = reduced.total_execs();
    assert_eq!(trie_execs(&model.trie.root), execs as u64, "{what}: trie");
    assert_eq!(reduced_timeline(reduced).len(), execs, "{what}: timeline");
}

#[test]
fn reconstruct_and_the_report_never_miss_a_lookup_on_a_trace_a_reader_returned() {
    let mut checked = 0;
    for (kind, method) in [
        (WorkloadKind::LateSender, Method::AvgWave),
        (WorkloadKind::DynLoadBalance, Method::RelDiff),
        (WorkloadKind::DynLoadBalance, Method::IterK),
    ] {
        let app = Workload::new(kind, SizePreset::Tiny).generate();
        let reduced = Reducer::new(MethodConfig::with_default_threshold(method)).reduce_app(&app);
        assert!(reduced.ranks[0].stored_count() >= 2, "{kind:?} {method}");

        // Each of these breaks the id rules in one way.
        let mut swapped = reduced.clone();
        swapped.ranks[0].stored.swap(0, 1);
        let mut unknown = reduced.clone();
        let past = unknown.ranks[0].stored_count() as u32;
        let start = Time::from_nanos(1 << 40);
        unknown.ranks[0].execs.push(SegmentExec {
            segment: past,
            start,
        });
        let mut dropped = reduced.clone();
        dropped.ranks[0].stored.pop();

        for (name, trace, valid) in [
            ("as reduced", &reduced, true),
            ("stored ids swapped", &swapped, false),
            ("an unknown execution", &unknown, false),
            ("a stored segment dropped", &dropped, false),
        ] {
            assert_eq!(trace.check_ids().is_ok(), valid, "{name}");
            for (reader, read) in read_back(trace) {
                let what = format!("{kind:?} {method}, {name}, {reader}");
                match read {
                    Ok(read) => {
                        assert!(valid, "{what}: a reader returned it");
                        assert_eq!(&read, trace, "{what}");
                        assert_nothing_missed(&what, &read);
                        checked += 1;
                    }
                    Err(err) => assert!(!valid, "{what}: {err}"),
                }
            }
        }
    }
    assert_eq!(checked, 9);
}
