//! Region/callpath trie: where the reduced trace says time went.
//!
//! Contexts in this workspace are dotted call paths (`main`, `main.2`,
//! `main.2.1`, …; see [`trace_model::ContextTable::parent_name`]).  The
//! trie splits every executed representative's context on `.` and
//! accumulates, along the path, the time the execution log attributes to
//! that subtree — the tlparse-style "stack trie" view of a run, but built
//! from the reduced form alone: each [`trace_model::SegmentExec`] entry
//! contributes its representative's duration, so a representative standing
//! for a thousand executions is counted a thousand times, exactly as the
//! reconstruction would replay it.
//!
//! At the node where a segment actually executed, per-region rows record
//! how the segment's events split that time between traced regions.  Wait
//! time per region comes from the severity metrics of
//! [`fn@trace_analysis::diagnose`] run on the reconstructed trace: the
//! diagnosis is region-keyed, so each node's share is attributed
//! proportionally to the node's fraction of that region's total time.

use std::collections::BTreeMap;

use trace_analysis::Diagnosis;
use trace_model::ReducedAppTrace;

/// Per-region accumulation at one exact trie node.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RegionStat {
    /// Time inside this region at this node, in nanoseconds.
    pub time_ns: u64,
    /// Event count (calls) of this region at this node.
    pub calls: u64,
    /// Wait-state time attributed to this node's share of the region, in
    /// milliseconds (proportional split of the diagnosis totals).
    pub wait_ms: f64,
}

/// One node of the region trie.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrieNode {
    /// Child nodes, keyed by path component (deterministic order).
    pub children: BTreeMap<String, TrieNode>,
    /// Time attributed to this subtree, in nanoseconds.
    pub inclusive_ns: u64,
    /// Segment executions that landed exactly at this node.
    pub exec_count: u64,
    /// Time of executions that landed exactly at this node, in nanoseconds.
    pub self_ns: u64,
    /// Per-region split of `self_ns`.
    pub regions: BTreeMap<String, RegionStat>,
}

/// The full trie plus the grand total it was normalised against.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RegionTrie {
    /// Synthetic root; its children are the top-level contexts.
    pub root: TrieNode,
    /// Total attributed time across all ranks, in nanoseconds.
    pub total_ns: u64,
}

impl RegionTrie {
    /// Builds the trie from a reduced trace and the diagnosis of its
    /// reconstruction.
    pub(crate) fn build(reduced: &ReducedAppTrace, diagnosis: &Diagnosis) -> RegionTrie {
        let mut root = TrieNode::default();
        for rank in &reduced.ranks {
            for exec in &rank.execs {
                let Some(stored) = rank.stored_segment(exec.segment) else {
                    continue;
                };
                let duration = stored.segment.end.as_nanos();
                let path = reduced.contexts.name_or_unknown(stored.segment.context);
                root.inclusive_ns = root.inclusive_ns.saturating_add(duration);
                let mut node = &mut root;
                for component in path.split('.') {
                    node = node.children.entry(component.to_string()).or_default();
                    node.inclusive_ns = node.inclusive_ns.saturating_add(duration);
                }
                node.exec_count += 1;
                node.self_ns = node.self_ns.saturating_add(duration);
                for event in &stored.segment.events {
                    let region = reduced.regions.name_or_unknown(event.region);
                    let stat = node.regions.entry(region.to_string()).or_default();
                    stat.time_ns = stat.time_ns.saturating_add(event.duration().as_nanos());
                    stat.calls += 1;
                }
            }
        }
        let total_ns = root.inclusive_ns;
        let mut trie = RegionTrie { root, total_ns };
        trie.attribute_waits(diagnosis);
        trie
    }

    /// Splits the diagnosis' per-region wait totals across the trie nodes
    /// proportionally to each node's share of the region's time.
    fn attribute_waits(&mut self, diagnosis: &Diagnosis) {
        let mut wait_by_region: BTreeMap<&str, f64> = BTreeMap::new();
        for entry in diagnosis.entries.values() {
            if entry.metric.is_wait_state() {
                *wait_by_region.entry(entry.region.as_str()).or_default() += entry.total_ms();
            }
        }
        if wait_by_region.is_empty() {
            return;
        }
        let mut time_by_region: BTreeMap<String, u64> = BTreeMap::new();
        sum_region_time(&self.root, &mut time_by_region);
        fn sum_region_time(node: &TrieNode, acc: &mut BTreeMap<String, u64>) {
            for (region, stat) in &node.regions {
                let slot = acc.entry(region.clone()).or_default();
                *slot = slot.saturating_add(stat.time_ns);
            }
            for child in node.children.values() {
                sum_region_time(child, acc);
            }
        }
        fn apply(node: &mut TrieNode, waits: &BTreeMap<&str, f64>, totals: &BTreeMap<String, u64>) {
            for (region, stat) in &mut node.regions {
                let total = totals.get(region).copied().unwrap_or(0);
                if total > 0 {
                    if let Some(wait) = waits.get(region.as_str()) {
                        stat.wait_ms = wait * (stat.time_ns as f64 / total as f64);
                    }
                }
            }
            for child in node.children.values_mut() {
                apply(child, waits, totals);
            }
        }
        apply(&mut self.root, &wait_by_region, &time_by_region);
    }

    /// Renders the trie as an indented text tree, deterministic and
    /// suitable for both the text sink and `<pre>` blocks.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        render_node(&self.root, "", self.total_ns, &mut out);
        out
    }
}

fn render_node(node: &TrieNode, indent: &str, total_ns: u64, out: &mut String) {
    use std::fmt::Write as _;
    for (component, child) in &node.children {
        let percent = if total_ns > 0 {
            child.inclusive_ns as f64 * 100.0 / total_ns as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{indent}{component}  {:.3} ms  ({:.1}%, {} execs)",
            child.inclusive_ns as f64 / 1e6,
            percent,
            child.exec_count
        );
        for (region, stat) in &child.regions {
            let _ = writeln!(
                out,
                "{indent}  [{region}]  {:.3} ms  ({} calls, wait {:.3} ms)",
                stat.time_ns as f64 / 1e6,
                stat.calls,
                stat.wait_ms
            );
        }
        let deeper = format!("{indent}  ");
        render_node(child, &deeper, total_ns, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_analysis::diagnose;
    use trace_model::{
        ContextTable, Event, Rank, ReducedAppTrace, ReducedRankTrace, RegionTable, Segment,
        SegmentExec, StoredSegment, Time,
    };

    fn reduced_fixture() -> ReducedAppTrace {
        let mut contexts = ContextTable::new();
        let top = contexts.intern("main");
        let inner = contexts.intern("main.2");
        let mut regions = RegionTable::new();
        let compute = regions.intern("compute");
        let seg = |ctx, ns| Segment {
            context: ctx,
            start: Time::ZERO,
            end: Time::from_nanos(ns),
            events: vec![Event::compute(compute, Time::ZERO, Time::from_nanos(ns))],
        };
        let rank = ReducedRankTrace {
            rank: Rank(0),
            stored: vec![
                StoredSegment {
                    id: 0,
                    segment: seg(top, 1_000_000),
                    represented: 1,
                },
                StoredSegment {
                    id: 1,
                    segment: seg(inner, 500_000),
                    represented: 2,
                },
            ],
            execs: vec![
                SegmentExec {
                    segment: 0,
                    start: Time::ZERO,
                },
                SegmentExec {
                    segment: 1,
                    start: Time::from_nanos(1_000_000),
                },
                SegmentExec {
                    segment: 1,
                    start: Time::from_nanos(1_500_000),
                },
            ],
        };
        let _ = compute;
        ReducedAppTrace {
            name: "fixture".to_string(),
            regions,
            contexts,
            ranks: vec![rank],
        }
    }

    #[test]
    fn inclusive_time_accumulates_along_the_path() {
        let reduced = reduced_fixture();
        let diagnosis = diagnose(&reduced.reconstruct());
        let trie = RegionTrie::build(&reduced, &diagnosis);
        // Two execs of the 0.5 ms inner segment plus one 1 ms top segment.
        assert_eq!(trie.total_ns, 2_000_000);
        let main = trie.root.children.get("main").expect("main node");
        assert_eq!(main.inclusive_ns, 2_000_000);
        assert_eq!(main.exec_count, 1);
        assert_eq!(main.self_ns, 1_000_000);
        let inner = main.children.get("2").expect("main.2 node");
        assert_eq!(inner.inclusive_ns, 1_000_000);
        assert_eq!(inner.exec_count, 2);
    }

    #[test]
    fn region_rows_split_self_time() {
        let reduced = reduced_fixture();
        let diagnosis = diagnose(&reduced.reconstruct());
        let trie = RegionTrie::build(&reduced, &diagnosis);
        let main = trie.root.children.get("main").expect("main node");
        let stat = main.regions.get("compute").expect("compute row");
        assert_eq!(stat.time_ns, 1_000_000);
        assert_eq!(stat.calls, 1);
    }

    #[test]
    fn render_is_indented_and_deterministic() {
        let reduced = reduced_fixture();
        let diagnosis = diagnose(&reduced.reconstruct());
        let trie = RegionTrie::build(&reduced, &diagnosis);
        let a = trie.render_text();
        let b = trie.render_text();
        assert_eq!(a, b);
        assert!(a.contains("main"));
        assert!(a.contains("[compute]"));
    }
}
