//! Differential tests: the byte-level grammar against the grammar it
//! replaced (`oracle/`), over what the writers produce for all 18 paper
//! workloads and over mutations of it.
//!
//! "Agree" means the same `Ok` value or the same `(line, message)` error.
//! The one documented divergence: the old grammar read ids as
//! `parse_u64(..)? as u32`, so a value above `u32::MAX` aliased a small id;
//! the new grammar rejects it as `invalid <what>: "<token>"`.

mod oracle;

use std::fmt::Debug;

use trace_format::record::{meaningful_line, parse_app_body_line};
use trace_format::{
    parse_app_trace, parse_reduced_trace, write_app_trace, write_reduced_trace, FormatError,
    HeaderBuilder, TraceTables,
};
use trace_reduce::{Method, Reducer};
use trace_sim::{SizePreset, Workload, WorkloadKind};

/// A small deterministic generator (xorshift64*), so failures reproduce.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// True for the error the new grammar gives where the old one truncated.
fn is_u32_range_error(err: &FormatError) -> bool {
    err.message
        .strip_prefix("invalid ")
        .and_then(|rest| rest.rsplit_once(": "))
        .and_then(|(_, token)| token.trim_matches('"').parse::<u64>().ok())
        .is_some_and(|value| value > u64::from(u32::MAX))
}

#[track_caller]
fn assert_agree<T: PartialEq + Debug>(
    old: Result<T, FormatError>,
    new: Result<T, FormatError>,
    input: &str,
) {
    if old == new {
        return;
    }
    match &new {
        Err(err) if is_u32_range_error(err) => {}
        _ => panic!("grammars disagree on {input:?}\n old: {old:?}\n new: {new:?}"),
    }
}

/// Both grammars on one raw line, in both section states.
#[track_caller]
fn check_line(tables: &TraceTables, raw: &str) {
    let old_line = oracle::meaningful_line(raw);
    let new_line = meaningful_line(raw.as_bytes());
    assert_eq!(
        old_line.map(str::as_bytes),
        new_line,
        "line rule on {raw:?}"
    );
    let (Some(old_line), Some(new_line)) = (old_line, new_line) else {
        return;
    };
    for in_rank in [true, false] {
        assert_agree(
            oracle::parse_app_body_line(tables, 7, old_line, in_rank),
            parse_app_body_line(tables, 7, new_line, in_rank),
            raw,
        );
    }
}

/// The values a numeric field is replaced with.
const NUMBERS: [&str; 13] = [
    "0",
    "+7",
    "00000000000000000042",
    "9999999999999999999",
    "18446744073709551615",
    "18446744073709551616",
    "4294967294",
    "4294967295",
    "4294967296",
    "+4294967296",
    "-1",
    "1x",
    "\u{663}",
];

/// Every single-line mutation of `line` the suite knows.
fn line_mutations(line: &str, rng: &mut Rng) -> Vec<String> {
    let mut out = vec![
        line.replace(' ', "  "),
        format!(" \t{line} \r"),
        format!("\u{a0}{line}\u{2003}"),
        format!("{line} extra 1 2"),
        format!("{line}\u{a0}extra"),
        format!("{line}\u{e9}"),
        format!("{line}\u{1}"),
        format!("#{line}"),
        format!("\u{2003} # {line}"),
    ];
    for separator in ["\t", "\x0B", "\x0C", "\r", "\u{a0}", "\u{2003}", "\u{85} "] {
        out.push(line.replace(' ', separator));
    }
    let tokens: Vec<&str> = line.split(' ').collect();
    for keep in 0..tokens.len() {
        out.push(tokens[..keep].join(" "));
    }
    for at in 0..tokens.len() {
        for with in NUMBERS
            .into_iter()
            .chain(["", "\u{a0}", "EVENT", "COMPUTE"])
        {
            let mut tokens = tokens.clone();
            tokens[at] = with;
            out.push(tokens.join(" "));
        }
    }
    // Bit flips that keep the line ASCII (and so `&str`); flips into
    // invalid UTF-8 are the streaming parser's to reject.
    for _ in 0..8 {
        let mut bytes = line.as_bytes().to_vec();
        let at = rng.below(bytes.len());
        bytes[at] ^= 1 << rng.below(7);
        out.push(String::from_utf8(bytes).expect("still ASCII"));
    }
    out
}

/// The tables of a writer-produced trace and its body lines.
fn tables_and_body(text: &str) -> (TraceTables, Vec<&str>) {
    let mut lines = text.lines().skip(1);
    let mut builder = HeaderBuilder::new();
    let mut body = Vec::new();
    for (index, line) in lines.by_ref().enumerate() {
        if !builder
            .feed(index + 2, line.as_bytes())
            .expect("writer output")
        {
            body.push(line);
            break;
        }
    }
    body.extend(lines);
    (builder.finish().expect("writer output"), body)
}

fn tiny_apps() -> Vec<trace_model::AppTrace> {
    let kinds = WorkloadKind::all_paper();
    assert_eq!(kinds.len(), 18);
    kinds
        .into_iter()
        .map(|kind| Workload::new(kind, SizePreset::Tiny).generate())
        .collect()
}

#[test]
fn body_lines_and_their_mutations_parse_alike() {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    for app in tiny_apps() {
        let text = write_app_trace(&app);
        let (tables, body) = tables_and_body(&text);
        // Every line as written; the full mutation set on an even sample.
        let stride = (body.len() / 150).max(1);
        for (index, line) in body.iter().enumerate() {
            check_line(&tables, line);
            if index % stride == 0 {
                for mutated in line_mutations(line, &mut rng) {
                    check_line(&tables, &mutated);
                }
            }
        }
    }
}

/// Whole-file mutations that keep the text a `&str`.
fn file_mutations(text: &str, rng: &mut Rng) -> Vec<String> {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = vec![
        text.to_string(),
        text.replace('\n', "\r\n"),
        text.trim_end().to_string(),
        text.replace(' ', "  "),
        text.replace(' ', "\t"),
        text.replace('\n', " \n\n\u{2003}# note\n \u{a0}\n"),
        lines.iter().map(|l| format!("\x0C{l} \x0B\n")).collect(),
    ];
    // The header grammar is shared (`HeaderBuilder`) and its names keep
    // their blanks verbatim, so respacing and line mutations stay in the
    // body.  (A mutated rank count would also have both parsers reserve
    // whatever it says: ROADMAP item 5a, not this suite's subject.)
    let body_from = lines.iter().position(|l| l.starts_with("RANK"));
    let body_from = body_from.expect("writer output has a RANK line");
    let (header, body) = lines.split_at(body_from);
    for separator in ["\u{a0}", "\u{2003}", " \u{3000} "] {
        let body = body.join("\n").replace(' ', separator);
        out.push(format!("{}\n{body}\n", header.join("\n")));
    }
    // One body line replaced by a mutation of itself, a few times over.
    for _ in 0..24 {
        let at = body_from + rng.below(body.len());
        let mutations = line_mutations(lines[at], rng);
        let mut lines: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        lines[at] = mutations[rng.below(mutations.len())].clone();
        out.push(lines.join("\n") + "\n");
    }
    // A line dropped, a line doubled, the text cut short.
    for _ in 0..6 {
        let at = rng.below(lines.len());
        let mut dropped = lines.clone();
        dropped.remove(at);
        out.push(dropped.join("\n") + "\n");
        let mut doubled = lines.clone();
        doubled.insert(at, lines[at]);
        out.push(doubled.join("\n") + "\n");
        out.push(text[..rng.below(text.len())].to_string());
    }
    out
}

#[test]
fn whole_app_traces_and_their_mutations_parse_alike() {
    let mut rng = Rng(0xD1B5_4A32_D192_ED03);
    for app in tiny_apps() {
        let text = write_app_trace(&app);
        assert_eq!(parse_app_trace(&text).as_ref(), Ok(&app));
        for mutated in file_mutations(&text, &mut rng) {
            assert_agree(
                oracle::parse_app_trace(&mutated),
                parse_app_trace(&mutated),
                &format!("{} ({} bytes)", app.name, mutated.len()),
            );
        }
    }
}

#[test]
fn whole_reduced_traces_and_their_mutations_parse_alike() {
    let mut rng = Rng(0xA076_1D64_78BD_642F);
    for app in tiny_apps() {
        for method in [Method::AvgWave, Method::RelDiff] {
            let reduced = Reducer::with_default_threshold(method).reduce_app(&app);
            let text = write_reduced_trace(&reduced);
            assert_eq!(parse_reduced_trace(&text).as_ref(), Ok(&reduced));
            for mutated in file_mutations(&text, &mut rng) {
                assert_agree(
                    oracle::parse_reduced_trace(&mutated),
                    parse_reduced_trace(&mutated),
                    &format!("{} {method} ({} bytes)", app.name, mutated.len()),
                );
            }
        }
    }
}

#[test]
fn the_documented_divergence_is_only_the_u32_range_check() {
    let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
    let text = write_app_trace(&app);
    let (tables, _) = tables_and_body(&text);
    let over = (u64::from(u32::MAX) + 1).to_string();
    // The old grammar aliased 2^32 to id 0 and accepted the line …
    let line = format!("EVENT {over} 5 10 2 COMPUTE");
    let old = oracle::parse_app_body_line(&tables, 3, &line, true);
    assert_eq!(
        old,
        parse_app_body_line(&tables, 3, b"EVENT 0 5 10 2 COMPUTE", true)
    );
    assert!(old.is_ok());
    // … the new one names the field and the token.
    let err = parse_app_body_line(&tables, 3, line.as_bytes(), true).unwrap_err();
    assert_eq!(
        (err.line, err.message.as_str()),
        (3, "invalid region id: \"4294967296\"")
    );
    assert!(is_u32_range_error(&err));
    // Errors about anything else do not pass as the divergence.
    assert!(!is_u32_range_error(&FormatError::at(
        3,
        "invalid tag: \"7x\""
    )));
    assert!(!is_u32_range_error(&FormatError::at(
        3,
        "invalid tag: \"7\""
    )));
    assert!(!is_u32_range_error(&FormatError::at(3, "missing tag")));
}
