//! Structural guards: designs this workspace retired, kept retired.
//!
//! Each [`Guard`] row names what must not come back (token patterns, or
//! paths that must not exist), the paths it covers, why, and the commit
//! that set it.  Patterns are matched on the tokens `crate::lexer` gives,
//! so a retired name inside a comment or a string is history and matches
//! nothing.  Test code is scanned like any other: only a
//! [`Form::BeforeTests`] row stops at a file's first `#[cfg(test)]`.
//! `docs/static-analysis.md` lists the rows and says how to add one.

use crate::lexer::{lex, Token, TokenKind};
use crate::report::FileViolation;
use crate::rules::Violation;
use crate::SourceFile;

/// The rule name every guard violation carries.
pub const RULE: &str = "guard";

/// One retired design and where it stays retired.
#[derive(Debug)]
pub struct Guard {
    /// Short name, used in reports and to key the row's fixtures.
    pub name: &'static str,
    /// What is forbidden: token patterns, or for [`Form::Absent`] paths.
    ///
    /// A pattern is source text, lexed as the files are and matched token
    /// for token.  A `*` before a token lets that token start earlier
    /// (`*pivot` matches `split_pivot`); a `*` after the last token lets
    /// it run on (`fn peek*` matches `fn peek_byte`).
    pub patterns: &'static [&'static str],
    /// How the patterns are read.
    pub form: Form,
    /// Workspace-relative files and directories the row covers; a `*`
    /// component matches any one name (`crates/*/src`).  Each must cover
    /// a file, so a move cannot leave the row checking nothing.
    pub paths: &'static [&'static str],
    /// Why the design stays retired.
    pub reason: &'static str,
    /// The commit that set the guard.
    pub since: &'static str,
}

/// How a row's patterns are read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Form {
    /// No pattern may match.
    Anywhere,
    /// No pattern may match, unless this pattern matches inside the hit.
    Except(&'static str),
    /// No pattern may match before a file's first `#[cfg(test)]`.
    BeforeTests,
    /// The patterns may match only in the one file named.
    OnlyIn(&'static str),
    /// The pattern matches exactly once under the row's paths, and that
    /// once under the path named.
    Once(&'static str),
    /// The patterns are workspace-relative paths that must not exist.
    Absent,
}

/// Everything the crates, the facade, their tests and examples cover.
const EVERYWHERE: &[&str] = &["crates", "src", "tests", "examples"];
/// [`EVERYWHERE`] and the root manifest.
const EVERYWHERE_AND_MANIFEST: &[&str] = &["Cargo.toml", "crates", "src", "tests", "examples"];

/// The table of retired designs.
pub const GUARDS: &[Guard] = &[
    Guard {
        name: "twin-entry-points",
        patterns: &[
            "pub fn *_obs",
            "pub fn *_observed",
            "pub fn *_with_scratch",
            "pub fn *_and_search",
            "pub(crate) fn *_obs",
            "pub(crate) fn *_observed",
            "pub(crate) fn *_with_scratch",
            "pub(crate) fn *_and_search",
        ],
        form: Form::Except("fn set_obs"),
        paths: &["crates/*/src"],
        reason: "one driver, one entry point: a `Reducer` carries the recorder and workers \
                 thread their own scratch, so no function needs an observed or scratch twin \
                 (`set_obs` attaches a shard to a reader or writer; it is no twin)",
        since: "9a9872d",
    },
    Guard {
        name: "one-candidate-search",
        patterns: &[
            "*CandidateSearch*",
            "*LinearScan*",
            "*with_search*",
            "*pivot*",
            "*PIVOT*",
        ],
        form: Form::Anywhere,
        paths: &["crates/core/src"],
        reason: "one match loop: the candidate index's window (with its small-bucket scan) is \
                 the only candidate search; no selectable linear scan and no pivot pruning",
        since: "04df11f",
    },
    Guard {
        name: "no-shape-keys-in-the-reducer",
        patterns: &["*SegmentKey*", "*.key()"],
        form: Form::Anywhere,
        paths: &["crates/core/src/reducer.rs", "crates/stream/src"],
        reason: "eligibility is a shape-hash probe verified by `Segment::same_shape`: the \
                 production loops build no owned `SegmentKey` per segment",
        since: "9a82037",
    },
    Guard {
        name: "features-in-one-pass",
        patterns: &[
            "*wavelet_vector_into*",
            "*transform_into*",
            "*coeff_norm_l2*",
        ],
        form: Form::Anywhere,
        paths: &["crates/core/src/features.rs"],
        reason: "per-segment features in one pass: no time-stamp vector, no separate \
                 transform and no eager coefficient norm per segment",
        since: "702ce9d",
    },
    Guard {
        name: "no-extension-methods",
        patterns: &[
            "*ExtendedMethod*",
            "*ExtendedReducer*",
            "*_with_predicate*",
            "*Cdf97*",
        ],
        form: Form::Anywhere,
        paths: EVERYWHERE_AND_MANIFEST,
        reason: "paper methods only: the five extension methods failed the decision table \
                 (EXPERIMENTS.md) and left; `--method` takes exactly the nine paper names",
        since: "f1911ae",
    },
    Guard {
        name: "no-trace-sampling",
        patterns: &[
            "*trace_sampling*",
            "*SamplingPolicy*",
            "*sample_app",
            "*reduce_by_periodicity*",
        ],
        form: Form::Anywhere,
        paths: EVERYWHERE_AND_MANIFEST,
        reason: "paper methods only: trace sampling failed the decision table \
                 (EXPERIMENTS.md) and left the workspace",
        since: "843cadf",
    },
    Guard {
        name: "no-sampling-crate",
        patterns: &["crates/sampling"],
        form: Form::Absent,
        paths: &[],
        reason: "paper methods only: the trace sampling crate left the workspace",
        since: "843cadf",
    },
    Guard {
        name: "no-trace-clustering",
        patterns: &[
            "*trace_clustering*",
            "*KMeansConfig*",
            "*hierarchical_clustering*",
            "*cluster_reduce*",
            "*silhouette_score*",
        ],
        form: Form::Anywhere,
        paths: EVERYWHERE_AND_MANIFEST,
        reason: "paper methods only: trace clustering failed the decision table \
                 (EXPERIMENTS.md) and left the workspace",
        since: "6297f33",
    },
    Guard {
        name: "no-clustering-crate",
        patterns: &["crates/clustering"],
        form: Form::Absent,
        paths: &[],
        reason: "paper methods only: the trace clustering crate left the workspace",
        since: "6297f33",
    },
    Guard {
        name: "one-performance-surface",
        patterns: &[
            "*TRACE_REPRO_PRESET*",
            "\"TRACE_REPRO_PRESET\"",
            "*trace_bench*",
            "*criterion::",
        ],
        form: Form::Anywhere,
        paths: EVERYWHERE_AND_MANIFEST,
        reason: "one performance surface: `benchmark/` times the pipeline and \
                 PAPER_RESULTS.json holds the paper's numbers; the criterion bench crate and \
                 its environment-variable preset knob stay gone",
        since: "bebf207",
    },
    Guard {
        name: "no-criterion-bench",
        patterns: &["crates/bench", "vendor/criterion", "BENCH_matching.json"],
        form: Form::Absent,
        paths: &[],
        reason: "one performance surface: the criterion bench crate, its vendored shim and \
                 the JSON it wrote stay gone",
        since: "bebf207",
    },
    Guard {
        name: "one-evaluator",
        patterns: &[
            "*evaluate_method*",
            "*MethodEvaluation*",
            "*encoded_sizes*",
            "*comparative::",
            "*trend_grids*",
            "*cmd_evaluate*",
        ],
        form: Form::Anywhere,
        paths: EVERYWHERE,
        reason: "one evaluator: `trace_eval::Original::evaluate` computes the paper's four \
                 criteria for the table, `report --full` and the examples; the f64 record, \
                 its per-row re-encoding, the trend-chart module and `evaluate` stay gone",
        since: "a3e20ca",
    },
    Guard {
        name: "one-binary-write-format",
        patterns: &[
            "*MonolithicV1*",
            "*BinaryFormat*",
            "*Codec::Delta",
            "\"chunk-segments\"",
            "(\"v1\",",
        ],
        form: Form::Anywhere,
        paths: EVERYWHERE,
        reason: "one binary write format, a v2 container under `none` or `delta-lz`: the v1 \
                 writer, the chunk-grouping flag, the format enum and the column-only codec \
                 (id 1) stay gone",
        since: "2976f06",
    },
    Guard {
        name: "no-v1-codec",
        patterns: &[
            "*decode_app_trace*",
            "*decode_reduced_trace*",
            "*encode_app_trace*",
            "*encode_reduced_trace*",
            "*BinaryV1*",
            "*FORMAT_VERSION*",
        ],
        form: Form::Anywhere,
        paths: EVERYWHERE,
        reason: "v1 is neither read nor written: its decoders, encoders, input kind and \
                 version constant stay gone, and criterion 1 counts its length without \
                 building it",
        since: "400f164",
    },
    Guard {
        name: "one-scoped-spawn",
        patterns: &["*thread::scope*"],
        form: Form::Once("crates/obs/src"),
        paths: &["crates/*/src"],
        reason: "one fan-out: the reducer, the streaming pipeline and the container writer \
                 all run on `trace_obs::ordered`, which starts its threads in the only scoped \
                 spawn",
        since: "805353c",
    },
    Guard {
        name: "no-vendored-sync-crates",
        patterns: &["*crossbeam*", "*parking_lot*"],
        form: Form::Anywhere,
        paths: &["Cargo.toml", "crates"],
        reason: "one fan-out on std: the crossbeam and parking_lot stand-ins stay gone",
        since: "805353c",
    },
    Guard {
        name: "no-vendored-sync-shims",
        patterns: &["vendor/crossbeam", "vendor/parking_lot"],
        form: Form::Absent,
        paths: &[],
        reason: "one fan-out on std: the vendored crossbeam and parking_lot shims stay gone",
        since: "805353c",
    },
    Guard {
        name: "no-condvar-turns",
        patterns: &["*Condvar*"],
        form: Form::Anywhere,
        paths: &["crates/stream/src"],
        reason: "one fan-out: no worker waits on a condition variable for another's turn",
        since: "22de86b",
    },
    Guard {
        name: "ordered-only-in-shard",
        patterns: &["*trace_obs::ordered("],
        form: Form::OnlyIn("crates/stream/src/shard.rs"),
        paths: &["crates/stream/src"],
        reason: "one fan-out: in `trace_stream` only the pipeline's `shard.rs` calls `ordered`",
        since: "22de86b",
    },
    Guard {
        name: "no-decode-ahead",
        patterns: &[
            "*trace_obs::beside*",
            "fn beside*",
            "*DecodedAhead*",
            "*observe_since*",
            "*decode_wait*",
            "\"stream.decode_wait.ns\"",
        ],
        form: Form::Anywhere,
        paths: EVERYWHERE,
        reason: "every worker reads its source on its own thread: a one-worker run has no \
                 decode stage on a second one, and nothing records its waits",
        since: "8aad230",
    },
    Guard {
        name: "one-in-memory-driver",
        patterns: &["*AppTraceSource*", "*reduce_app_into*"],
        form: Form::Anywhere,
        paths: EVERYWHERE,
        reason: "one in-memory driver, `trace_reduce::reduce_app_parallel`: the stream \
                 crate's second in-memory source and driver stay deleted",
        since: "861f42e",
    },
    Guard {
        name: "no-wavelet-crate",
        patterns: &["crates/wavelet"],
        form: Form::Absent,
        paths: &[],
        reason: "the wavelet transforms stay a module of `trace_reduce`, not a crate",
        since: "861f42e",
    },
    Guard {
        name: "container-writes-stream",
        patterns: &["*_container(Vec::new("],
        form: Form::Anywhere,
        paths: &["crates/cli/src/io.rs"],
        reason: "the CLI streams container bytes through a buffered writer into the output's \
                 temp file; no whole-output buffer sits in between",
        since: "3e20831",
    },
    Guard {
        name: "one-item-type",
        patterns: &["*ContainerItem*"],
        form: Form::Anywhere,
        paths: EVERYWHERE,
        reason: "one reader per format: text and container readers yield the one \
                 `trace_model::AppItem`",
        since: "852c07f",
    },
    Guard {
        name: "cli-reads-the-open-file",
        patterns: &["*read_to_string*", "*fs::read("],
        form: Form::BeforeTests,
        paths: &["crates/cli/src/io.rs"],
        reason: "one reader per format: the CLI feeds the readers from the open file and \
                 reads no input whole (its tests may)",
        since: "852c07f",
    },
    Guard {
        name: "one-text-reader",
        patterns: &["struct Lines*", "fn expect_magic*", "fn parse_header*"],
        form: Form::Anywhere,
        paths: &["crates/format/src"],
        reason: "one reader per format: every text trace, full or reduced, is read by the \
                 pull readers in `trace_format::parser`",
        since: "852c07f",
    },
    Guard {
        name: "one-json-reader",
        patterns: &["struct Reader*", "fn skip_ws*", "fn peek*"],
        form: Form::Anywhere,
        paths: &["crates/obs/src/chrome.rs"],
        reason: "every JSON document is read by `trace_obs::json::parse`: the chrome-trace \
                 reader walks its tree and declares no tokenizer of its own",
        since: "8450723",
    },
];

/// One place a row finds what it forbids.
#[derive(Debug)]
pub struct Hit {
    /// The row.
    pub guard: &'static Guard,
    /// The pattern that matched (for [`Form::Absent`], the path).
    pub pattern: &'static str,
    /// Workspace-relative file, or the path itself.
    pub file: String,
    /// 1-based line, or 0 when the hit is a path rather than a line.
    pub line: usize,
}

impl Hit {
    fn into_violation(self) -> FileViolation {
        let guard = self.guard;
        let what = match guard.form {
            Form::Absent => "exists".to_string(),
            Form::OnlyIn(home) => format!("is only for {home}"),
            Form::Once(home) => format!("must appear exactly once, in {home}"),
            _ => "is retired".to_string(),
        };
        FileViolation {
            file: self.file,
            violation: Violation {
                line: self.line,
                rule: RULE,
                message: format!(
                    "`{}` {what} ({}, since {}): {}",
                    self.pattern, guard.name, guard.since, guard.reason
                ),
            },
        }
    }
}

/// Whether the row path `path` (a `*` component matching any one name)
/// is `file` or one of its parent directories.
pub fn covers(path: &str, file: &str) -> bool {
    let mut names = file.split('/');
    path.split('/')
        .all(|want| names.next().is_some_and(|name| want == "*" || want == name))
}

/// Runs `rows` over `files`; `exists` answers for the [`Form::Absent`]
/// paths.
pub fn check(
    rows: &'static [Guard],
    files: &[SourceFile],
    exists: &dyn Fn(&str) -> bool,
) -> Vec<Hit> {
    let compiled: Vec<Vec<Vec<Want>>> = rows
        .iter()
        .map(|guard| guard.patterns.iter().map(|p| compile(p)).collect())
        .collect();
    let except: Vec<Option<Vec<Want>>> = rows
        .iter()
        .map(|guard| match guard.form {
            Form::Except(pattern) => Some(compile(pattern)),
            _ => None,
        })
        .collect();
    let mut found: Vec<Vec<Hit>> = rows.iter().map(|_| Vec::new()).collect();
    for source in files {
        let file = &source.path;
        for (r, guard) in rows.iter().enumerate() {
            if !guard.paths.iter().any(|path| covers(path, file)) {
                continue;
            }
            for (pattern, want) in guard.patterns.iter().zip(&compiled[r]) {
                // A match's tokens are all substrings of the source, so a
                // file that lacks one cannot match and is not lexed for it.
                if !want.iter().all(|w| source.text.contains(w.text.as_str())) {
                    continue;
                }
                let tokens: &[Token] = &source.lexed().tokens;
                let tokens = match guard.form {
                    Form::BeforeTests => before_tests(tokens),
                    _ => tokens,
                };
                for at in starts(want, tokens) {
                    let hit = &tokens[at..at + want.len()];
                    if except[r]
                        .as_ref()
                        .is_some_and(|ex| starts(ex, hit).next().is_some())
                    {
                        continue;
                    }
                    found[r].push(Hit {
                        guard,
                        pattern,
                        file: file.clone(),
                        line: tokens[at].line,
                    });
                }
            }
        }
    }
    let mut hits = Vec::new();
    for (guard, mut found) in rows.iter().zip(found) {
        match guard.form {
            Form::Absent => found.extend(guard.patterns.iter().filter(|p| exists(p)).map(
                |pattern| Hit {
                    guard,
                    pattern,
                    file: pattern.to_string(),
                    line: 0,
                },
            )),
            Form::OnlyIn(home) => found.retain(|hit| hit.file != home),
            Form::Once(home) => match found.as_slice() {
                [one] if covers(home, &one.file) => found.clear(),
                [] => found.extend(guard.patterns.iter().map(|pattern| Hit {
                    guard,
                    pattern,
                    file: home.to_string(),
                    line: 0,
                })),
                _ => {}
            },
            Form::Anywhere | Form::Except(_) | Form::BeforeTests => {}
        }
        hits.extend(found);
    }
    hits
}

/// The `(row, path)` pairs whose path (a row's path, or its
/// [`Form::OnlyIn`] / [`Form::Once`] home) covers none of `files`.
pub fn stale(rows: &'static [Guard], files: &[&str]) -> Vec<(&'static Guard, &'static str)> {
    let mut out = Vec::new();
    for guard in rows {
        let home = match guard.form {
            Form::OnlyIn(home) | Form::Once(home) => Some(home),
            _ => None,
        };
        for &path in guard.paths.iter().chain(&home) {
            if !files.iter().any(|file| covers(path, file)) {
                out.push((guard, path));
            }
        }
    }
    out
}

/// [`GUARDS`] over the workspace's files, as violations: every hit, and
/// every row path that covers no file.
pub(crate) fn lint(files: &[SourceFile], exists: &dyn Fn(&str) -> bool) -> Vec<FileViolation> {
    let names: Vec<&str> = files.iter().map(|file| file.path.as_str()).collect();
    let stale_paths = stale(GUARDS, &names)
        .into_iter()
        .map(|(guard, path)| FileViolation {
            file: path.to_string(),
            violation: Violation {
                line: 0,
                rule: RULE,
                message: format!(
                    "guard `{}` covers `{path}`, which holds no file: point the row at \
                     where the code moved, or delete the row",
                    guard.name
                ),
            },
        });
    check(GUARDS, files, exists)
        .into_iter()
        .map(Hit::into_violation)
        .chain(stale_paths)
        .collect()
}

/// One pattern token, and whether the file's token may start earlier or
/// run on.
struct Want {
    kind: TokenKind,
    text: String,
    open_start: bool,
    open_end: bool,
}

impl Want {
    fn fits(&self, token: &Token) -> bool {
        token.kind == self.kind
            && match (self.open_start, self.open_end) {
                (false, false) => token.text == self.text,
                (true, false) => token.text.ends_with(&self.text),
                (false, true) => token.text.starts_with(&self.text),
                (true, true) => token.text.contains(&self.text),
            }
    }
}

fn compile(pattern: &str) -> Vec<Want> {
    let tokens = lex(pattern).tokens;
    let last = tokens.len().saturating_sub(1);
    let mut out: Vec<Want> = Vec::new();
    let mut open_start = false;
    for (i, token) in tokens.into_iter().enumerate() {
        if token.kind == TokenKind::Punct && token.text == "*" {
            match out.last_mut() {
                Some(before) if i == last => before.open_end = true,
                _ => open_start = true,
            }
            continue;
        }
        out.push(Want {
            kind: token.kind,
            text: token.text,
            open_start: std::mem::take(&mut open_start),
            open_end: false,
        });
    }
    out
}

/// The indices in `tokens` where `want` matches.
fn starts<'a>(want: &'a [Want], tokens: &'a [Token]) -> impl Iterator<Item = usize> + 'a {
    tokens
        .windows(want.len().max(1))
        .enumerate()
        .filter(move |(_, window)| {
            !want.is_empty() && window.iter().zip(want).all(|(token, w)| w.fits(token))
        })
        .map(|(at, _)| at)
}

/// The tokens before the first `#[cfg(test)]`.
fn before_tests(tokens: &[Token]) -> &[Token] {
    let gate = ["#", "[", "cfg", "(", "test", ")", "]"];
    let end = tokens
        .windows(gate.len())
        .position(|w| w.iter().map(|t| t.text.as_str()).eq(gate))
        .unwrap_or(tokens.len());
    &tokens[..end]
}
