//! The three rule families and the `lint:allow` escape hatch.
//!
//! Rules operate on the token stream from `crate::lexer`, never on raw
//! text, so string/comment contents cannot trip them.  Code under
//! `#[cfg(test)]` is stripped before the rules run: tests may unwrap and
//! index freely — the invariants protect production decode and reduction
//! paths, not assertions.

use crate::lexer::{lex, Comment, Lexed, Token, TokenKind};
use crate::surface::FileClass;

/// Names of every rule the pass can emit, used by the CLI and docs.
pub const RULE_NAMES: &[&str] = &[
    "unwrap",
    "expect",
    "panic",
    "indexing",
    "narrowing_cast",
    "hash_collection",
    "wall_clock",
    "float_eq",
    "partial_cmp",
    "thread_count",
    "forbid_unsafe",
    "process_exit",
    "print_stdout",
    "dbg",
    "bad_allow",
    "unused_allow",
    crate::guards::RULE,
];

/// One rule violation in one file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// 1-based source line.
    pub line: usize,
    /// Rule name (one of [`RULE_NAMES`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

/// One used `lint:allow` escape hatch, inventoried for the JSON report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllowEntry {
    /// 1-based line of the allow comment.
    pub line: usize,
    /// The rule being allowed.
    pub rule: String,
    /// The written justification after `--`.
    pub justification: String,
}

/// The outcome of linting one file.
#[derive(Clone, Debug, Default)]
pub struct FileFindings {
    /// Violations not covered by a justified allow.
    pub violations: Vec<Violation>,
    /// Allows that suppressed at least one violation.
    pub allows: Vec<AllowEntry>,
}

/// Lints one file's source text under the given classification.
pub fn lint_source(source: &str, class: FileClass) -> FileFindings {
    lint_lexed(&lex(source), class)
}

/// Lints one file's tokens and comments under the given classification.
pub(crate) fn lint_lexed(lexed: &Lexed, class: FileClass) -> FileFindings {
    let stripped = strip_test_code(&lexed.tokens);
    let mut candidates = scan(&stripped, class);
    if class.crate_root && !has_forbid_unsafe(&lexed.tokens) {
        candidates.push(Violation {
            line: 1,
            rule: "forbid_unsafe",
            message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        });
    }
    apply_allows(candidates, &lexed.comments)
}

// ---------------------------------------------------------------------------
// `#[cfg(test)]` stripping
// ---------------------------------------------------------------------------

/// Returns the token stream with every `#[cfg(test)]`- or `#[test]`-gated
/// item removed.  Detection is exact-match on the attribute tokens, so
/// `#[cfg(not(test))]` (production code) is kept.
fn strip_test_code(tokens: &[Token]) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].text == "#" && matches(tokens, i + 1, &["["]) {
            let attr_end = match matching_bracket(tokens, i + 1) {
                Some(e) => e,
                None => {
                    out.push(tokens[i].clone());
                    i += 1;
                    continue;
                }
            };
            let attr: Vec<&str> = tokens[i..=attr_end]
                .iter()
                .map(|t| t.text.as_str())
                .collect();
            let is_test_gate =
                attr == ["#", "[", "cfg", "(", "test", ")", "]"] || attr == ["#", "[", "test", "]"];
            if is_test_gate {
                i = skip_item(tokens, attr_end + 1);
                continue;
            }
            // Any other attribute: copy it through verbatim.
            out.extend_from_slice(&tokens[i..=attr_end]);
            i = attr_end + 1;
            continue;
        }
        out.push(tokens[i].clone());
        i += 1;
    }
    out
}

fn matches(tokens: &[Token], at: usize, texts: &[&str]) -> bool {
    texts
        .iter()
        .enumerate()
        .all(|(k, t)| tokens.get(at + k).is_some_and(|tok| tok.text == *t))
}

/// Given the index of a `[`, returns the index of its matching `]`.
fn matching_bracket(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, tok) in tokens.iter().enumerate().skip(open) {
        match tok.text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Skips one item starting at `from` (any further attributes, then either a
/// braced body or a `;`-terminated item) and returns the index just past it.
fn skip_item(tokens: &[Token], mut from: usize) -> usize {
    // Skip stacked attributes on the same item.
    while from < tokens.len() && tokens[from].text == "#" && matches(tokens, from + 1, &["["]) {
        match matching_bracket(tokens, from + 1) {
            Some(e) => from = e + 1,
            None => return tokens.len(),
        }
    }
    let mut depth = 0usize;
    while from < tokens.len() {
        match tokens[from].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return from + 1;
                }
            }
            ";" if depth == 0 => return from + 1,
            _ => {}
        }
        from += 1;
    }
    from
}

// ---------------------------------------------------------------------------
// Token-level rules
// ---------------------------------------------------------------------------

/// Identifier-position keywords: a `[` after one of these opens a slice
/// pattern or array expression, not an index operation.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "macro", "match", "mod",
    "move", "mut", "pub", "ref", "return", "static", "struct", "super", "trait", "true", "type",
    "unsafe", "use", "where", "while", "yield",
];

const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

fn scan(tokens: &[Token], class: FileClass) -> Vec<Violation> {
    let mut out = Vec::new();
    let push = |out: &mut Vec<Violation>, line: usize, rule: &'static str, message: String| {
        out.push(Violation {
            line,
            rule,
            message,
        });
    };
    for (i, tok) in tokens.iter().enumerate() {
        let prev = i.checked_sub(1).and_then(|p| tokens.get(p));
        let next = tokens.get(i + 1);
        let prev_text = prev.map(|t| t.text.as_str()).unwrap_or("");
        let next_text = next.map(|t| t.text.as_str()).unwrap_or("");
        match tok.kind {
            TokenKind::Ident => match tok.text.as_str() {
                "unwrap" if class.decode_surface && prev_text == "." => push(
                    &mut out,
                    tok.line,
                    "unwrap",
                    "`.unwrap()` on a decode surface; return a typed error".to_string(),
                ),
                "expect" if class.decode_surface && prev_text == "." => push(
                    &mut out,
                    tok.line,
                    "expect",
                    "`.expect()` on a decode surface; return a typed error".to_string(),
                ),
                m if class.decode_surface && PANIC_MACROS.contains(&m) && next_text == "!" => {
                    push(
                        &mut out,
                        tok.line,
                        "panic",
                        format!("`{m}!` on a decode surface; return a typed error"),
                    );
                }
                "HashMap" | "HashSet" if class.determinism => push(
                    &mut out,
                    tok.line,
                    "hash_collection",
                    format!(
                        "`{}` in a determinism crate; use the BTree equivalent",
                        tok.text
                    ),
                ),
                "Instant" | "SystemTime" if class.determinism => push(
                    &mut out,
                    tok.line,
                    "wall_clock",
                    format!("`{}` in a determinism crate; wall-clock reads are nondeterministic", tok.text),
                ),
                "partial_cmp" if class.determinism && prev_text == "." => push(
                    &mut out,
                    tok.line,
                    "partial_cmp",
                    "`.partial_cmp()` in a determinism crate; use `total_cmp` for floats".to_string(),
                ),
                "available_parallelism" if class.determinism => push(
                    &mut out,
                    tok.line,
                    "thread_count",
                    "thread-count query in a determinism crate; output must not depend on worker count"
                        .to_string(),
                ),
                "process"
                    if !class.bin_crate
                        && next_text == "::"
                        && tokens
                            .get(i + 2)
                            .is_some_and(|t| t.text == "exit" || t.text == "abort") =>
                {
                    push(
                        &mut out,
                        tok.line,
                        "process_exit",
                        "`std::process::exit`/`abort` outside the cli crate".to_string(),
                    );
                }
                "println" | "print" if !class.bin_crate && next_text == "!" => push(
                    &mut out,
                    tok.line,
                    "print_stdout",
                    format!("`{}!` in a library crate; return or log instead", tok.text),
                ),
                "dbg" if next_text == "!" => push(
                    &mut out,
                    tok.line,
                    "dbg",
                    "`dbg!` left in source".to_string(),
                ),
                _ => {}
            },
            TokenKind::Punct if tok.text == "[" && class.decode_surface => {
                let indexes = prev.is_some_and(|p| {
                    (p.kind == TokenKind::Ident && !KEYWORDS.contains(&p.text.as_str()))
                        || p.text == ")"
                        || p.text == "]"
                        || p.text == "?"
                });
                if indexes && !is_full_range(tokens, i) {
                    push(
                        &mut out,
                        tok.line,
                        "indexing",
                        "indexing can panic on a decode surface; use `.get()`/`first_chunk` or bound-check"
                            .to_string(),
                    );
                }
            }
            TokenKind::Punct
                if tok.text == "?"
                    && class.decode_surface
                    && next_text == "as"
                    && tokens
                        .get(i + 2)
                        .is_some_and(|t| matches!(t.text.as_str(), "u8" | "u16" | "u32")) =>
            {
                push(
                    &mut out,
                    tok.line,
                    "narrowing_cast",
                    "a fallible read narrowed with `as` on a decode surface; an out-of-range \
                     value must be a typed error (`try_from`), not an alias of its low bits"
                        .to_string(),
                );
            }
            TokenKind::Punct if (tok.text == "==" || tok.text == "!=") && class.determinism => {
                let float_adjacent = prev.is_some_and(|p| p.kind == TokenKind::Float)
                    || next.is_some_and(|n| n.kind == TokenKind::Float);
                if float_adjacent {
                    push(
                        &mut out,
                        tok.line,
                        "float_eq",
                        "float equality comparison in a determinism crate".to_string(),
                    );
                }
            }
            _ => {}
        }
    }
    out
}

/// True when the `[` at `open` encloses exactly `..` (a full-range slice,
/// which cannot panic).
fn is_full_range(tokens: &[Token], open: usize) -> bool {
    matching_bracket(tokens, open)
        .is_some_and(|close| close == open + 2 && tokens[open + 1].text == "..")
}

fn has_forbid_unsafe(tokens: &[Token]) -> bool {
    tokens.windows(8).any(|w| {
        w[0].text == "#"
            && w[1].text == "!"
            && w[2].text == "["
            && w[3].text == "forbid"
            && w[4].text == "("
            && w[5].text == "unsafe_code"
            && w[6].text == ")"
            && w[7].text == "]"
    })
}

// ---------------------------------------------------------------------------
// lint:allow
// ---------------------------------------------------------------------------

struct ParsedAllow {
    line: usize,
    target_line: usize,
    rules: Vec<String>,
    justification: Option<String>,
    used: bool,
}

/// Parses `lint:allow(rule, …) -- justification` comments.  A trailing
/// comment covers its own line; a comment alone on a line covers the next
/// line.
fn parse_allows(comments: &[Comment]) -> Vec<ParsedAllow> {
    let mut out = Vec::new();
    for c in comments {
        let Some(rest) = c.text.trim().strip_prefix("lint:allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rules: Vec<String> = rest
            .get(..close)
            .unwrap_or("")
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let after = rest.get(close + 1..).unwrap_or("").trim();
        let justification = after
            .strip_prefix("--")
            .map(|j| j.trim().to_string())
            .filter(|j| !j.is_empty());
        out.push(ParsedAllow {
            line: c.line,
            target_line: if c.leading { c.line + 1 } else { c.line },
            rules,
            justification,
            used: false,
        });
    }
    out
}

fn apply_allows(candidates: Vec<Violation>, comments: &[Comment]) -> FileFindings {
    let mut allows = parse_allows(comments);
    let mut findings = FileFindings::default();
    for v in candidates {
        let cover = allows.iter_mut().find(|a| {
            a.target_line == v.line
                && a.rules.iter().any(|r| r == v.rule)
                && a.justification.is_some()
        });
        if let Some(a) = cover {
            a.used = true;
        } else {
            findings.violations.push(v);
        }
    }
    for a in &allows {
        if a.justification.is_none() {
            findings.violations.push(Violation {
                line: a.line,
                rule: "bad_allow",
                message: "lint:allow without a `-- justification`".to_string(),
            });
        } else if !a.used {
            findings.violations.push(Violation {
                line: a.line,
                rule: "unused_allow",
                message: format!(
                    "lint:allow({}) does not suppress anything on its target line",
                    a.rules.join(", ")
                ),
            });
        } else {
            for rule in &a.rules {
                findings.allows.push(AllowEntry {
                    line: a.line,
                    rule: rule.clone(),
                    justification: a.justification.clone().unwrap_or_default(),
                });
            }
        }
    }
    findings.violations.sort_by_key(|v| (v.line, v.rule));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode() -> FileClass {
        FileClass {
            decode_surface: true,
            ..FileClass::default()
        }
    }

    fn det() -> FileClass {
        FileClass {
            determinism: true,
            ..FileClass::default()
        }
    }

    fn rules_of(f: &FileFindings) -> Vec<&str> {
        f.violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn unwrap_fires_only_on_decode_surface() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert_eq!(rules_of(&lint_source(src, decode())), ["unwrap"]);
        assert!(lint_source(src, FileClass::default()).violations.is_empty());
    }

    #[test]
    fn test_modules_are_stripped() {
        let src = "#[cfg(test)]\nmod tests {\n fn f(x: Option<u8>) -> u8 { x.unwrap() }\n}\n";
        assert!(lint_source(src, decode()).violations.is_empty());
        // But cfg(not(test)) is production code.
        let src = "#[cfg(not(test))]\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(rules_of(&lint_source(src, decode())), ["unwrap"]);
    }

    #[test]
    fn indexing_flags_panicky_brackets_only() {
        let fired = |src: &str| !lint_source(src, decode()).violations.is_empty();
        assert!(fired("fn f(b: &[u8]) -> u8 { b[0] }"));
        assert!(fired("fn f(b: &[u8]) -> &[u8] { &b[1..] }"));
        assert!(!fired("fn f(b: &[u8]) -> &[u8] { &b[..] }"), "full range");
        assert!(!fired("fn f() -> [u8; 2] { [1, 2] }"), "array literal");
        assert!(
            !fired("fn f(b: [u8; 2]) -> u8 { let [x, _] = b; x }"),
            "pattern"
        );
        assert!(!fired("#[derive(Clone)] struct S;"), "attribute");
        assert!(!fired("fn f() -> Vec<u8> { vec![1] }"), "macro bang");
    }

    #[test]
    fn narrowing_cast_flags_a_fallible_read_cast_down_unchecked() {
        let aliased = "fn f(r: &mut R) -> Result<u32, E> { Ok(read_u64(r)? as u32) }";
        assert_eq!(
            rules_of(&lint_source(aliased, decode())),
            ["narrowing_cast"]
        );
        assert!(lint_source(aliased, FileClass::default())
            .violations
            .is_empty());
        for narrow in ["u16", "u8"] {
            let src = format!("fn f(s: &mut S) -> Result<T, E> {{ Ok(s.next()? as {narrow}) }}");
            assert_eq!(
                rules_of(&lint_source(&src, decode())),
                ["narrowing_cast"],
                "{narrow}"
            );
        }
        // A local that was range-checked first, a widening cast and a cast
        // to a pointer-sized count are not this rule's business.
        for fine in [
            "fn f(x: u64) -> Option<u32> { if x > 9 { return None; } Some(x as u32) }",
            "fn f(r: &mut R) -> Result<u64, E> { Ok(read_u32(r)? as u64) }",
            "fn f(r: &mut R) -> Result<usize, E> { Ok(read_u64(r)? as usize) }",
        ] {
            assert!(lint_source(fine, decode()).violations.is_empty(), "{fine}");
        }
        // Test code narrows as it likes.
        let in_tests = format!("#[cfg(test)]\nmod tests {{ {aliased} }}\n");
        assert!(lint_source(&in_tests, decode()).violations.is_empty());
    }

    #[test]
    fn determinism_rules() {
        let f = lint_source(
            "use std::collections::HashMap;\nfn f(a: f64) -> bool { a == 1.0 }\n",
            det(),
        );
        assert_eq!(rules_of(&f), ["hash_collection", "float_eq"]);
        let f = lint_source(
            "fn f(a: f64, b: f64) -> std::cmp::Ordering { a.partial_cmp(&b).unwrap() }",
            det(),
        );
        assert_eq!(rules_of(&f), ["partial_cmp"]);
        let f = lint_source("use std::time::Instant;", det());
        assert_eq!(rules_of(&f), ["wall_clock"]);
    }

    #[test]
    fn allow_suppresses_and_is_inventoried() {
        let src =
            "fn f(b: &[u8]) -> u8 {\n    b[0] // lint:allow(indexing) -- caller checked len\n}\n";
        let f = lint_source(src, decode());
        assert!(f.violations.is_empty(), "{:?}", f.violations);
        assert_eq!(f.allows.len(), 1);
        assert_eq!(f.allows[0].rule, "indexing");
        assert_eq!(f.allows[0].justification, "caller checked len");
    }

    #[test]
    fn leading_allow_covers_the_next_line() {
        let src = "fn f(b: &[u8]) -> u8 {\n    // lint:allow(indexing) -- caller checked len\n    b[0]\n}\n";
        assert!(lint_source(src, decode()).violations.is_empty());
    }

    #[test]
    fn allow_without_justification_is_a_violation() {
        let src = "fn f(b: &[u8]) -> u8 { b[0] } // lint:allow(indexing)\n";
        let findings = lint_source(src, decode());
        let rules = rules_of(&findings);
        assert!(rules.contains(&"bad_allow"), "{rules:?}");
        assert!(rules.contains(&"indexing"), "bad allow must not suppress");
    }

    #[test]
    fn unused_allow_is_a_violation() {
        let src = "fn f() {} // lint:allow(unwrap) -- nothing here\n";
        assert_eq!(rules_of(&lint_source(src, decode())), ["unused_allow"]);
    }

    #[test]
    fn forbid_unsafe_checked_on_crate_roots() {
        let root = FileClass {
            crate_root: true,
            ..FileClass::default()
        };
        let f = lint_source("pub fn f() {}", root);
        assert_eq!(rules_of(&f), ["forbid_unsafe"]);
        let f = lint_source("#![forbid(unsafe_code)]\npub fn f() {}", root);
        assert!(f.violations.is_empty());
    }

    #[test]
    fn hygiene_rules_respect_bin_crates() {
        let lib = FileClass::default();
        let bin = FileClass {
            bin_crate: true,
            ..FileClass::default()
        };
        let src = "fn f() { println!(\"x\"); std::process::exit(1); }";
        let findings = lint_source(src, lib);
        let rules = rules_of(&findings);
        assert!(rules.contains(&"print_stdout"));
        assert!(rules.contains(&"process_exit"));
        assert!(lint_source(src, bin).violations.is_empty());
        assert_eq!(rules_of(&lint_source("fn f() { dbg!(1); }", bin)), ["dbg"]);
    }
}
