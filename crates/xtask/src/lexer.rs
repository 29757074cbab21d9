//! A small, token-aware lexer for Rust source.
//!
//! The lint pass cannot use `syn` (the build environment has no crates
//! registry), so this module implements just enough of the Rust lexical
//! grammar to make the rules reliable: string literals (plain, raw, byte),
//! character literals vs. lifetimes, line and block comments (including
//! nesting and doc comments), and numeric literals with a float/integer
//! distinction.  Everything the rules match on — identifiers, punctuation —
//! comes out of this stream, so a `"unwrap()"` inside a string or a
//! `HashMap` mentioned in a doc comment can never trip a rule.

/// The kind of a significant token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TokenKind {
    /// An identifier or keyword (`foo`, `match`, `r#type`).
    Ident,
    /// Punctuation; multi-character operators the rules care about
    /// (`::`, `==`, `!=`, `..`, `..=`) are fused into one token.
    Punct,
    /// An integer literal (`42`, `0xFF`, `1_000u64`).
    Int,
    /// A float literal (`1.0`, `1e-3`, `2f64`).
    Float,
    /// A string or byte-string literal (plain or raw).
    Str,
    /// A character or byte literal (`'a'`, `b'\n'`).
    Char,
    /// A lifetime (`'a`, `'static`).
    Lifetime,
}

/// One significant token with its 1-based source line.
#[derive(Clone, Debug)]
pub(crate) struct Token {
    /// 1-based line the token starts on.
    pub line: usize,
    /// What sort of token this is.
    pub kind: TokenKind,
    /// The token text (for `Str` the raw source text, delimiters included).
    pub text: String,
}

/// A comment, kept separately from the token stream so the rules can look
/// for `lint:allow` directives without comments affecting token adjacency.
#[derive(Clone, Debug)]
pub(crate) struct Comment {
    /// 1-based line the comment starts on.
    pub line: usize,
    /// Comment body with the `//`, `///`, `/*`, … markers stripped.
    pub text: String,
    /// True when no significant token precedes the comment on its line,
    /// i.e. the comment is the first thing on the line.
    pub leading: bool,
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub(crate) struct Lexed {
    /// Significant tokens in source order.
    pub tokens: Vec<Token>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

/// Lexes `source` into significant tokens and comments.
///
/// The lexer is intentionally forgiving: source that rustc would reject
/// (unterminated string, stray byte) is lexed on a best-effort basis rather
/// than reported, because everything the linter scans is also compiled.
pub(crate) fn lex(source: &str) -> Lexed {
    Lexer::new(source).run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    /// Line number of the most recently pushed token (to compute `leading`).
    last_token_line: usize,
    out: Lexed,
}

impl Lexer {
    fn new(source: &str) -> Self {
        Lexer {
            chars: source.chars().collect(),
            pos: 0,
            line: 1,
            last_token_line: 0,
            out: Lexed::default(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn push_token(&mut self, line: usize, kind: TokenKind, text: String) {
        self.last_token_line = line;
        self.out.tokens.push(Token { line, kind, text });
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(line),
                '/' if self.peek(1) == Some('*') => self.block_comment(line),
                '"' => self.string(line),
                '\'' => self.char_or_lifetime(line),
                'b' if self.peek(1) == Some('"') => {
                    self.bump();
                    self.string(line);
                }
                'b' if self.peek(1) == Some('\'') => {
                    self.bump();
                    self.char_literal(line);
                }
                'b' if self.peek(1) == Some('r') && matches!(self.peek(2), Some('"' | '#')) => {
                    self.bump();
                    self.bump();
                    self.raw_string(line);
                }
                'r' if matches!(self.peek(1), Some('"' | '#')) => {
                    // `r"…"` / `r#"…"#` are raw strings; `r#ident` is a raw
                    // identifier.
                    let mut hashes = 0;
                    while self.peek(1 + hashes) == Some('#') {
                        hashes += 1;
                    }
                    if self.peek(1 + hashes) == Some('"') {
                        self.bump();
                        self.raw_string(line);
                    } else {
                        self.bump(); // r
                        self.bump(); // #
                        self.ident(line);
                    }
                }
                c if c.is_ascii_digit() => self.number(line),
                c if c.is_alphabetic() || c == '_' => self.ident(line),
                _ => self.punct(line),
            }
        }
        self.out
    }

    fn line_comment(&mut self, line: usize) {
        self.bump();
        self.bump();
        // Strip doc markers: `///`, `//!`.
        while matches!(self.peek(0), Some('/' | '!')) {
            self.bump();
        }
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        let leading = self.last_token_line != line;
        self.out.comments.push(Comment {
            line,
            text: text.trim().to_string(),
            leading,
        });
    }

    fn block_comment(&mut self, line: usize) {
        let leading = self.last_token_line != line;
        self.bump();
        self.bump();
        if matches!(self.peek(0), Some('*' | '!')) && self.peek(1) != Some('/') {
            self.bump();
        }
        let mut depth = 1usize;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                self.bump();
                self.bump();
                text.push_str("/*");
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
                text.push_str("*/");
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.out.comments.push(Comment {
            line,
            text: text.trim().to_string(),
            leading,
        });
    }

    fn string(&mut self, line: usize) {
        let mut text = String::new();
        text.push('"');
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            text.push(c);
            if c == '\\' {
                if let Some(esc) = self.bump() {
                    text.push(esc);
                }
            } else if c == '"' {
                break;
            }
        }
        self.push_token(line, TokenKind::Str, text);
    }

    fn raw_string(&mut self, line: usize) {
        // Positioned at `#`* `"` — count hashes, then scan for `"` + hashes.
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        let mut text = String::from("r\"");
        'outer: while let Some(c) = self.bump() {
            if c == '"' {
                let mut matched = 0;
                while matched < hashes {
                    if self.peek(0) == Some('#') {
                        self.bump();
                        matched += 1;
                    } else {
                        text.push('"');
                        for _ in 0..matched {
                            text.push('#');
                        }
                        continue 'outer;
                    }
                }
                break;
            }
            text.push(c);
        }
        text.push('"');
        self.push_token(line, TokenKind::Str, text);
    }

    fn char_or_lifetime(&mut self, line: usize) {
        // Disambiguate `'a'` (char) from `'a` (lifetime): a quote two
        // characters ahead, or an escape, means a char literal.
        let next = self.peek(1);
        if next == Some('\\') || self.peek(2) == Some('\'') {
            self.char_literal(line);
        } else if next.is_some_and(|c| c.is_alphabetic() || c == '_') {
            self.bump(); // '
            let mut text = String::from("'");
            while let Some(c) = self.peek(0) {
                if c.is_alphanumeric() || c == '_' {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.push_token(line, TokenKind::Lifetime, text);
        } else {
            self.char_literal(line);
        }
    }

    fn char_literal(&mut self, line: usize) {
        let mut text = String::new();
        text.push('\'');
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            text.push(c);
            if c == '\\' {
                if let Some(esc) = self.bump() {
                    text.push(esc);
                }
            } else if c == '\'' {
                break;
            }
        }
        self.push_token(line, TokenKind::Char, text);
    }

    fn number(&mut self, line: usize) {
        let mut text = String::new();
        let mut is_float = false;
        let hex = self.peek(0) == Some('0') && matches!(self.peek(1), Some('x' | 'X'));
        while let Some(c) = self.peek(0) {
            if c.is_ascii_alphanumeric() || c == '_' {
                let exponent = matches!(c, 'e' | 'E')
                    && (self.peek(1).is_some_and(|a| a.is_ascii_digit())
                        || (matches!(self.peek(1), Some('+' | '-'))
                            && self.peek(2).is_some_and(|a| a.is_ascii_digit())));
                if !hex && exponent {
                    is_float = true;
                    text.push(c);
                    self.bump();
                    if matches!(self.peek(0), Some('+' | '-')) {
                        text.push(self.bump().unwrap_or('+'));
                    }
                    continue;
                }
                text.push(c);
                self.bump();
            } else if c == '.' {
                // `1.0` continues the literal; `1..2` and `1.max(…)` do not.
                let after = self.peek(1);
                if !hex && after.is_some_and(|a| a.is_ascii_digit()) && !is_float {
                    is_float = true;
                    text.push(c);
                    self.bump();
                } else if !hex
                    && !is_float
                    && !matches!(after, Some('.') | Some('_'))
                    && !after.is_some_and(|a| a.is_alphabetic())
                {
                    // Trailing-dot float: `1.`.
                    is_float = true;
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            } else {
                break;
            }
        }
        if !hex && (text.ends_with("f32") || text.ends_with("f64")) {
            is_float = true;
        }
        let kind = if is_float {
            TokenKind::Float
        } else {
            TokenKind::Int
        };
        self.push_token(line, kind, text);
    }

    fn ident(&mut self, line: usize) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push_token(line, TokenKind::Ident, text);
    }

    fn punct(&mut self, line: usize) {
        let c = self.bump().unwrap_or(' ');
        let mut text = String::from(c);
        // Fuse the multi-character operators the rules inspect.
        match (c, self.peek(0)) {
            (':', Some(':'))
            | ('=', Some('='))
            | ('!', Some('='))
            | ('-', Some('>'))
            | ('=', Some('>')) => {
                text.push(self.bump().unwrap_or(' '));
            }
            ('.', Some('.')) => {
                text.push(self.bump().unwrap_or(' '));
                if self.peek(0) == Some('=') {
                    text.push(self.bump().unwrap_or(' '));
                }
            }
            _ => {}
        }
        self.push_token(line, TokenKind::Punct, text);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_their_contents() {
        let lexed = lex("let s = \"x.unwrap()\"; // calls .unwrap()\n");
        assert!(lexed.tokens.iter().all(|t| t.text != "unwrap"));
        assert_eq!(lexed.comments.len(), 1);
        assert!(lexed.comments[0].text.contains("unwrap"));
        assert!(!lexed.comments[0].leading);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Lifetime && t == "'a"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Char && t == "'x'"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let toks = kinds(r####"let s = r#"quote " inside"#; let t = 1;"####);
        assert!(toks.iter().any(|(k, _)| *k == TokenKind::Str));
        assert!(toks.iter().any(|(_, t)| t == "t"));
    }

    #[test]
    fn float_vs_int_vs_range() {
        let toks = kinds("let a = 1.5; let b = 10; for i in 0..10 {} let c = 2e3;");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Float && t == "1.5"));
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Int && t == "10"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Punct && t == ".."));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Float && t == "2e3"));
    }

    #[test]
    fn nested_block_comments_and_doc_comments() {
        let lexed =
            lex("/* outer /* inner */ still comment */ fn f() {}\n/// doc HashMap\nfn g() {}");
        assert_eq!(lexed.comments.len(), 2);
        assert!(lexed.tokens.iter().all(|t| t.text != "HashMap"));
    }

    #[test]
    fn fused_operators_and_lines() {
        let lexed = lex("a == b;\nx != y;\nstd::process::exit(1);");
        let eq = lexed.tokens.iter().find(|t| t.text == "==").expect("==");
        assert_eq!(eq.line, 1);
        let ne = lexed.tokens.iter().find(|t| t.text == "!=").expect("!=");
        assert_eq!(ne.line, 2);
        assert_eq!(
            lexed.tokens.iter().filter(|t| t.text == "::").count(),
            2,
            "both paths fused"
        );
    }

    #[test]
    fn raw_identifiers_lex_as_idents() {
        let toks = kinds("let r#type = 3;");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "type"));
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let toks = kinds("let a = b\"bytes\"; let c = b'\\n'; let r = br#\"raw\"#;");
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokenKind::Str).count(), 2);
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokenKind::Char).count(),
            1
        );
    }
}
