//! Minimal JSON tree, renderer and panic-free parser: the workspace's one
//! JSON reader.
//!
//! The workspace vendors no serde, so every JSON document it reads — run
//! reports, the paper's results table, chrome://tracing exports — is
//! parsed here into a [`JsonValue`] tree and validated by a walk over it
//! that owns the format's schema (`RunReport::from_json`,
//! `trace_eval::results::parse`, [`crate::chrome::parse`]).  The value
//! model is deliberately narrow: objects, arrays, strings, booleans, null
//! and non-negative numbers, none of which is ever rounded.  An integer is
//! a `u64` (durations and byte counts); a decimal fraction
//! (`digits.digits`, such as chrome's microsecond timestamps) is kept as
//! its literal.  Negative numbers and exponents are refused outright;
//! which kind of number a field may hold is its schema's rule.
//!
//! This file is on the xtask lint's decode surface: no indexing, no
//! `unwrap`/`expect`, errors are values.

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer.
    UInt(u64),
    /// A non-negative decimal fraction (`digits.digits`), kept as its
    /// literal so that it is exact and renders back byte for byte.
    Dec(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, preserving insertion order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(entries) => entries
                .iter()
                .find(|(name, _)| name == key)
                .map(|(_, value)| value),
            _ => None,
        }
    }

    /// The integer value, if this is a `UInt`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an `Arr`.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The entries, if this is an `Obj`.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(entries) => Some(entries),
            _ => None,
        }
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::UInt(v) => {
                out.push_str(&v.to_string());
            }
            JsonValue::Dec(literal) => out.push_str(literal),
            JsonValue::Str(s) => escape_into(s, out),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Obj(entries) => {
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `s` as a quoted, escaped JSON string.
pub fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u");
                let code = c as u32;
                for shift in [12u32, 8, 4, 0] {
                    let digit = (code >> shift) & 0xF;
                    out.push(char::from_digit(digit, 16).unwrap_or('0'));
                }
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Maximum nesting depth the parser accepts.
const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document.  Rejects trailing garbage, negative
/// numbers, exponents, leading zeros, integers above `u64::MAX` and
/// nesting deeper than `MAX_DEPTH` (128); never panics.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    match p.peek() {
        None => Ok(value),
        Some(_) => Err(p.err("trailing characters after document")),
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn err(&self, message: &str) -> String {
        format!("json parse error at byte {}: {}", self.pos, message)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, expected: u8) -> Result<(), String> {
        match self.bump() {
            Some(b) if b == expected => Ok(()),
            Some(b) => Err(self.err(&format!(
                "expected '{}', found '{}'",
                expected as char, b as char
            ))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn eat_keyword(&mut self, keyword: &str, value: JsonValue) -> Result<JsonValue, String> {
        for expected in keyword.bytes() {
            self.eat(expected)?;
        }
        Ok(value)
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.eat_keyword("null", JsonValue::Null),
            Some(b't') => self.eat_keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.eat_keyword("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'0'..=b'9') => self.number(),
            Some(b'-') => Err(self.err("negative numbers are outside the report schema")),
            Some(b) => Err(self.err(&format!("unexpected character '{}'", b as char))),
        }
    }

    /// Reads `digits` or `digits '.' digits`: an integer becomes a `UInt`,
    /// a fraction a `Dec` holding its literal.
    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.skip_digits() > 1 && self.bytes.get(start) == Some(&b'0') {
            return Err(self.err("a number has no leading zeros"));
        }
        let fraction = self.peek() == Some(b'.');
        if fraction {
            self.pos += 1;
            if self.skip_digits() == 0 {
                return Err(self.err("digits must follow the decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            return Err(self.err("exponents are outside every schema"));
        }
        // Only ASCII digits and a dot were consumed, so this is UTF-8.
        let literal = match self.bytes.get(start..self.pos).map(std::str::from_utf8) {
            Some(Ok(literal)) => literal,
            _ => return Err(self.err("invalid number")),
        };
        if fraction {
            return Ok(JsonValue::Dec(literal.to_string()));
        }
        literal
            .parse()
            .map(JsonValue::UInt)
            .map_err(|_| self.err("integer overflows u64"))
    }

    /// Consumes a run of ASCII digits and returns its length.
    fn skip_digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let code = self.hex4()?;
                        let c = if (0xD800..0xDC00).contains(&code) {
                            // High surrogate: require a \uXXXX low surrogate.
                            self.eat(b'\\')?;
                            self.eat(b'u')?;
                            let low = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(combined)
                        } else {
                            char::from_u32(code)
                        };
                        match c {
                            Some(c) => out.push(c),
                            None => return Err(self.err("invalid unicode escape")),
                        }
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Multi-byte UTF-8: the input is a &str, so the sequence
                    // is valid; collect its continuation bytes.
                    let mut buf = vec![b];
                    while matches!(self.peek(), Some(next) if (0x80..0xC0).contains(&next)) {
                        match self.bump() {
                            Some(next) => buf.push(next),
                            None => break,
                        }
                    }
                    match std::str::from_utf8(&buf) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return Err(self.err("invalid utf-8 in string")),
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = match self.bump() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.err("invalid hex digit in unicode escape")),
            };
            code = (code << 4) | digit;
        }
        Ok(code)
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(JsonValue::Arr(items)),
                Some(_) => return Err(self.err("expected ',' or ']' in array")),
                None => return Err(self.err("unterminated array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.eat(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            entries.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(JsonValue::Obj(entries)),
                Some(_) => return Err(self.err("expected ',' or '}' in object")),
                None => return Err(self.err("unterminated object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shapes_the_schema_uses() {
        let doc = r#"{"a":1,"b":[true,null,"x"],"c":{"d":18446744073709551615}}"#;
        let value = parse(doc).unwrap();
        assert_eq!(value.get("a").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(
            value
                .get("c")
                .and_then(|c| c.get("d"))
                .and_then(JsonValue::as_u64),
            Some(u64::MAX)
        );
        assert_eq!(parse(&value.render()).unwrap(), value);
    }

    #[test]
    fn rejects_what_the_schema_never_emits() {
        assert!(parse("-1").is_err());
        assert!(parse("1e3").is_err());
        assert!(parse("1.").is_err());
        assert!(parse(".5").is_err());
        assert!(parse("007").is_err());
        assert!(parse("00.5").is_err());
        assert!(parse("1.5e3").is_err());
        assert!(parse("18446744073709551616").is_err());
        assert!(parse("{\"a\":1} junk").is_err());
        assert!(parse("{\"a\"").is_err());
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn decimals_are_exact_and_render_back_byte_for_byte() {
        for literal in ["1.5", "0.042", "18446744073709551.615"] {
            let value = parse(literal).unwrap();
            assert_eq!(value, JsonValue::Dec(literal.to_string()));
            assert_eq!(value.as_u64(), None, "only integers are u64s");
            assert_eq!(value.render(), literal);
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = JsonValue::Str("a\"b\\c\nd\te\u{1}é☃".to_string());
        let rendered = original.render();
        assert_eq!(parse(&rendered).unwrap(), original);
        // Unicode escapes and surrogate pairs parse too.
        assert_eq!(
            parse(r#""é😀""#).unwrap(),
            JsonValue::Str("é😀".to_string())
        );
        assert!(parse(r#""\ud83d""#).is_err(), "lone high surrogate");
    }
}
