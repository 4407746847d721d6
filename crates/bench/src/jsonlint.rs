//! A minimal JSON validator and reader (recursive descent).
//!
//! The harnesses emit JSON by string formatting — fast and dependency
//! free, but easy to get subtly wrong (a stray `inf`, an unescaped
//! control character, a trailing comma). This module is the safety net:
//! CI and the golden-file tests run every emitted document through
//! [`validate`] before calling it a pass. It accepts exactly the JSON
//! grammar of RFC 8259 (UTF-8 input, no extensions).
//!
//! [`parse`] exposes the same grammar as a small DOM ([`Json`]) for the
//! few places that must *read* a document back — the scaling bench's
//! regression gate compares a fresh run against the committed
//! `BENCH_scaling.json` baseline through it. One parser serves both
//! entry points, so a document `validate` accepts is exactly a document
//! `parse` can load.
//!
//! Nesting is capped at [`MAX_DEPTH`] levels: the daemon parses untrusted
//! request lines, and an unbounded recursive descent would let one line
//! of `[[[[…` overflow a worker's stack and abort the process. Any input
//! yields `Ok` or a [`JsonError`], never a panic.

use std::fmt;

/// Deepest array/object nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// Why a document was rejected, with the byte offset of the violation.
/// Displays as `byte N: message`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JsonError {
    /// Arrays and objects nest deeper than [`MAX_DEPTH`].
    TooDeep {
        /// Offset of the opening bracket one level too deep.
        offset: usize,
    },
    /// Any other departure from the grammar.
    Syntax {
        /// Offset of the offending byte.
        offset: usize,
        /// What was wrong there.
        msg: String,
    },
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::TooDeep { offset } => {
                write!(f, "byte {offset}: nesting deeper than {MAX_DEPTH} levels")
            }
            JsonError::Syntax { offset, msg } => write!(f, "byte {offset}: {msg}"),
        }
    }
}

impl std::error::Error for JsonError {}

/// A parsed JSON value. Object keys keep their document order; duplicate
/// keys are kept as-is ([`Json::get`] answers the first).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON does not distinguish integers from floats).
    Num(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object; `None` on missing key or non-object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The number as an unsigned integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Validate `text` as a single JSON document. Returns `Err` with a byte
/// offset and message on the first violation.
pub fn validate(text: &str) -> Result<(), JsonError> {
    parse(text).map(|_| ())
}

/// Parse `text` as a single JSON document into a [`Json`] DOM. Accepts
/// and rejects exactly what [`validate`] does, with the same errors.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        text,
        i: 0,
        depth: 0,
    };
    p.ws();
    let doc = p.value()?;
    p.ws();
    if p.i != text.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(doc)
}

struct Parser<'a> {
    text: &'a str,
    i: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError::Syntax {
            offset: self.i,
            msg: msg.to_string(),
        }
    }

    /// The unparsed rest of the input, as bytes.
    fn rest(&self) -> &[u8] {
        &self.text.as_bytes()[self.i..]
    }

    fn peek(&self) -> Option<u8> {
        self.rest().first().copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    fn lit(&mut self, s: &str) -> Result<(), JsonError> {
        if self.rest().starts_with(s.as_bytes()) {
            self.i += s.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{s}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(JsonError::TooDeep { offset: self.i });
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.lit("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.lit("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.lit("null").map(|()| Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected byte 0x{c:02x}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.ws();
        let mut members = Vec::new();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            let value = self.value()?;
            members.push((key, value));
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.ws();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            match self.peek() {
                Some(c) if c.is_ascii_hexdigit() => {
                    code = code * 16 + (c as char).to_digit(16).unwrap();
                    self.i += 1;
                }
                _ => return Err(self.err("bad \\u escape")),
            }
        }
        Ok(code)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(c @ (b'"' | b'\\' | b'/')) => {
                            out.push(c as char);
                            self.i += 1;
                        }
                        Some(b'b') => {
                            out.push('\u{8}');
                            self.i += 1;
                        }
                        Some(b'f') => {
                            out.push('\u{c}');
                            self.i += 1;
                        }
                        Some(b'n') => {
                            out.push('\n');
                            self.i += 1;
                        }
                        Some(b'r') => {
                            out.push('\r');
                            self.i += 1;
                        }
                        Some(b't') => {
                            out.push('\t');
                            self.i += 1;
                        }
                        Some(b'u') => {
                            self.i += 1;
                            let mut code = self.hex4()?;
                            // A high surrogate may be completed by an
                            // immediately following `\uDC00`..`\uDFFF`;
                            // anything unpaired decodes to U+FFFD (the
                            // grammar accepts lone surrogates, but Rust
                            // strings cannot carry them).
                            if (0xd800..0xdc00).contains(&code)
                                && self.rest().starts_with(b"\\u")
                            {
                                let mark = self.i;
                                self.i += 2;
                                let low = self.hex4()?;
                                if (0xdc00..0xe000).contains(&low) {
                                    code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                } else {
                                    // Valid escape, but not a low
                                    // surrogate: leave it for the next
                                    // loop iteration.
                                    self.i = mark;
                                }
                            }
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("raw control character in string"))
                }
                Some(_) => {
                    // Copy the run of plain bytes up to the next quote,
                    // escape or control byte in one go. Every byte of a
                    // multi-byte UTF-8 char is >= 0x80, so the run ends on
                    // a char boundary of the (already valid) input.
                    let start = self.i;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                        self.i += 1;
                    }
                    out.push_str(&self.text[start..self.i]);
                }
            }
        }
    }

    fn digits(&mut self) -> Result<(), JsonError> {
        let start = self.i;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.i += 1;
        }
        if self.i == start {
            Err(self.err("expected digit"))
        } else {
            Ok(())
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        // Integer part: `0` alone or a non-zero-led run.
        match self.peek() {
            Some(b'0') => {
                self.i += 1;
                if matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    return Err(self.err("leading zero"));
                }
            }
            Some(c) if c.is_ascii_digit() => self.digits()?,
            _ => return Err(self.err("expected digit")),
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            self.digits()?;
        }
        let text = &self.text[start..self.i];
        let v: f64 = text
            .parse()
            .map_err(|e| self.err(&format!("unparseable number `{text}`: {e}")))?;
        Ok(Json::Num(v))
    }
}

#[cfg(test)]
mod tests {
    use super::{parse, validate, Json, JsonError, MAX_DEPTH};

    #[test]
    fn accepts_valid_documents() {
        for ok in [
            "{}",
            "[]",
            "null",
            "true",
            "-0.5e+3",
            "\"a\\u00e9\\n\"",
            "{\"a\":[1,2,{\"b\":null}],\"c\":\"x\"}",
            " [ 1 , 2 ] ",
            "{\"traceEvents\":[{\"ph\":\"X\",\"ts\":0.003,\"dur\":0.007}]}",
        ] {
            assert!(validate(ok).is_ok(), "{ok}");
        }
    }

    #[test]
    fn rejects_invalid_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "NaN",
            "inf",
            "01",
            "1.",
            "\"\u{1}\"",
            "\"unterminated",
            "{} extra",
            "'single'",
        ] {
            assert!(validate(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn error_reports_byte_offset() {
        let e = validate("[1, NaN]").unwrap_err().to_string();
        assert!(e.starts_with("byte 4:"), "{e}");
    }

    #[test]
    fn parse_builds_the_dom() {
        let doc = parse("{\"rows\":[{\"n\":3,\"rate\":1.5e3,\"name\":\"a b\"}],\"ok\":true}")
            .unwrap();
        let rows = doc.get("rows").and_then(Json::as_array).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(rows[0].get("rate").and_then(Json::as_f64), Some(1500.0));
        assert_eq!(rows[0].get("name").and_then(Json::as_str), Some("a b"));
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn parse_decodes_escapes() {
        assert_eq!(
            parse("\"a\\u00e9\\n\\t\\\"\\\\\"").unwrap(),
            Json::Str("a\u{e9}\n\t\"\\".to_string())
        );
        // Surrogate pair → one astral char; lone surrogate → U+FFFD.
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("\u{1f600}".to_string())
        );
        assert_eq!(parse("\"\\ud800x\"").unwrap(), Json::Str("\u{fffd}x".to_string()));
    }

    #[test]
    fn parse_copies_multibyte_utf8() {
        // 2-, 3- and 4-byte chars, alone, in runs, and at both ends.
        for text in [
            "\u{e9}",
            "\u{20ac}",
            "\u{1f600}",
            "a\u{e9}\u{20ac}\u{1f600}z",
            "\u{1f600}\u{1f600}",
        ] {
            let doc = format!("\"{text}\"");
            assert_eq!(parse(&doc).unwrap(), Json::Str(text.to_string()), "{doc}");
        }
        let doc = parse("{\"\u{e9}t\u{e9}\":[\"\u{4e2d}\u{6587}\"]}").unwrap();
        assert_eq!(
            doc.get("\u{e9}t\u{e9}").and_then(Json::as_array),
            Some(&[Json::Str("\u{4e2d}\u{6587}".to_string())][..])
        );
    }

    #[test]
    fn parse_decodes_escapes_next_to_multibyte_chars() {
        assert_eq!(
            parse("\"\u{e9}\\n\u{20ac}\\t\u{1f600}\\\"\u{1f600}\"").unwrap(),
            Json::Str("\u{e9}\n\u{20ac}\t\u{1f600}\"\u{1f600}".to_string())
        );
        assert_eq!(
            parse("\"\u{20ac}\\u00e9\u{1f600}\\ud83d\\ude00\u{e9}\"").unwrap(),
            Json::Str("\u{20ac}\u{e9}\u{1f600}\u{1f600}\u{e9}".to_string())
        );
        // A raw control byte right after a multi-byte char is still
        // rejected, at its own offset.
        let e = validate("\"\u{20ac}\u{1}\"").unwrap_err();
        assert_eq!(e.to_string(), "byte 4: raw control character in string");
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(validate(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(
            validate(&nested(MAX_DEPTH + 1)),
            Err(JsonError::TooDeep { offset: MAX_DEPTH })
        );
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(matches!(validate(&objects), Err(JsonError::TooDeep { .. })));
        // Far past the cap (and unterminated): an error, not a stack overflow.
        let deep = format!("{{\"op\":\"run\",\"spec\":{}", "[".repeat(100_000));
        assert!(matches!(parse(&deep), Err(JsonError::TooDeep { .. })));
    }

    #[test]
    fn parse_number_edge_cases() {
        assert_eq!(parse("-0.5e+3").unwrap().as_f64(), Some(-500.0));
        assert_eq!(parse("0").unwrap().as_u64(), Some(0));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
    }
}
