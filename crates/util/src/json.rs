//! The JSON writer for every report the project publishes, and a small
//! reader for checking them.
//!
//! `BENCH_lab.json`, `BENCH_serve.json`, `BENCH_dist.json`,
//! `BENCH_convergence.json` and `profile_<config>.json` are each built
//! as a [`Json`] value and rendered by [`Json::render`], so this module
//! is the only code that knows JSON syntax: quoting, escapes, commas and
//! indentation. A report is a list of members, one per line at its call
//! site:
//!
//! ```
//! use ddsc_util::Json;
//!
//! let doc = Json::obj([
//!     ("schema", "demo-v1".into()),
//!     ("widths", [4u32, 8].into_iter().collect()),
//!     ("seconds", Json::fixed(0.125_04, 3)),
//!     ("speedup", None::<f64>.into()),
//!     ("cells", [Json::obj([("width", 4u32.into()), ("ok", true.into())])].into_iter().collect()),
//! ]);
//! assert_eq!(
//!     doc.render(),
//!     "{\n  \"schema\": \"demo-v1\",\n  \"widths\": [4, 8],\n  \"seconds\": 0.125,\n  \
//!      \"speedup\": null,\n  \"cells\": [\n    {\"width\": 4, \"ok\": true}\n  ]\n}\n"
//! );
//! ```
//!
//! The layout is fixed:
//!
//! - two spaces of indent per level, `"key": value`, and a newline at
//!   the end of the document;
//! - an object whose members are all scalars goes on one line, any
//!   other object puts one member per line;
//! - an array puts one element per line when any element is an object,
//!   otherwise it goes on one line (`[4, 8]`, `[[1, 2], [3, 4]]`);
//! - an empty container is `[]` or `{}`.
//!
//! Numbers are `f64`; every integer a report prints is far below 2^53,
//! so integers print exactly. A float a report rounds is built with
//! [`Json::fixed`] and prints without trailing zeros. A non-finite
//! number prints as `null`, which is what JSON can say about it.
//!
//! The reader keeps object members in document order, so a test can
//! check a published document by its keys and values instead of its
//! layout. Every document this module renders is a fixed point:
//! `Json::parse(&x)?.render() == x`.

use std::fmt::{self, Write as _};

/// A JSON value. Object members keep document order.
///
/// # Examples
///
/// ```
/// use ddsc_util::Json;
///
/// let doc = Json::parse(r#"{"b": 1, "a": [true, null, "x"]}"#).unwrap();
/// assert_eq!(doc.keys(), vec!["b", "a"]);
/// assert_eq!(doc.get("b").and_then(Json::as_f64), Some(1.0));
/// let text = doc.render();
/// assert_eq!(text, "{\n  \"b\": 1,\n  \"a\": [true, null, \"x\"]\n}\n");
/// assert_eq!(Json::parse(&text).unwrap(), doc);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON does not distinguish int from float).
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in document order.
    Obj(Vec<(String, Json)>),
}

/// A parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Num(n.into())
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<f64> for Json {
    /// The number as is; it prints in its shortest exact form.
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    /// `None` is `null`.
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> FromIterator<T> for Json {
    /// Collects into an array.
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// An object with these members, in this order.
    pub fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
        Json::Obj(members.map(|(k, v)| (k.to_string(), v)).into())
    }

    /// `n` rounded to `decimals` places, as `format!("{n:.decimals$}")`
    /// rounds it; it prints without trailing zeros.
    pub fn fixed(n: f64, decimals: usize) -> Json {
        Json::Num(format!("{n:.decimals$}").parse().unwrap_or(n))
    }

    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }

    /// Object member lookup by key; `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object keys in document order; empty for non-objects.
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
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

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Renders the value as a document in the module's fixed layout,
    /// ending with a newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 1e15 => {
                let _ = write!(out, "{}", *n as i64);
            }
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                let multiline = items.iter().any(|v| matches!(v, Json::Obj(_)));
                write_members(
                    out,
                    depth,
                    ('[', ']'),
                    multiline,
                    items.iter().map(|v| (None, v)),
                );
            }
            Json::Obj(members) => {
                let multiline = members
                    .iter()
                    .any(|(_, v)| matches!(v, Json::Arr(_) | Json::Obj(_)));
                let members = members.iter().map(|(k, v)| (Some(k.as_str()), v));
                write_members(out, depth, ('{', '}'), multiline, members);
            }
        }
    }
}

/// Writes a container's members between `open` and `close`: on one
/// line, or one per line indented one level deeper than `depth`. A
/// member with a key is written `"key": value`.
fn write_members<'a>(
    out: &mut String,
    depth: usize,
    (open, close): (char, char),
    multiline: bool,
    members: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
) {
    out.push(open);
    for (i, (key, value)) in members.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if multiline {
            out.push('\n');
            indent(out, depth + 1);
        } else if i > 0 {
            out.push(' ');
        }
        if let Some(key) = key {
            write_string(key, out);
            out.push_str(": ");
        }
        value.write(out, depth + 1);
    }
    // A multi-line container has at least one member.
    if multiline {
        out.push('\n');
        indent(out, depth);
    }
    out.push(close);
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            at: self.pos,
            message,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[', "expected [")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected , or ] in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{', "expected {")?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected : after object key")?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected , or } in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for our
                            // ASCII reports; reject rather than mangle.
                            let c = char::from_u32(hex)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Re-decode UTF-8 from the byte stream.
                    let start = self.pos - 1;
                    let len = utf8_len(b).ok_or_else(|| self.err("invalid UTF-8"))?;
                    let end = start + len;
                    let s = self
                        .bytes
                        .get(start..end)
                        .and_then(|bs| std::str::from_utf8(bs).ok())
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0x00..=0x7f => Some(1),
        0xc0..=0xdf => Some(2),
        0xe0..=0xef => Some(3),
        0xf0..=0xf7 => Some(4),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-2.5e2").unwrap(), Json::Num(-250.0));
        assert_eq!(
            Json::parse(r#""a\nbA""#).unwrap(),
            Json::Str("a\nbA".into())
        );
    }

    #[test]
    fn objects_preserve_member_order() {
        let doc = Json::parse(r#"{"z": 1, "a": 2, "m": 3}"#).unwrap();
        assert_eq!(doc.keys(), vec!["z", "a", "m"]);
        assert_eq!(doc.get("a").unwrap().as_f64(), Some(2.0));
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn nested_structures_round_trip() {
        let text = "{\n  \"name\": \"fig2\",\n  \"rows\": [\n    {\"w\": 4, \"ipc\": 1.25},\n    \
                    {\"w\": 8, \"ipc\": 2.5}\n  ],\n  \"ok\": true,\n  \"none\": null\n}\n";
        let doc = Json::parse(text).unwrap();
        assert_eq!(doc.render(), text);
        let again = Json::parse(&doc.render()).unwrap();
        assert_eq!(again, doc);
    }

    #[test]
    fn layout_follows_the_containers() {
        // Scalar-only objects and object-free arrays stay on one line,
        // nested arrays included.
        let flat = Json::obj([("k", 1u32.into()), ("j", "x".into())]);
        assert_eq!(flat.render(), "{\"k\": 1, \"j\": \"x\"}\n");
        let pairs: Json = [[1u32, 2], [3, 4]]
            .into_iter()
            .map(|p| p.into_iter().collect::<Json>())
            .collect();
        assert_eq!(pairs.render(), "[[1, 2], [3, 4]]\n");
        // An object with a container member goes one member per line,
        // an array with an object element one element per line.
        let doc = Json::obj([
            ("a", Json::Arr(Vec::new())),
            ("o", Json::Obj(Vec::new())),
            ("rows", [flat.clone(), Json::Null].into_iter().collect()),
            ("nested", Json::obj([("pairs", pairs)])),
        ]);
        assert_eq!(
            doc.render(),
            "{\n  \"a\": [],\n  \"o\": {},\n  \"rows\": [\n    {\"k\": 1, \"j\": \"x\"},\n    null\n  ],\n  \
             \"nested\": {\n    \"pairs\": [[1, 2], [3, 4]]\n  }\n}\n"
        );
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn fixed_rounds_like_format_and_drops_trailing_zeros() {
        assert_eq!(Json::fixed(0.5, 6).render(), "0.5\n");
        assert_eq!(Json::fixed(0.012_345_678_9, 6).render(), "0.012346\n");
        assert_eq!(Json::fixed(24.3, 4).render(), "24.3\n");
        assert_eq!(Json::fixed(2.0, 2).render(), "2\n");
        assert_eq!(Json::fixed(-0.000_01, 3).render(), "0\n");
        for n in [0.1, 1.0 / 3.0, 123.456_789, 4000.0 / 1628.0] {
            for d in [2, 3, 4, 6] {
                let text = Json::fixed(n, d).render();
                let printed = format!("{n:.d$}");
                assert_eq!(text.trim_end().parse::<f64>(), printed.parse::<f64>());
                assert!(printed.starts_with(text.trim_end().trim_end_matches('0')));
            }
        }
    }

    #[test]
    fn scalars_convert_and_non_finite_numbers_are_null() {
        assert_eq!(Json::from(true), Json::Bool(true));
        assert_eq!(Json::from(7u32), Json::Num(7.0));
        assert_eq!(Json::from(7u64), Json::Num(7.0));
        assert_eq!(Json::from(7usize), Json::Num(7.0));
        assert_eq!(Json::from(String::from("s")), Json::Str("s".into()));
        assert_eq!(Json::from(None::<u32>), Json::Null);
        assert_eq!(Json::from(Some(1.5)), Json::Num(1.5));
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::from(n).render(), "null\n");
            assert_eq!(Json::fixed(n, 4).render(), "null\n");
        }
    }

    #[test]
    fn json_escape_neutralises_control_and_quote_characters() {
        let render = |s: &str| Json::from(s).render();
        assert_eq!(render("plain"), "\"plain\"\n");
        assert_eq!(
            render("a \"quote\"\nand \\ tab\t"),
            "\"a \\\"quote\\\"\\nand \\\\ tab\\t\"\n"
        );
        assert_eq!(render("\u{1}"), "\"\\u0001\"\n");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1,}",
            "nul",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad:?}");
        }
        let err = Json::parse("[1, }").unwrap_err();
        assert!(err.to_string().contains("byte 4"));
    }

    #[test]
    fn unicode_strings_survive() {
        let doc = Json::parse("\"héllo ∑\"").unwrap();
        assert_eq!(doc.as_str(), Some("héllo ∑"));
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(42.0).render(), "42\n");
        assert_eq!(Json::Num(0.5).render(), "0.5\n");
        assert_eq!(Json::Num(-3.0).render(), "-3\n");
        assert_eq!(Json::Num(-0.0).render(), "0\n");
    }
}
