//! A small self-contained JSON encoder/decoder.
//!
//! The workspace builds fully offline (no serde), so lazylocks carries
//! its own codec. The value model is a deliberately narrow JSON subset:
//!
//! * numbers are **integers only** (`i128`, so every `u64` counter fits
//!   losslessly); floating-point literals are rejected at parse time;
//! * 128-bit fingerprints are represented as 32-digit lower-case hex
//!   *strings* (see [`Json::u128_hex`]) — they exceed every interoperable
//!   JSON number range;
//! * objects preserve insertion order and reject duplicate keys, keeping
//!   encodings canonical and diffs stable.
//!
//! Everything else is standard: full string escaping (including `\uXXXX`
//! with surrogate pairs), arbitrary nesting (depth-capped), and precise
//! error offsets for malformed input.

use std::fmt;

/// Maximum nesting depth accepted by the parser; a guard against stack
/// exhaustion from adversarial input, far above any artifact's real depth.
const MAX_DEPTH: usize = 128;

/// A JSON value (integer-only number model; see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer. `i128` so that `u64` values round-trip losslessly.
    Int(i128),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: ordered key/value pairs, unique keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Encodes `v` as a 32-digit lower-case hex string — the artifact
    /// representation of 128-bit fingerprints.
    pub fn u128_hex(v: u128) -> Json {
        Json::Str(format!("{v:032x}"))
    }

    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The boolean value, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer value, if this is an `Int` that fits in `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The integer value, if this is a non-negative `Int` fitting in `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The integer value, if this is a non-negative `Int` fitting in
    /// `u32`.
    pub fn as_u32(&self) -> Option<u32> {
        self.as_u64().and_then(|v| u32::try_from(v).ok())
    }

    /// The integer value, if this is a non-negative `Int` fitting in
    /// `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The string value, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Decodes a [`Json::u128_hex`]-encoded fingerprint.
    pub fn as_u128_hex(&self) -> Option<u128> {
        let s = self.as_str()?;
        if s.is_empty() || s.len() > 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u128::from_str_radix(s, 16).ok()
    }

    /// The elements, if this is an `Arr`.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Compact single-line encoding.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Human-friendly encoding: two-space indentation, one object member
    /// or array element per line.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, level, '[', ']', items.len(), |out, i| {
                    items[i].write(out, indent, level + 1);
                });
            }
            Json::Obj(pairs) => {
                write_seq(out, indent, level, '{', '}', pairs.len(), |out, i| {
                    let (k, v) = &pairs[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, level + 1);
                });
            }
        }
    }

    /// Parses a complete JSON document (exactly one value plus whitespace).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }
}

/// Integer conversions, so builders such as `TraceEvent::field` take
/// plain values.
macro_rules! json_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Int(v as i128)
            }
        }
    )*};
}
json_from_int!(u32, u64, usize, i64, i128);

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    level: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * (level + 1)));
        }
        item(out, i);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * level));
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure, with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, expected: u8) -> Result<(), JsonError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", expected as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.err(format!("expected {kw:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.eat_keyword("null").map(|()| Json::Null),
            Some(b't') => self.eat_keyword("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat_keyword("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key_offset = self.pos;
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(JsonError {
                    offset: key_offset,
                    message: format!("duplicate object key {key:?}"),
                });
            }
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err("expected a digit"));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.err(
                "floating-point numbers are not part of the artifact format \
                 (integers only)",
            ));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        text.parse::<i128>().map(Json::Int).map_err(|_| JsonError {
            offset: start,
            message: format!("integer out of range: {text}"),
        })
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain (non-escape, non-quote) bytes.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                let chunk =
                    std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| JsonError {
                        offset: start,
                        message: "invalid UTF-8 in string".to_string(),
                    })?;
                out.push_str(chunk);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{08}',
            b'f' => '\u{0c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                if (0xd800..0xdc00).contains(&hi) {
                    // High surrogate: a low surrogate must follow.
                    self.eat(b'\\')
                        .and_then(|()| self.eat(b'u'))
                        .map_err(|_| self.err("high surrogate not followed by \\u escape"))?;
                    let lo = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    let code = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                    char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"))?
                } else if (0xdc00..0xe000).contains(&hi) {
                    return Err(self.err("unexpected low surrogate"));
                } else {
                    char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                }
            }
            other => {
                self.pos -= 1;
                return Err(self.err(format!("invalid escape \\{}", other as char)));
            }
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
            v = v * 16 + digit;
            self.pos += 1;
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Json) {
        let compact = Json::parse(&v.encode()).unwrap();
        assert_eq!(&compact, v, "compact round trip of {}", v.encode());
        let pretty = Json::parse(&v.pretty()).unwrap();
        assert_eq!(&pretty, v, "pretty round trip of {}", v.encode());
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Int(0),
            Json::Int(-1),
            Json::Int(i128::from(u64::MAX)),
            Json::Int(i128::from(i64::MIN)),
            Json::Str(String::new()),
            Json::Str("plain".to_string()),
        ] {
            round_trip(&v);
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        for s in [
            "quote \" backslash \\ slash /",
            "newline \n tab \t return \r",
            "backspace \u{08} formfeed \u{0c}",
            "control \u{01}\u{1f}",
            "unicode: é ∀ 🦀 \u{10FFFF}",
            "null byte \u{0} embedded",
        ] {
            round_trip(&Json::Str(s.to_string()));
        }
    }

    #[test]
    fn parses_foreign_escapes() {
        assert_eq!(
            Json::parse(r#""\u0041\u00e9\ud83e\udd80""#).unwrap(),
            Json::Str("Aé🦀".to_string())
        );
        assert_eq!(Json::parse(r#""\/""#).unwrap(), Json::Str("/".to_string()));
    }

    #[test]
    fn nested_values_round_trip() {
        let v = Json::obj([
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
            (
                "nested",
                Json::Arr(vec![
                    Json::obj([("k", Json::Arr(vec![Json::Null, Json::Int(3)]))]),
                    Json::Bool(false),
                ]),
            ),
        ]);
        round_trip(&v);
    }

    #[test]
    fn u128_hex_fingerprints_round_trip() {
        for fp in [0u128, 1, u128::from(u64::MAX), u128::MAX] {
            let v = Json::u128_hex(fp);
            round_trip(&v);
            assert_eq!(v.as_u128_hex(), Some(fp));
        }
        assert_eq!(Json::Str("xyz".into()).as_u128_hex(), None);
        assert_eq!(Json::Str(String::new()).as_u128_hex(), None);
        // 33 hex digits: too wide.
        assert_eq!(Json::Str("0".repeat(33)).as_u128_hex(), None);
        // `from_str_radix` alone would accept a sign.
        assert_eq!(Json::Str("+1".into()).as_u128_hex(), None);
    }

    #[test]
    fn malformed_inputs_error_with_offsets() {
        for (input, needle) in [
            ("", "end of input"),
            ("nul", "null"),
            ("truefalse", "trailing"),
            ("[1, 2", "',' or ']'"),
            ("{\"a\": }", "unexpected character"),
            ("{\"a\": 1 \"b\": 2}", "',' or '}'"),
            ("{\"a\": 1, \"a\": 2}", "duplicate"),
            ("\"unterminated", "unterminated"),
            ("\"bad \\q escape\"", "invalid escape"),
            ("\"\\ud800 lonely\"", "surrogate"),
            ("\"\\udc00\"", "low surrogate"),
            ("\"\\u12g4\"", "non-hex"),
            ("1.5", "floating-point"),
            ("1e9", "floating-point"),
            ("-", "digit"),
            ("01x", "trailing"),
            ("170141183460469231731687303715884105728", "out of range"),
        ] {
            let err = Json::parse(input).unwrap_err();
            assert!(
                err.message.contains(needle),
                "{input:?}: expected {needle:?} in {err}"
            );
        }
    }

    #[test]
    fn depth_cap_rejects_adversarial_nesting() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("deep"));
        // One level under the cap is fine.
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn accessors() {
        let v = Json::obj([
            ("b", Json::Bool(true)),
            ("n", Json::Int(42)),
            ("s", Json::Str("hi".into())),
            ("a", Json::Arr(vec![Json::Int(1)])),
        ]);
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("n").and_then(Json::as_i64), Some(42));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(42));
        assert_eq!(v.get("n").and_then(Json::as_usize), Some(42));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("hi"));
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Int(-1).as_u64(), None);
        assert_eq!(Json::Int(i128::from(u64::MAX) + 1).as_u64(), None);
        assert_eq!(Json::Null.get("k"), None);
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = Json::parse(" \t\r\n{ \"a\" : [ 1 , 2 ] , \"b\" : null } \n").unwrap();
        assert_eq!(
            v,
            Json::obj([
                ("a", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
                ("b", Json::Null),
            ])
        );
    }
}
