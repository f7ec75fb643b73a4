//! A minimal JSON value model, writer and parser.
//!
//! Replaces `serde`/`serde_json` for the workspace's needs: connectivity
//! trace files, staging control messages and experiment reports. Object
//! key order is preserved (insertion order), integers and floats are kept
//! distinct so `u64` microsecond timestamps survive a round trip exactly,
//! and floats print with a decimal point (`2.0`, not `2`) so readers can
//! tell them apart from integers.
//!
//! Types opt in by implementing [`ToJson`] / [`FromJson`] by hand — there
//! is no derive machinery, which keeps this dependency-free.

use std::fmt;

/// A parsed or constructed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer written without decimal point or exponent.
    Int(i64),
    /// A non-integer number (or any number with `.`/`e` in the source).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved.
    Obj(Vec<(String, Json)>),
}

/// Error produced by parsing or by [`FromJson`] conversions.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    msg: String,
}

impl JsonError {
    /// Builds an error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        JsonError { msg: msg.into() }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Serialize a value into a [`Json`] tree.
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

/// Deserialize a value from a [`Json`] tree.
pub trait FromJson: Sized {
    /// Reconstructs `Self`, or explains what was malformed.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

impl Json {
    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Like [`Json::get`] but an error naming the key, for required fields.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::new(format!("missing field `{key}`")))
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `i64` (integers only).
    pub(crate) fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64` (non-negative integers only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as an `f64`; integers widen losslessly where possible.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(x) => Some(*x),
            Json::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, None, 0);
        out
    }

    /// Human-readable rendering with 2-space indentation and a trailing
    /// newline, suitable for files kept under version control.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, Some(2), 0);
        out.push('\n');
        out
    }

    /// Parses a JSON document (must consume all non-whitespace input).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(out: &mut String, v: &Json, indent: Option<usize>, level: usize) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Int(n) => out.push_str(&n.to_string()),
        Json::Float(x) => write_float(out, *x),
        Json::Str(s) => write_string(out, s),
        Json::Arr(items) => write_seq(out, items, indent, level, '[', ']', |out, v, lvl| {
            write_value(out, v, indent, lvl)
        }),
        Json::Obj(pairs) => write_seq(out, pairs, indent, level, '{', '}', |out, (k, val), lvl| {
            write_string(out, k);
            out.push(':');
            if indent.is_some() {
                out.push(' ');
            }
            write_value(out, val, indent, lvl);
        }),
    }
}

fn write_seq<T>(
    out: &mut String,
    items: &[T],
    indent: Option<usize>,
    level: usize,
    open: char,
    close: char,
    mut item: impl FnMut(&mut String, &T, usize),
) {
    out.push(open);
    if items.is_empty() {
        out.push(close);
        return;
    }
    for (i, it) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            for _ in 0..(level + 1) * width {
                out.push(' ');
            }
        }
        item(out, it, level + 1);
    }
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..level * width {
            out.push(' ');
        }
    }
    out.push(close);
}

fn write_float(out: &mut String, x: f64) {
    if x.is_finite() {
        // `{:?}` is the shortest representation that round-trips and always
        // carries a `.0`/exponent, so floats stay visually distinct.
        out.push_str(&format!("{x:?}"));
    } else {
        // JSON has no NaN/Infinity.
        out.push_str("null");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError::new(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The unread input.
    fn rest(&self) -> &'a [u8] {
        self.bytes.get(self.pos..).unwrap_or_default()
    }

    /// The input read since position `start`.
    fn since(&self, start: usize) -> &'a [u8] {
        self.bytes.get(start..self.pos).unwrap_or_default()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.rest().starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("document nested too deeply"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain bytes.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                let chunk = std::str::from_utf8(self.since(start))
                    .map_err(|_| self.err("invalid utf-8 in string"))?;
                s.push_str(chunk);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{0008}'),
                        b'f' => s.push('\u{000C}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect the low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                hi
                            };
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("invalid unicode escape"))?;
                            s.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit in \\u escape"))?;
            v = v * 16 + digit;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(self.since(start)).map_err(|_| self.err("malformed number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("malformed number"))
        } else {
            // Integers that overflow i64 fall back to f64, as serde_json
            // does for arbitrary precision disabled.
            match text.parse::<i64>() {
                Ok(n) => Ok(Json::Int(n)),
                Err(_) => text
                    .parse::<f64>()
                    .map(Json::Float)
                    .map_err(|_| self.err("malformed number")),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Blanket conversions for common primitives
// ---------------------------------------------------------------------------

macro_rules! int_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i64)
            }
        }
    )*};
}
int_to_json!(i8, i16, i32, i64, u8, u16, u32, usize, isize);

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        if *self <= i64::MAX as u64 {
            Json::Int(*self as i64)
        } else {
            Json::Float(*self as f64)
        }
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl FromJson for u64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_u64()
            .ok_or_else(|| JsonError::new("expected non-negative integer"))
    }
}

impl FromJson for i64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_i64().ok_or_else(|| JsonError::new("expected integer"))
    }
}

impl FromJson for usize {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        u64::from_json(v).map(|n| n as usize)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64().ok_or_else(|| JsonError::new("expected number"))
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_bool()
            .ok_or_else(|| JsonError::new("expected boolean"))
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::new("expected string"))
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_arr()
            .ok_or_else(|| JsonError::new("expected array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_structure_and_key_order() {
        let v = Json::Obj(vec![
            ("zebra".into(), Json::Int(1)),
            (
                "alpha".into(),
                Json::Arr(vec![Json::Null, Json::Bool(true)]),
            ),
            ("pi".into(), Json::Float(3.25)),
            ("name".into(), Json::Str("a \"quoted\"\nline".into())),
        ]);
        let text = v.to_string_compact();
        assert!(text.starts_with("{\"zebra\""), "key order lost: {text}");
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert_eq!(Json::parse(&v.to_string_pretty()).unwrap(), v);
    }

    #[test]
    fn floats_keep_their_decimal_point() {
        assert_eq!(Json::Float(2.0).to_string_compact(), "2.0");
        assert_eq!(Json::Float(0.1).to_string_compact(), "0.1");
        assert_eq!(Json::Int(2).to_string_compact(), "2");
        assert_eq!(Json::Float(f64::NAN).to_string_compact(), "null");
    }

    #[test]
    fn large_u64_survives_via_int() {
        let n = (i64::MAX as u64) - 7;
        let j = n.to_json();
        assert_eq!(
            u64::from_json(&Json::parse(&j.to_string_compact()).unwrap()).unwrap(),
            n
        );
    }

    #[test]
    fn parses_handwritten_json_with_whitespace_and_escapes() {
        let text = r#"
          { "name" : "trace-é\t1",
            "periods" : [ {"up": true, "secs": 12}, {"up": false, "secs": 8} ],
            "coverage" : 0.6 }
        "#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("name").unwrap().as_str().unwrap(), "trace-é\t1");
        assert_eq!(v.get("periods").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("coverage").unwrap().as_f64().unwrap(), 0.6);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "\"unterminated",
            "tru",
            "1.2.3",
            "{\"a\":1} trailing",
            "[1 2]",
            "\"bad \\q escape\"",
            "\u{1}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted malformed: {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_bounded_not_a_stack_overflow() {
        let deep = "[".repeat(4000) + &"]".repeat(4000);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn surrogate_pairs_decode() {
        // Escaped surrogate pair decodes to one astral-plane char...
        let v = Json::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "😀");
        // ...and raw (non-escaped) UTF-8 passes straight through.
        assert_eq!(Json::parse(r#""😀""#).unwrap().as_str().unwrap(), "😀");
    }

    #[test]
    fn option_and_vec_conversions() {
        let v: Option<u64> = None;
        assert_eq!(v.to_json(), Json::Null);
        assert_eq!(Option::<u64>::from_json(&Json::Int(3)).unwrap(), Some(3));
        let xs = vec![1u64, 2, 3];
        assert_eq!(Vec::<u64>::from_json(&xs.to_json()).unwrap(), xs);
    }
}
