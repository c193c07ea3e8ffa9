//! Minimal hand-rolled JSON emission and parsing.
//!
//! The workspace is dependency-free by design, so sinks and run
//! reports build their JSON with this module instead of serde. Output
//! is always a single line per object — the JSONL contract. The
//! [`parse`] half exists so tools (the perf-baseline gate, report
//! post-processing) can read those artifacts back without serde.

use std::fmt::Write as _;

use crate::Value;

/// Escapes `s` into `out` as JSON string contents (no surrounding
/// quotes).
pub fn escape_into(out: &mut String, s: &str) {
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
}

/// Formats an `f64` as a JSON number. JSON has no NaN/Infinity, so
/// non-finite values map to `null`.
pub fn fmt_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Incremental single-line JSON object builder.
///
/// ```
/// use sprout_telemetry::json::Obj;
/// let mut o = Obj::new();
/// o.str("name", "grow").u64("rail", 1);
/// assert_eq!(o.finish(), r#"{"name":"grow","rail":1}"#);
/// ```
#[derive(Debug)]
pub struct Obj {
    buf: String,
    any: bool,
}

impl Default for Obj {
    fn default() -> Self {
        Self::new()
    }
}

impl Obj {
    /// Starts an empty object.
    pub fn new() -> Obj {
        Obj {
            buf: String::from("{"),
            any: false,
        }
    }

    fn key(&mut self, key: &str) -> &mut String {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        self.buf.push('"');
        escape_into(&mut self.buf, key);
        self.buf.push_str("\":");
        &mut self.buf
    }

    /// Adds a string member.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Obj {
        let buf = self.key(key);
        buf.push('"');
        escape_into(buf, v);
        buf.push('"');
        self
    }

    /// Adds an unsigned-integer member.
    pub fn u64(&mut self, key: &str, v: u64) -> &mut Obj {
        let buf = self.key(key);
        let _ = write!(buf, "{v}");
        self
    }

    /// Adds a signed-integer member.
    pub fn i64(&mut self, key: &str, v: i64) -> &mut Obj {
        let buf = self.key(key);
        let _ = write!(buf, "{v}");
        self
    }

    /// Adds a float member (`null` when non-finite).
    pub fn f64(&mut self, key: &str, v: f64) -> &mut Obj {
        let buf = self.key(key);
        fmt_f64(buf, v);
        self
    }

    /// Adds a boolean member.
    pub fn bool(&mut self, key: &str, v: bool) -> &mut Obj {
        let buf = self.key(key);
        buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a pre-rendered JSON value verbatim (nested object/array).
    pub fn raw(&mut self, key: &str, v: &str) -> &mut Obj {
        let buf = self.key(key);
        buf.push_str(v);
        self
    }

    /// Adds a typed telemetry [`Value`].
    pub fn value(&mut self, key: &str, v: &Value) -> &mut Obj {
        match v {
            Value::U64(x) => self.u64(key, *x),
            Value::I64(x) => self.i64(key, *x),
            Value::F64(x) => self.f64(key, *x),
            Value::Bool(x) => self.bool(key, *x),
            Value::Str(x) => self.str(key, x),
        }
    }

    /// Closes the object and returns the rendered line (no trailing
    /// newline).
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Renders an iterator of pre-rendered JSON values as an array.
pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
    let mut buf = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(&item);
    }
    buf.push(']');
    buf
}

/// Renders an iterator of plain strings as a JSON array of strings.
pub fn str_array<'a, I: IntoIterator<Item = &'a str>>(items: I) -> String {
    array(items.into_iter().map(|s| {
        let mut buf = String::from("\"");
        escape_into(&mut buf, s);
        buf.push('"');
        buf
    }))
}

/// A parsed JSON value.
///
/// Non-negative integer literals that fit a `u64` are kept exactly, so
/// seeds and 64-bit fingerprints round-trip bit for bit; every other
/// number is an `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal (no sign, fraction or exponent)
    /// that fits a `u64`.
    Int(u64),
    /// Any other JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member by key, or `None` for non-objects/missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if numeric and integral.
    /// Exact for integer literals of any `u64` size.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => Some(*v),
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object members.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Parses a complete JSON document. Trailing content is an error.
///
/// ```
/// use sprout_telemetry::json::parse;
/// let v = parse(r#"{"a":[1,2],"b":"x"}"#).unwrap();
/// assert_eq!(v.get("b").and_then(|b| b.as_str()), Some("x"));
/// ```
///
/// # Errors
///
/// Returns a human-readable description with a byte offset on
/// malformed input.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            members.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy the longest escape-free ASCII/UTF-8 run.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                let run = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid UTF-8 at byte {start}"))?;
                out.push_str(run);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| format!("unterminated escape at byte {}", self.pos))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| {
                                    format!("truncated \\u escape at byte {}", self.pos)
                                })?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogate pairs are not emitted by our
                            // writer; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("unknown escape at byte {}", self.pos - 1)),
                    }
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        if text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_controls_and_quotes() {
        let mut out = String::new();
        escape_into(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(out, "a\\\"b\\\\c\\nd\\te\\u0001");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut o = Obj::new();
        o.f64("nan", f64::NAN)
            .f64("inf", f64::INFINITY)
            .f64("ok", 1.5);
        assert_eq!(o.finish(), r#"{"nan":null,"inf":null,"ok":1.5}"#);
    }

    #[test]
    fn builder_chains_all_types() {
        let mut o = Obj::new();
        o.str("s", "x")
            .u64("u", 2)
            .i64("i", -3)
            .bool("b", false)
            .raw("arr", &str_array(["a", "b"]));
        assert_eq!(
            o.finish(),
            r#"{"s":"x","u":2,"i":-3,"b":false,"arr":["a","b"]}"#
        );
    }

    #[test]
    fn typed_values_render() {
        let mut o = Obj::new();
        o.value("v", &Value::Str("q\"q".into()));
        assert_eq!(o.finish(), r#"{"v":"q\"q"}"#);
    }

    #[test]
    fn parse_round_trips_builder_output() {
        let mut o = Obj::new();
        o.str("name", "grow \"fast\"\n")
            .u64("solves", 42)
            .f64("ms", 1.25)
            .bool("ok", true)
            .raw("curve", &array(["1", "0.5", "0.01"].map(String::from)));
        let v = parse(&o.finish()).unwrap();
        assert_eq!(
            v.get("name").and_then(Json::as_str),
            Some("grow \"fast\"\n")
        );
        assert_eq!(v.get("solves").and_then(Json::as_u64), Some(42));
        assert_eq!(v.get("ms").and_then(Json::as_f64), Some(1.25));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        let curve = v.get("curve").and_then(Json::as_array).unwrap();
        assert_eq!(curve.len(), 3);
        assert_eq!(curve[2].as_f64(), Some(0.01));
    }

    #[test]
    fn parse_handles_nesting_whitespace_and_literals() {
        let v = parse(" { \"a\" : [ 1 , { \"b\" : null } , -2.5e1 ] , \"t\" : false } ").unwrap();
        let a = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].get("b"), Some(&Json::Null));
        assert_eq!(a[2].as_f64(), Some(-25.0));
        assert_eq!(v.get("t"), Some(&Json::Bool(false)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a":}"#).is_err());
        assert!(parse(r#"{"a":1} extra"#).is_err());
        assert!(parse(r#"["unterminated"#).is_err());
        assert!(parse("01a").is_err());
    }

    #[test]
    fn parse_decodes_escapes() {
        let v = parse(r#""a\"b\\c\ndA\t€""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA\t\u{20ac}"));
        let u = parse("\"\\u0041\\u00e9\"").unwrap();
        assert_eq!(u.as_str(), Some("A\u{e9}"));
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("-3").unwrap().as_u64(), None);
        assert_eq!(parse("3").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn integers_parse_exactly_and_floats_as_before() {
        let big = (1u64 << 53) + 1;
        assert_eq!(parse(&big.to_string()).unwrap().as_u64(), Some(big));
        assert_eq!(
            parse(&u64::MAX.to_string()).unwrap().as_u64(),
            Some(u64::MAX)
        );
        assert_eq!(parse("7").unwrap().as_f64(), Some(7.0));
        assert_eq!(parse("2.5").unwrap().as_f64(), Some(2.5));
        assert_eq!(parse("1e3").unwrap().as_u64(), Some(1000));
        // Past u64 the literal is still a number, just not an exact one.
        assert_eq!(
            parse("18446744073709551616").unwrap().as_f64(),
            Some(2f64.powi(64))
        );
    }
}
