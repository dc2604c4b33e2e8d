//! A minimal JSON value: writer and recursive-descent parser.
//!
//! The container image has no crates-io access, so the workspace carries its
//! own (small) JSON support instead of `serde_json`. It covers exactly what
//! the exporters and bench artifacts need: objects, arrays, strings with
//! escaping, f64 numbers, booleans and null. Numbers are emitted with enough
//! precision to round-trip the microsecond timestamps the Chrome exporter
//! produces.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A JSON document node.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. A `BTreeMap` keeps key order deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Build an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Shorthand for a string node.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Shorthand for a number node.
    pub fn num(n: f64) -> Json {
        Json::Num(n)
    }

    /// The node as an object, if it is one.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The node as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The node as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The node as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The node as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Object member lookup (`None` on non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj().and_then(|m| m.get(key))
    }

    fn write<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(v) => {
                out.write_char('[')?;
                for (i, item) in v.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    item.write(out)?;
                }
                out.write_char(']')
            }
            Json::Obj(m) => {
                out.write_char('{')?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    write_str(k, out)?;
                    out.write_char(':')?;
                    v.write(out)?;
                }
                out.write_char('}')
            }
        }
    }
}

impl fmt::Display for Json {
    /// Compact JSON serialisation (`.to_string()` produces the document).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f)
    }
}

/// Write `n` as a JSON number (`null` when it is not finite).
pub(crate) fn write_num<W: fmt::Write>(n: f64, out: &mut W) -> fmt::Result {
    if !n.is_finite() {
        out.write_str("null")
    } else if n == n.trunc() && n.abs() < 1e15 {
        write!(out, "{}", n as i64)
    } else if n.abs() < 0.1 {
        // The shortest text that parses back to `n`; `{}` never uses an
        // exponent.
        write!(out, "{n}")
    } else {
        // From 0.1 up, 17 fractional digits are at least 17 significant
        // ones, which round-trip any f64.
        let mut buf = NumBuf::default();
        write!(buf, "{n:.17}")?;
        // Trim trailing zeros (keep at least one fractional digit).
        let digits = buf.as_str().trim_end_matches('0');
        out.write_str(digits)?;
        if digits.ends_with('.') {
            out.write_char('0')?;
        }
        Ok(())
    }
}

/// Stack room for `{:.17}` of any finite f64: a sign, up to 309 integer
/// digits, the point and 17 fractional digits.
struct NumBuf {
    bytes: [u8; 328],
    len: usize,
}

impl Default for NumBuf {
    fn default() -> Self {
        NumBuf {
            bytes: [0; 328],
            len: 0,
        }
    }
}

impl NumBuf {
    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len]).expect("only whole str slices are copied in")
    }
}

impl fmt::Write for NumBuf {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let end = self.len + s.len();
        self.bytes
            .get_mut(self.len..end)
            .ok_or(fmt::Error)?
            .copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

/// Write `s`'s text as a quoted, escaped JSON string.
pub(crate) fn write_str<W: fmt::Write>(s: impl fmt::Display, out: &mut W) -> fmt::Result {
    out.write_char('"')?;
    write!(Escape(out), "{s}")?;
    out.write_char('"')
}

/// Forwards text with JSON string escapes applied.
struct Escape<'a, W>(&'a mut W);

impl<W: fmt::Write> fmt::Write for Escape<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let out = &mut *self.0;
        for c in s.chars() {
            match c {
                '"' => out.write_str("\\\"")?,
                '\\' => out.write_str("\\\\")?,
                '\n' => out.write_str("\\n")?,
                '\r' => out.write_str("\\r")?,
                '\t' => out.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
                c => out.write_char(c)?,
            }
        }
        Ok(())
    }
}

/// Parse a JSON document. Returns `Err` with a byte offset and message on
/// malformed input.
pub fn parse(text: &str) -> Result<Json, String> {
    let b = text.as_bytes();
    let mut p = Parser { text, b, pos: 0 };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.pos != b.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.pos < self.b.len() && self.b[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.b[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut m = BTreeMap::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            let v = self.value()?;
            m.insert(k, v);
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            self.ws();
            v.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 5 > self.b.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.b[self.pos + 1..self.pos + 5])
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let n = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            // Surrogate pairs are not needed by our own
                            // output; map lone surrogates to U+FFFD.
                            s.push(char::from_u32(n).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one full UTF-8 scalar. `pos` only ever
                    // advances by whole scalars, so it is a char boundary.
                    let c = self.text[self.pos..]
                        .chars()
                        .next()
                        .expect("a byte remains, so a scalar does");
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.b[start..self.pos])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let doc = Json::obj([
            (
                "traceEvents",
                Json::Arr(vec![
                    Json::obj([
                        ("name", Json::str("trap:svc")),
                        ("ph", Json::str("B")),
                        ("ts", Json::num(1.51515151)),
                        ("pid", Json::num(1.0)),
                    ]),
                    Json::Null,
                    Json::Bool(true),
                ]),
            ),
            ("displayTimeUnit", Json::str("ns")),
        ]);
        let text = doc.to_string();
        let back = parse(&text).expect("parse");
        assert_eq!(back, doc);
    }

    #[test]
    fn escapes_round_trip() {
        let doc = Json::str("a\"b\\c\nd\te\u{1}é");
        let text = doc.to_string();
        assert!(text.contains("\\u0001"));
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn numbers_round_trip_from_1e_minus_12_to_1e15() {
        let mut state = 0x6a09_e667_f3bc_c909_u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for _ in 0..20_000 {
            // Cycle counts converted to microseconds at 660 MHz, both ways
            // the exporters compute them, plus arbitrary mantissas at every
            // decade in range.
            let k = (next() % 1_000_000_000) as f64;
            let mantissa = (next() >> 11) as f64 / (1u64 << 53) as f64;
            let scaled = mantissa * 10f64.powi((next() % 28) as i32 - 12);
            for x in [k / 660.0, k * 1e6 / 660e6, scaled, -scaled] {
                let text = Json::num(x).to_string();
                assert!(!text.contains('e'), "{text}");
                assert_eq!(parse(&text).unwrap().as_num(), Some(x), "{text}");
            }
        }
        // One cycle in microseconds needs all 17 significant digits.
        assert_eq!(Json::num(1.0 / 660.0).to_string(), "0.0015151515151515152");
    }

    #[test]
    fn integers_are_written_without_exponent() {
        assert_eq!(Json::num(1515151.0).to_string(), "1515151");
        assert_eq!(Json::num(-3.0).to_string(), "-3");
    }

    #[test]
    fn parses_whitespace_and_rejects_garbage() {
        let v = parse(" { \"a\" : [ 1 , 2.5 , -3e2 ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_num(),
            Some(-300.0)
        );
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("nulll").is_err());
    }
}
