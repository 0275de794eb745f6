//! Minimal JSON serialisation for experiment output.
//!
//! The repo builds hermetically (no crate registry), so this crate
//! stands in for the slice of `serde`/`serde_json` the workspace used:
//! turning report and benchmark-row structs into JSON strings, plus a
//! small recursive-descent parser ([`from_str`]) with typed field
//! access ([`Json::field`]) used to read traces, fault plans and repro
//! files back.
//!
//! Structs opt in by implementing [`ToJson`], usually via the
//! [`impl_to_json!`] macro which maps named fields 1:1 to object keys
//! (the same shape `#[derive(Serialize)]` produced).

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Unsigned integer, printed without a decimal point.
    UInt(u64),
    /// Signed integer, printed without a decimal point.
    Int(i64),
    /// Floating point; non-finite values serialise as `null`
    /// (JSON has no NaN/Infinity).
    Num(f64),
    /// String (escaped on output).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object; key order is preserved as inserted.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Compact single-line encoding (matches `serde_json::to_string`).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty encoding with two-space indents
    /// (matches `serde_json::to_string_pretty`).
    pub fn encode_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    /// Field `key` of an object. This and the `as_*` readers fail in one
    /// shape — `missing field 'key'` or `expected <what>, got <value>` —
    /// so a reader of a document only adds where it was reading.
    pub fn get(&self, key: &str) -> Result<&Json, String> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field '{key}'")),
            other => Err(other.expected("an object")),
        }
    }

    /// Field `key` read by `read` (one of the `as_*` readers, or a
    /// caller's own on top of them); a type error names the key.
    pub fn field<'a, T>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a Json) -> Result<T, String>,
    ) -> Result<T, String> {
        read(self.get(key)?).map_err(|e| format!("field '{key}': {e}"))
    }

    /// An unsigned integer (a non-negative [`Json::Int`] counts).
    pub fn as_u64(&self) -> Result<u64, String> {
        match *self {
            Json::UInt(n) => Ok(n),
            Json::Int(n) if n >= 0 => Ok(n as u64),
            _ => Err(self.expected("an unsigned integer")),
        }
    }

    /// Any number, integer or float.
    pub fn as_f64(&self) -> Result<f64, String> {
        match *self {
            Json::Num(x) => Ok(x),
            Json::UInt(n) => Ok(n as f64),
            Json::Int(n) => Ok(n as f64),
            _ => Err(self.expected("a number")),
        }
    }

    /// A string.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(self.expected("a string")),
        }
    }

    /// The error of a read that wanted `what`; containers are named, not
    /// printed, so the message stays one line.
    fn expected(&self, what: &str) -> String {
        let got = match self {
            Json::Arr(_) => "an array".to_string(),
            Json::Obj(_) => "an object".to_string(),
            scalar => scalar.encode(),
        };
        format!("expected {what}, got {got}")
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    // Rust's shortest round-trip formatting; integral
                    // values, at every magnitude, get an explicit ".0"
                    // so they parse back as a float, not an integer.
                    if x.fract() == 0.0 {
                        let _ = write!(out, "{x:.1}");
                    } else {
                        let _ = write!(out, "{x}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                    items[i].write(out, indent, depth + 1)
                });
            }
            Json::Obj(fields) => {
                write_seq(out, indent, depth, '{', '}', fields.len(), |out, i| {
                    let (k, v) = &fields[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                });
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
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
        if let Some(w) = indent {
            out.push('\n');
            for _ in 0..w * (depth + 1) {
                out.push(' ');
            }
        }
        item(out, i);
    }
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Conversion into a [`Json`] tree; the analogue of `serde::Serialize`.
pub trait ToJson {
    /// Builds the JSON value for `self`.
    fn to_json(&self) -> Json;
}

/// Compact encoding of any [`ToJson`] value
/// (drop-in for `serde_json::to_string`).
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().encode()
}

/// Pretty encoding of any [`ToJson`] value
/// (drop-in for `serde_json::to_string_pretty`).
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().encode_pretty()
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json { Json::UInt(*self as u64) }
        }
    )*};
}
impl_unsigned!(u8, u16, u32, u64, usize);

// Numbers convert to the one form the parser reads their text back
// as, so a value survives `encode` → `from_str` unchanged: a
// non-negative integer is `UInt` whatever its Rust type, and a
// non-finite float (printed as `null`) is `Null`.
macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                match u64::try_from(*self) {
                    Ok(n) => Json::UInt(n),
                    Err(_) => Json::Int(*self as i64),
                }
            }
        }
    )*};
}
impl_signed!(i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        if self.is_finite() {
            Json::Num(*self)
        } else {
            Json::Null
        }
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        f64::from(*self).to_json()
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

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
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

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

/// Implements [`ToJson`] for a struct with named fields, mapping each
/// field to a same-named object key — the replacement for
/// `#[derive(Serialize)]`.
///
/// ```
/// use het_json::{impl_to_json, to_string};
/// struct Row { system: String, seconds: f64 }
/// impl_to_json!(Row { system, seconds });
/// let row = Row { system: "het".into(), seconds: 1.5 };
/// assert_eq!(to_string(&row), r#"{"system":"het","seconds":1.5}"#);
/// ```
#[macro_export]
macro_rules! impl_to_json {
    ($name:ident { $($field:ident),* $(,)? }) => {
        impl $crate::ToJson for $name {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Obj(vec![
                    $((stringify!($field).to_string(),
                       $crate::ToJson::to_json(&self.$field)),)*
                ])
            }
        }
    };
}

/// Error from [`from_str`]: what went wrong and the byte offset where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// Human-readable description of the failure.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document. Integers that fit become [`Json::UInt`] /
/// [`Json::Int`]; anything with a fraction or exponent becomes
/// [`Json::Num`]. Trailing non-whitespace input is an error.
pub fn from_str(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
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

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn expect_literal(&mut self, lit: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn parse_value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.expect_literal("null", Json::Null),
            Some(b't') => self.expect_literal("true", Json::Bool(true)),
            Some(b'f') => self.expect_literal("false", Json::Bool(false)),
            Some(b'"') => self.parse_string().map(Json::Str),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
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

    fn parse_object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
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
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.parse_hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require a low surrogate.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.parse_hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                hi
                            };
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                        }
                        _ => return Err(self.err("unknown escape character")),
                    }
                }
                // Multi-byte UTF-8 continuation: the input is a &str, so
                // raw bytes are valid UTF-8; copy them through.
                _ if b < 0x20 => return Err(self.err("raw control character in string")),
                _ => {
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len() && self.bytes[end] & 0xC0 == 0x80 {
                        end += 1;
                    }
                    // Safe: start..end is a char boundary-to-boundary slice.
                    out.push_str(std::str::from_utf8(&self.bytes[start..end]).map_err(|_| {
                        ParseError {
                            offset: start,
                            message: "invalid UTF-8".to_string(),
                        }
                    })?);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, ParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .ok()
            .and_then(|s| u32::from_str_radix(s, 16).ok());
        match hex {
            Some(v) => {
                self.pos += 4;
                Ok(v)
            }
            None => Err(self.err("invalid \\u escape")),
        }
    }

    fn parse_number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        if integral {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(x) => Ok(Json::Num(x)),
            Err(_) => Err(ParseError {
                offset: start,
                message: "invalid number".to_string(),
            }),
        }
    }
}

/// FNV-1a 64-bit over `bytes`, continuing from `state` (start from
/// [`FNV_OFFSET`]). Tiny, dependency-free and byte-order independent:
/// the checksum in the store's page footer and the digest the
/// determinism ledger pins each run's report and trace by. A corruption
/// and change check, not a cryptographic seal.
pub fn fnv1a64(bytes: &[u8], mut state: u64) -> u64 {
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(0x0000_0100_0000_01B3);
    }
    state
}

/// The FNV-1a offset basis (initial state).
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_encode() {
        assert_eq!(to_string(&42u64), "42");
        assert_eq!(to_string(&-7i32), "-7");
        assert_eq!(to_string(&true), "true");
        assert_eq!(to_string(&1.5f64), "1.5");
        assert_eq!(to_string(&2.0f64), "2.0");
        assert_eq!(to_string(&f64::NAN), "null");
        assert_eq!(to_string(&f64::INFINITY), "null");
        assert_eq!(to_string("hi"), "\"hi\"");
        assert_eq!(to_string(&Option::<u32>::None), "null");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(to_string("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(to_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn arrays_and_objects() {
        let v = vec![1u64, 2, 3];
        assert_eq!(to_string(&v), "[1,2,3]");
        let obj = Json::Obj(vec![
            ("a".into(), Json::UInt(1)),
            ("b".into(), Json::Arr(vec![])),
        ]);
        assert_eq!(obj.encode(), r#"{"a":1,"b":[]}"#);
    }

    #[test]
    fn macro_matches_serde_shape() {
        struct Row {
            system: String,
            n: usize,
        }
        impl_to_json!(Row { system, n });
        let r = Row {
            system: "test".into(),
            n: 3,
        };
        assert_eq!(to_string(&r), r#"{"system":"test","n":3}"#);
    }

    #[test]
    fn pretty_output_indents() {
        let obj = Json::Obj(vec![("xs".into(), Json::Arr(vec![Json::UInt(1)]))]);
        assert_eq!(obj.encode_pretty(), "{\n  \"xs\": [\n    1\n  ]\n}");
    }

    #[test]
    fn fixed_arrays_encode() {
        let a: [u64; 3] = [4, 5, 6];
        assert_eq!(to_string(&a), "[4,5,6]");
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(from_str("null").unwrap(), Json::Null);
        assert_eq!(from_str("true").unwrap(), Json::Bool(true));
        assert_eq!(from_str(" false ").unwrap(), Json::Bool(false));
        assert_eq!(from_str("42").unwrap(), Json::UInt(42));
        assert_eq!(from_str("-7").unwrap(), Json::Int(-7));
        assert_eq!(from_str("1.5").unwrap(), Json::Num(1.5));
        assert_eq!(from_str("2.0").unwrap(), Json::Num(2.0));
        assert_eq!(from_str("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(from_str("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parse_huge_integers_degrade_to_float() {
        assert_eq!(
            from_str("18446744073709551615").unwrap(),
            Json::UInt(u64::MAX)
        );
        assert!(matches!(
            from_str("18446744073709551616").unwrap(),
            Json::Num(_)
        ));
        assert_eq!(
            from_str("-9223372036854775808").unwrap(),
            Json::Int(i64::MIN)
        );
    }

    #[test]
    fn parse_string_escapes() {
        assert_eq!(
            from_str(r#""a\"b\\c\nd\u0041""#).unwrap(),
            Json::Str("a\"b\\c\ndA".into())
        );
        assert_eq!(
            from_str(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("\u{1F600}".into())
        );
        assert_eq!(from_str("\"héllo\"").unwrap(), Json::Str("héllo".into()));
    }

    #[test]
    fn parse_nested_structures() {
        let v = from_str(r#"{"a":[1,2,{"b":null}],"c":true}"#).unwrap();
        assert_eq!(
            v,
            Json::Obj(vec![
                (
                    "a".into(),
                    Json::Arr(vec![
                        Json::UInt(1),
                        Json::UInt(2),
                        Json::Obj(vec![("b".into(), Json::Null)]),
                    ])
                ),
                ("c".into(), Json::Bool(true)),
            ])
        );
    }

    #[test]
    fn parse_round_trips_encoder_output() {
        let original = Json::Obj(vec![
            ("type".into(), Json::Str("event".into())),
            ("t".into(), Json::UInt(123_456_789)),
            ("w".into(), Json::Null),
            ("metric".into(), Json::Num(0.75)),
            ("neg".into(), Json::Int(-3)),
            ("fields".into(), Json::Obj(vec![])),
            ("tags".into(), Json::Arr(vec![Json::Str("a\"b\n".into())])),
        ]);
        let encoded = original.encode();
        assert_eq!(from_str(&encoded).unwrap(), original);
        let pretty = original.encode_pretty();
        assert_eq!(from_str(&pretty).unwrap(), original);
    }

    #[test]
    fn typed_field_access_reads_and_names_what_failed() {
        let doc = from_str(r#"{"n":3,"neg":-1,"x":0.5,"s":"hi","xs":[1]}"#).unwrap();
        assert_eq!(doc.field("n", Json::as_u64), Ok(3));
        assert_eq!(doc.field("n", Json::as_f64), Ok(3.0));
        assert_eq!(doc.field("neg", Json::as_f64), Ok(-1.0));
        assert_eq!(doc.field("x", Json::as_f64), Ok(0.5));
        assert_eq!(doc.field("s", Json::as_str), Ok("hi"));
        assert_eq!(doc.get("missing").unwrap_err(), "missing field 'missing'");
        assert_eq!(
            doc.field("neg", Json::as_u64).unwrap_err(),
            "field 'neg': expected an unsigned integer, got -1"
        );
        assert_eq!(
            doc.field("xs", Json::as_str).unwrap_err(),
            "field 'xs': expected a string, got an array"
        );
        assert_eq!(
            Json::UInt(1).get("n").unwrap_err(),
            "expected an object, got 1"
        );
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "", "{", "[1,", "tru", "\"abc", "{\"a\"}", "1 2", "{'a':1}", "[1 2]", "\"\\x\"",
            "nulll",
        ] {
            assert!(from_str(bad).is_err(), "should reject {bad:?}");
        }
    }
}
