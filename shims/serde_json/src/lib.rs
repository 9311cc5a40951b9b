//! Offline stand-in for `serde_json`: a [`Value`] tree, the [`json!`]
//! constructor macro, RFC 8259 text output via `Display`/`to_string`, and
//! a matching [`from_str`] parser with the upstream accessor surface
//! (`get`, `as_*`, `Index`/`IndexMut`) — the one JSON reader behind the
//! benchmark's `--agree` and the tests that parse exported documents. The
//! parser is total over hostile text: nesting deeper than [`MAX_DEPTH`] is
//! a typed [`Error`], not a stack overflow.

#![forbid(unsafe_code)]
#![deny(clippy::iter_over_hash_type)]

use std::fmt;
use std::ops::{Index, IndexMut};

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer too large for `i64`.
    UInt(u64),
    /// A double (non-finite values print as `null`, as upstream does).
    Float(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::UInt(u) => Some(*u as f64),
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

static NULL: Value = Value::Null;

impl Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl Index<usize> for Value {
    type Output = Value;
    /// Upstream semantics: out-of-bounds or non-array indexing yields
    /// `Value::Null` rather than panicking.
    fn index(&self, i: usize) -> &Value {
        match self {
            Value::Array(items) => items.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl IndexMut<&str> for Value {
    /// Upstream semantics: indexing an object with a missing key inserts
    /// `null` there; indexing a non-object panics.
    fn index_mut(&mut self, key: &str) -> &mut Value {
        let Value::Object(fields) = self else {
            panic!("cannot index non-object JSON value with a string key");
        };
        if let Some(pos) = fields.iter().position(|(k, _)| k == key) {
            return &mut fields[pos].1;
        }
        fields.push((key.to_string(), Value::Null));
        &mut fields.last_mut().expect("just pushed").1
    }
}

/// A parse failure, with a byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error {
    /// What went wrong.
    pub message: String,
    /// Byte offset of the failure.
    pub offset: usize,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for Error {}

/// Deepest array/object nesting [`from_str`] accepts. The parser recurses
/// once per level, so without a bound hostile text (`"[".repeat(200_000)`)
/// overflows the stack and aborts the process.
pub const MAX_DEPTH: usize = 128;

/// Parses RFC 8259 text into a [`Value`].
///
/// # Errors
/// Malformed input, nesting deeper than [`MAX_DEPTH`], or trailing
/// non-whitespace after the top-level value.
pub fn from_str(text: &str) -> Result<Value, Error> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> Error {
        Error { message: message.to_string(), offset: self.pos }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_word(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.bytes.get(self.pos) {
            Some(b'n') => self.expect_word("null", Value::Null),
            Some(b't') => self.expect_word("true", Value::Bool(true)),
            Some(b'f') => self.expect_word("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Runs a container parser one level down, refusing past [`MAX_DEPTH`].
    fn nested(&mut self, container: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting deeper than 128 levels"));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.pos += 1; // [
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Value::Array(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or ']' in array"));
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.pos += 1; // {
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b'"') {
                return Err(self.err("expected a string object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("expected ':' after object key"));
            }
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Value::Object(fields));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or '}' in object"));
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1; // "
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogate pairs: combine \uD800-\uDBFF with
                            // the following low surrogate.
                            let c = if (0xD800..0xDC00).contains(&hex) {
                                let rest = self.bytes.get(self.pos + 5..self.pos + 11);
                                let low = rest
                                    .filter(|r| r.starts_with(b"\\u"))
                                    .and_then(|r| std::str::from_utf8(&r[2..]).ok())
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .filter(|l| (0xDC00..0xE000).contains(l))
                                    .ok_or_else(|| self.err("unpaired surrogate"))?;
                                self.pos += 6;
                                0x10000 + ((hex - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                hex
                            };
                            out.push(char::from_u32(c).ok_or_else(|| self.err("bad codepoint"))?);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x80 => {
                    if b < 0x20 {
                        return Err(self.err("unescaped control character"));
                    }
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: the input is a &str, so this is a
                    // valid sequence; copy the whole char.
                    let s = &self.bytes[self.pos..];
                    let text = std::str::from_utf8(s).map_err(|_| self.err("bad utf-8"))?;
                    let c = text.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// One or more digits.
    fn digits(&mut self) -> Result<(), Error> {
        if !matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            return Err(self.err("expected a digit"));
        }
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }

    /// `-? (0 | [1-9][0-9]*) (\. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        self.eat(b'-');
        if self.eat(b'0') {
            if matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                return Err(self.err("leading zero in number"));
            }
        } else {
            self.digits()?;
        }
        let mut is_float = false;
        if self.eat(b'.') {
            is_float = true;
            self.digits()?;
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            self.digits()?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>().map(Value::Float).map_err(|_| self.err("bad number"))
    }
}

/// Conversion into a [`Value`], used by the [`json!`] macro.
pub trait ToJson {
    /// Converts `self` into a JSON value.
    fn to_json(&self) -> Value;
}

macro_rules! impl_to_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value { Value::Int(*self as i64) }
        }
    )*};
}
impl_to_json_int!(i8, i16, i32, i64, isize, u8, u16, u32);

impl ToJson for u64 {
    fn to_json(&self) -> Value {
        i64::try_from(*self).map(Value::Int).unwrap_or(Value::UInt(*self))
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Value {
        (*self as u64).to_json()
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::Float(*self)
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Value {
        Value::Float(*self as f64)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::String(self.clone())
    }
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        self.as_ref().map_or(Value::Null, ToJson::to_json)
    }
}

/// Free-function form of [`ToJson`], what `json!` expands to.
pub fn to_value<T: ToJson>(v: T) -> Value {
    v.to_json()
}

fn escape(s: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::UInt(u) => write!(f, "{u}"),
            Value::Float(x) if x.is_finite() => {
                if *x == x.trunc() && x.abs() < 1e15 {
                    // Match serde_json: doubles with no fraction keep ".0".
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Float(_) => f.write_str("null"),
            Value::String(s) => escape(s, f),
            Value::Array(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Object(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    escape(k, f)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Builds a [`Value`] from JSON-ish syntax: objects with literal keys,
/// arrays, and arbitrary expressions as values.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($item:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::to_value(&$item) ),* ])
    };
    ({ $($key:literal : $val:expr),* $(,)? }) => {
        $crate::Value::Object(vec![
            // By reference, like upstream: values stay usable after json!.
            $( (($key).to_string(), $crate::to_value(&$val)) ),*
        ])
    };
    ($other:expr) => { $crate::to_value(&$other) };
}

#[cfg(test)]
mod tests {
    #[test]
    fn object_prints_like_serde_json() {
        let v = json!({"a": 1usize, "b": 2.5f64, "s": "x", "t": true});
        assert_eq!(v.to_string(), r#"{"a":1,"b":2.5,"s":"x","t":true}"#);
    }

    #[test]
    fn nested_values_and_arrays() {
        let inner = json!({"k": 7u64});
        let v = json!({"outer": inner, "arr": vec![1u32, 2, 3]});
        assert_eq!(v.to_string(), r#"{"outer":{"k":7},"arr":[1,2,3]}"#);
    }

    #[test]
    fn floats_keep_a_fraction() {
        assert_eq!(json!(3.0f64).to_string(), "3.0");
        assert_eq!(json!(0.125f64).to_string(), "0.125");
        assert_eq!(json!(f64::NAN).to_string(), "null");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(json!("a\"b\n").to_string(), r#""a\"b\n""#);
    }

    #[test]
    fn parse_round_trips_print() {
        let b = vec![json!(true), json!(null), json!("x\ny")];
        let c = json!({"d": -7i64});
        let v = json!({"a": 1usize, "b": b, "c": c});
        let text = v.to_string();
        let back = crate::from_str(&text).expect("parses");
        assert_eq!(back, v);
        assert_eq!(back.to_string(), text);
    }

    #[test]
    fn accessors_read_members() {
        let v = crate::from_str(r#"{"n": 42, "s": "hi", "b": false, "arr": [1, 2]}"#).unwrap();
        assert_eq!(v.get("n").and_then(crate::Value::as_f64), Some(42.0));
        assert_eq!(v["s"].as_str(), Some("hi"));
        assert_eq!(v["b"].as_bool(), Some(false));
        assert_eq!(v["arr"].as_array().map(Vec::len), Some(2));
        assert_eq!(v["missing"], crate::Value::Null);
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn index_mut_inserts_and_overwrites() {
        let mut v = json!({"keep": 1u32});
        v["note"] = json!("added");
        v["keep"] = json!(2u32);
        assert_eq!(v.to_string(), r#"{"keep":2,"note":"added"}"#);
    }

    #[test]
    fn parse_accepts_well_formed_documents() {
        for ok in [
            "null",
            "true",
            "0",
            "-0.5e+3",
            "\"a\\u00e9\\n\"",
            "[]",
            "[1,2,[3]]",
            "{}",
            r#"{"a":1,"b":[{"c":null}],"d":"x"}"#,
            "  { \"k\" : 1.0 }  ",
        ] {
            assert!(crate::from_str(ok).is_ok(), "{ok}");
        }
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "tru",
            "01",
            "-01",
            "1.",
            "1e",
            "-",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{a:1}",
            "\"unterminated",
            "\"bad\\q\"",
            "\"\\ud800\"", // a lone surrogate is not a scalar value
            "[1] trailing",
            "1 2",
            "{},",
        ] {
            assert!(crate::from_str(bad).is_err(), "{bad:?} should fail");
        }
    }

    /// Hostile nesting is a typed error, not a stack overflow: the limit
    /// holds exactly, and far past it the parser still returns.
    #[test]
    fn depth_limit_blocks_stack_abuse() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(crate::from_str(&nested(crate::MAX_DEPTH)).is_ok());
        let err = crate::from_str(&nested(crate::MAX_DEPTH + 1)).expect_err("one level too deep");
        assert_eq!((err.offset, err.message.as_str()), (128, "nesting deeper than 128 levels"));
        assert!(crate::from_str(&"[".repeat(200_000)).is_err());
        assert!(crate::from_str(&"{\"a\":".repeat(200_000)).is_err());
        // Siblings do not accumulate depth.
        assert!(crate::from_str(&format!("[{}[]]", "[[]],".repeat(1000))).is_ok());
    }

    #[test]
    fn parse_handles_numbers_and_unicode_escapes() {
        assert_eq!(crate::from_str("-12").unwrap(), crate::Value::Int(-12));
        assert_eq!(crate::from_str("18446744073709551615").unwrap(), crate::Value::UInt(u64::MAX));
        assert_eq!(crate::from_str("2.5e2").unwrap().as_f64(), Some(250.0));
        assert_eq!(crate::from_str(r#""é😀""#).unwrap().as_str(), Some("é😀"));
    }
}
