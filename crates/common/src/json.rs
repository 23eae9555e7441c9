//! In-tree JSON serialization: value model, writer, parser, and the
//! [`ToJson`]/[`FromJson`] traits.
//!
//! The workspace builds fully offline, so instead of `serde_json` we
//! carry a small, dependency-free JSON layer here. It deliberately
//! mirrors the `serde_json` surface the harness code was written
//! against:
//!
//! * [`JsonValue`] plays the role of `serde_json::Value`, including
//!   `Index`/`IndexMut` by key and index (missing keys read as `Null`,
//!   `IndexMut` auto-vivifies objects), the `as_*` accessors, and
//!   `PartialEq<&str>`.
//! * [`json!`](crate::json!) builds literal values with the familiar
//!   object/array syntax.
//! * [`ToJson`]/[`FromJson`] replace `Serialize`/`Deserialize`, with the
//!   same data-format conventions: newtype structs serialize as their
//!   inner value, unit enum variants as strings, and data-carrying enum
//!   variants externally tagged (`{"Acquire": {"lock": 0}}`).
//!   Reports, configs and results are write-only ([`ToJson`] alone);
//!   [`FromJson`] serves only trace interchange, where `tracegen run`
//!   reads programs back.
//! * [`to_string`], [`to_string_pretty`], and [`from_str`] are drop-in
//!   call-site replacements; pretty output uses 2-space indentation.
//!
//! Object key order is insertion order, so emitted `results/*.json`
//! files are stable across runs.

use std::fmt;

/// A parsed or constructed JSON document.
///
/// Numbers keep their source flavor (`Int`/`UInt`/`Float`) so that
/// `u64` counters round-trip exactly, but [`PartialEq`] compares
/// numerically across flavors (`Int(1) == UInt(1) == Float(1.0)`).
#[derive(Debug, Clone)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A negative (or otherwise signed) integer.
    Int(i64),
    /// A non-negative integer.
    UInt(u64),
    /// A floating-point number. Non-finite values serialize as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; insertion-ordered key/value pairs.
    Object(Vec<(String, JsonValue)>),
}

static NULL: JsonValue = JsonValue::Null;

impl JsonValue {
    /// Look up a key in an object. Returns `None` for missing keys and
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Look up an element in an array. Returns `None` out of bounds and
    /// for non-arrays.
    pub(crate) fn get_idx(&self, idx: usize) -> Option<&JsonValue> {
        match self {
            JsonValue::Array(items) => items.get(idx),
            _ => None,
        }
    }

    /// Like [`get`](Self::get) but returns a descriptive error for use
    /// in [`FromJson`] impls.
    pub fn field(&self, key: &str) -> Result<&JsonValue, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field `{key}`"))
    }

    /// The array contents, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<JsonValue>> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value as `f64` (any number flavor).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::UInt(u) => Some(*u as f64),
            JsonValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Numeric value as `u64`, if non-negative and integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(u) => Some(*u),
            JsonValue::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// True if this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    /// Parse a JSON document. Rejects trailing garbage.
    pub fn parse(input: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Serialize with 2-space indentation (matches
    /// `serde_json::to_string_pretty`).
    pub(crate) fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(i) => {
                out.push_str(&i.to_string());
            }
            JsonValue::UInt(u) => {
                out.push_str(&u.to_string());
            }
            JsonValue::Float(f) => write_f64(out, *f),
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_compact(out);
                }
                out.push(']');
            }
            JsonValue::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Array(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            JsonValue::Object(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            _ => self.write_compact(out),
        }
    }
}

fn push_indent(out: &mut String, n: usize) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

fn write_f64(out: &mut String, f: f64) {
    if !f.is_finite() {
        // serde_json serializes NaN/Inf as null; keep that contract.
        out.push_str("null");
    } else if f == f.trunc() && f.abs() < 1e15 {
        // Integral floats print with a trailing ".0" so the flavor
        // survives a round-trip (serde_json prints 1.0, not 1).
        out.push_str(&format!("{f:.1}"));
    } else {
        out.push_str(&format!("{f}"));
    }
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

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_compact(&mut out);
        f.write_str(&out)
    }
}

impl PartialEq for JsonValue {
    fn eq(&self, other: &JsonValue) -> bool {
        use JsonValue::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Str(a), Str(b)) => a == b,
            (Array(a), Array(b)) => a == b,
            (Object(a), Object(b)) => a == b,
            // Numbers compare by value across flavors.
            (Int(a), Int(b)) => a == b,
            (UInt(a), UInt(b)) => a == b,
            (Float(a), Float(b)) => a == b,
            (Int(a), UInt(b)) | (UInt(b), Int(a)) => {
                u64::try_from(*a).map(|a| a == *b).unwrap_or(false)
            }
            (Int(a), Float(b)) | (Float(b), Int(a)) => (*a as f64) == *b,
            (UInt(a), Float(b)) | (Float(b), UInt(a)) => (*a as f64) == *b,
            _ => false,
        }
    }
}

impl PartialEq<&str> for JsonValue {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<str> for JsonValue {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<JsonValue> for &str {
    fn eq(&self, other: &JsonValue) -> bool {
        other.as_str() == Some(*self)
    }
}

impl std::ops::Index<&str> for JsonValue {
    type Output = JsonValue;
    fn index(&self, key: &str) -> &JsonValue {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<String> for JsonValue {
    type Output = JsonValue;
    fn index(&self, key: String) -> &JsonValue {
        self.get(&key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<&String> for JsonValue {
    type Output = JsonValue;
    fn index(&self, key: &String) -> &JsonValue {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for JsonValue {
    type Output = JsonValue;
    fn index(&self, idx: usize) -> &JsonValue {
        self.get_idx(idx).unwrap_or(&NULL)
    }
}

impl std::ops::IndexMut<&str> for JsonValue {
    /// Auto-vivifying object access, `serde_json` style: indexing a
    /// `Null` turns it into an empty object, and a missing key is
    /// inserted as `Null`. Panics on non-object, non-null values.
    fn index_mut(&mut self, key: &str) -> &mut JsonValue {
        if self.is_null() {
            *self = JsonValue::Object(Vec::new());
        }
        match self {
            JsonValue::Object(pairs) => {
                if let Some(i) = pairs.iter().position(|(k, _)| k == key) {
                    &mut pairs[i].1
                } else {
                    pairs.push((key.to_string(), JsonValue::Null));
                    &mut pairs.last_mut().expect("just pushed").1
                }
            }
            other => panic!("cannot index {other:?} with a string key"),
        }
    }
}

impl std::ops::IndexMut<String> for JsonValue {
    fn index_mut(&mut self, key: String) -> &mut JsonValue {
        self.index_mut(key.as_str())
    }
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

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// What the parser is looking at, for an error message: the
    /// character in backticks, or "end of input".
    fn found(&self) -> String {
        match self.peek() {
            Some(c) => format!("`{}`", c as char),
            None => "end of input".to_string(),
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}, found {}",
                b as char,
                self.pos,
                self.found()
            ))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        let v = match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') if self.eat_keyword("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(JsonValue::Bool(false)),
            Some(b'n') if self.eat_keyword("null") => Ok(JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected {} at byte {}", self.found(), self.pos)),
        };
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
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
                    return Ok(JsonValue::Object(pairs));
                }
                _ => {
                    return Err(format!(
                        "expected `,` or `}}` at byte {}, found {}",
                        self.pos,
                        self.found()
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => {
                    return Err(format!(
                        "expected `,` or `]` at byte {}, found {}",
                        self.pos,
                        self.found()
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| format!("invalid UTF-8 in string: {e}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{08}'),
                        b'f' => s.push('\u{0c}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require a low surrogate.
                                if !self.eat_keyword("\\u") {
                                    return Err("unpaired high surrogate".to_string());
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid low surrogate".to_string());
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp)
                            } else {
                                char::from_u32(hi)
                            };
                            s.push(c.ok_or_else(|| "invalid \\u escape".to_string())?);
                        }
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                Some(b) if b < 0x20 => return Err(format!("raw control byte 0x{b:02x} in string")),
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let chunk = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| "truncated \\u escape".to_string())?;
        let s = std::str::from_utf8(chunk).map_err(|_| "bad \\u escape".to_string())?;
        let v = u32::from_str_radix(s, 16).map_err(|_| format!("bad \\u escape `{s}`"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "bad number".to_string())?;
        if !is_float {
            if text.starts_with('-') {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(JsonValue::Int(i));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }
}

// ---------------------------------------------------------------------------
// ToJson / FromJson
// ---------------------------------------------------------------------------

/// Types that can serialize themselves into a [`JsonValue`].
pub trait ToJson {
    /// Build the JSON representation of `self`.
    fn to_json(&self) -> JsonValue;
}

/// Types that can reconstruct themselves from a [`JsonValue`].
pub trait FromJson: Sized {
    /// Parse `self` out of a JSON value, with a descriptive error on
    /// shape mismatch.
    fn from_json(v: &JsonValue) -> Result<Self, String>;
}

/// Serialize any [`ToJson`] value to a compact string
/// (`serde_json::to_string` replacement).
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_string()
}

/// Serialize any [`ToJson`] value with 2-space indentation
/// (`serde_json::to_string_pretty` replacement).
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().pretty()
}

/// Parse a string into any [`FromJson`] type
/// (`serde_json::from_str` replacement).
pub fn from_str<T: FromJson>(input: &str) -> Result<T, String> {
    T::from_json(&JsonValue::parse(input)?)
}

/// Convert any [`ToJson`] value into a [`JsonValue`]
/// (`serde_json::to_value` replacement).
pub fn to_value<T: ToJson + ?Sized>(value: &T) -> JsonValue {
    value.to_json()
}

impl ToJson for JsonValue {
    fn to_json(&self) -> JsonValue {
        self.clone()
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> JsonValue {
        (**self).to_json()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> JsonValue {
        JsonValue::Bool(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("expected string, got {v}"))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> JsonValue {
        JsonValue::Float(*self)
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> JsonValue {
        JsonValue::Float(f64::from(*self))
    }
}

macro_rules! impl_json_uint {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> JsonValue {
                JsonValue::UInt(*self as u64)
            }
        }
        impl FromJson for $ty {
            fn from_json(v: &JsonValue) -> Result<Self, String> {
                let u = v
                    .as_u64()
                    .ok_or_else(|| format!("expected unsigned integer, got {v}"))?;
                <$ty>::try_from(u).map_err(|_| {
                    format!("{u} out of range for {}", stringify!($ty))
                })
            }
        }
    )+};
}

impl_json_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_json_int {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> JsonValue {
                let i = *self as i64;
                if i >= 0 {
                    JsonValue::UInt(i as u64)
                } else {
                    JsonValue::Int(i)
                }
            }
        }
    )+};
}

impl_json_int!(i8, i16, i32, i64, isize);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        v.as_array()
            .ok_or_else(|| format!("expected array, got {v}"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> JsonValue {
        match self {
            Some(t) => t.to_json(),
            None => JsonValue::Null,
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> JsonValue {
        JsonValue::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

// ---------------------------------------------------------------------------
// Derive-replacement macros
// ---------------------------------------------------------------------------

/// Implement [`ToJson`]/[`FromJson`] for a struct as an object with one
/// entry per named field — the replacement for
/// `#[derive(Serialize, Deserialize)]` on plain structs. The
/// `to_json` arm implements [`ToJson`] only, for write-only reports.
#[macro_export]
macro_rules! impl_json_struct {
    (to_json $ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::JsonValue {
                $crate::json::JsonValue::Object(vec![
                    $((
                        stringify!($field).to_string(),
                        $crate::json::ToJson::to_json(&self.$field),
                    ),)+
                ])
            }
        }
    };
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        $crate::impl_json_struct!(to_json $ty { $($field),+ });
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::JsonValue) -> Result<Self, String> {
                Ok($ty {
                    $($field: $crate::json::FromJson::from_json(
                        v.field(stringify!($field))?,
                    )?,)+
                })
            }
        }
    };
}

/// Implement [`ToJson`]/[`FromJson`] for a newtype struct as its inner
/// value (serde's newtype-struct convention).
#[macro_export]
macro_rules! impl_json_newtype {
    (to_json $($ty:ident),+ $(,)?) => {$(
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::JsonValue {
                $crate::json::ToJson::to_json(&self.0)
            }
        }
    )+};
    ($($ty:ident),+ $(,)?) => {$(
        $crate::impl_json_newtype!(to_json $ty);
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::JsonValue) -> Result<Self, String> {
                Ok($ty($crate::json::FromJson::from_json(v)?))
            }
        }
    )+};
}

/// Implement [`ToJson`] for a field-less enum as its variant name
/// string (serde's unit-variant convention). No enum is read back.
#[macro_export]
macro_rules! impl_json_unit_enum {
    (to_json $ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::JsonValue {
                let name = match self {
                    $($ty::$variant => stringify!($variant),)+
                };
                $crate::json::JsonValue::Str(name.to_string())
            }
        }
    };
}

// ---------------------------------------------------------------------------
// json! literal macro
// ---------------------------------------------------------------------------

/// Build a [`JsonValue`] from a JSON-like literal, `serde_json::json!`
/// style: `json!({"rows": [1, 2.5, name], "ok": true})`. Interpolated
/// expressions go through [`ToJson`]; object keys are string literals.
#[macro_export]
macro_rules! json {
    (null) => { $crate::json::JsonValue::Null };
    ([ $($tt:tt)* ]) => {
        $crate::json::JsonValue::Array($crate::json_array_items!([] $($tt)*))
    };
    ({ $($tt:tt)* }) => {
        $crate::json::JsonValue::Object($crate::json_object_pairs!([] $($tt)*))
    };
    ($other:expr) => { $crate::json::ToJson::to_json(&$other) };
}

/// Internal helper for [`json!`] array bodies: converts one item at a
/// time into the bracketed accumulator, then builds the `Vec`.
#[macro_export]
#[doc(hidden)]
macro_rules! json_array_items {
    ([$($done:expr,)*] $(,)?) => { ::std::vec![$($done),*] };
    ([$($done:expr,)*] null $(, $($rest:tt)*)?) => {
        $crate::json_array_items!([$($done,)* $crate::json::JsonValue::Null,] $($($rest)*)?)
    };
    ([$($done:expr,)*] { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $crate::json_array_items!([$($done,)* $crate::json!({ $($inner)* }),] $($($rest)*)?)
    };
    ([$($done:expr,)*] [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $crate::json_array_items!([$($done,)* $crate::json!([ $($inner)* ]),] $($($rest)*)?)
    };
    ([$($done:expr,)*] $value:expr $(, $($rest:tt)*)?) => {
        $crate::json_array_items!(
            [$($done,)* $crate::json::ToJson::to_json(&$value),] $($($rest)*)?
        )
    };
}

/// Internal helper for [`json!`] object bodies: converts one pair at a
/// time into the bracketed accumulator, then builds the `Vec`.
#[macro_export]
#[doc(hidden)]
macro_rules! json_object_pairs {
    ([$($done:expr,)*] $(,)?) => { ::std::vec![$($done),*] };
    ([$($done:expr,)*] $key:literal : null $(, $($rest:tt)*)?) => {
        $crate::json_object_pairs!(
            [$($done,)* ($key.to_string(), $crate::json::JsonValue::Null),] $($($rest)*)?
        )
    };
    ([$($done:expr,)*] $key:literal : { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $crate::json_object_pairs!(
            [$($done,)* ($key.to_string(), $crate::json!({ $($inner)* })),] $($($rest)*)?
        )
    };
    ([$($done:expr,)*] $key:literal : [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $crate::json_object_pairs!(
            [$($done,)* ($key.to_string(), $crate::json!([ $($inner)* ])),] $($($rest)*)?
        )
    };
    ([$($done:expr,)*] $key:literal : $value:expr $(, $($rest:tt)*)?) => {
        $crate::json_object_pairs!(
            [$($done,)* ($key.to_string(), $crate::json::ToJson::to_json(&$value)),]
            $($($rest)*)?
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literals_and_display() {
        let v = json!({
            "name": "run",
            "count": 3u64,
            "ratio": 0.5,
            "ok": true,
            "missing": null,
            "tags": ["a", "b"],
            "nested": {"x": 1u32},
        });
        assert_eq!(
            v.to_string(),
            r#"{"name":"run","count":3,"ratio":0.5,"ok":true,"missing":null,"tags":["a","b"],"nested":{"x":1}}"#
        );
    }

    #[test]
    fn integral_floats_keep_their_flavor() {
        assert_eq!(json!(2.0).to_string(), "2.0");
        assert_eq!(json!(1.25).to_string(), "1.25");
        assert_eq!(json!(2u64).to_string(), "2");
        assert_eq!(json!(-3i64).to_string(), "-3");
        assert_eq!(JsonValue::Float(f64::NAN).to_string(), "null");
    }

    #[test]
    fn parse_round_trip() {
        let text = r#"{"a": [1, -2, 3.5, "s\n", true, null], "b": {"c": 18446744073709551615}}"#;
        let v = JsonValue::parse(text).unwrap();
        assert_eq!(v["a"][0], JsonValue::UInt(1));
        assert_eq!(v["a"][1], JsonValue::Int(-2));
        assert_eq!(v["a"][3], JsonValue::Str("s\n".to_string()));
        assert_eq!(v["b"]["c"], JsonValue::UInt(u64::MAX));
        let back = JsonValue::parse(&v.to_string()).unwrap();
        assert_eq!(v, back);
        let back_pretty = JsonValue::parse(&v.pretty()).unwrap();
        assert_eq!(v, back_pretty);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("{} extra").is_err());
        assert!(JsonValue::parse("nul").is_err());
        assert!(JsonValue::parse(r#""unterminated"#).is_err());
        assert!(JsonValue::parse("1e").is_err());
    }

    #[test]
    fn parse_errors_name_what_was_found() {
        let err = |text: &str| JsonValue::parse(text).unwrap_err();
        assert_eq!(err(""), "unexpected end of input at byte 0");
        assert_eq!(
            err("[1, 2"),
            "expected `,` or `]` at byte 5, found end of input"
        );
        assert_eq!(err("{\"a\" 1}"), "expected `:` at byte 5, found `1`");
        assert_eq!(err("[x]"), "unexpected `x` at byte 1");
    }

    #[test]
    fn parse_string_escapes() {
        let v = JsonValue::parse(r#""tab\t quote\" unicodeé pair😀""#).unwrap();
        assert_eq!(
            v,
            JsonValue::Str("tab\t quote\" unicode\u{e9} pair😀".into())
        );
        // The writer escapes what it must and the parser reads it back.
        let s = JsonValue::Str("a\"b\\c\nd\u{1}".into());
        assert_eq!(JsonValue::parse(&s.to_string()).unwrap(), s);
    }

    #[test]
    fn index_semantics_match_serde_json() {
        let v = json!({"a": 1u64});
        assert!(v["nope"].is_null());
        assert!(v["a"]["deeper"].is_null());
        assert_eq!(v["a"].as_u64(), Some(1));

        let mut m = JsonValue::Null;
        m["fresh"] = json!(2u64);
        m["fresh"] = json!(3u64);
        assert_eq!(m["fresh"].as_u64(), Some(3));
        assert_eq!(m.as_array(), None);
    }

    #[test]
    fn cross_flavor_number_equality() {
        assert_eq!(JsonValue::UInt(5), JsonValue::Int(5));
        assert_eq!(JsonValue::UInt(5), JsonValue::Float(5.0));
        assert_ne!(JsonValue::UInt(5), JsonValue::Float(5.5));
        assert_ne!(JsonValue::Int(-1), JsonValue::UInt(u64::MAX));
    }

    #[test]
    fn str_equality() {
        let v = json!({"workload": "geomean"});
        assert!(v["workload"] == "geomean");
        assert!(v["workload"] != "other");
    }

    #[test]
    fn pretty_format_matches_serde_json_style() {
        let v = json!({"a": [1u64], "b": {}});
        assert_eq!(v.pretty(), "{\n  \"a\": [\n    1\n  ],\n  \"b\": {}\n}");
    }

    #[test]
    fn option_and_tuple_conventions() {
        let some: Option<u64> = Some(7);
        let none: Option<u64> = None;
        assert_eq!(some.to_json().to_string(), "7");
        assert_eq!(none.to_json().to_string(), "null");
        let pair = ("scrubs".to_string(), 4u64);
        assert_eq!(pair.to_json().to_string(), r#"["scrubs",4]"#);
    }

    #[test]
    fn from_json_reports_shape_errors() {
        assert!(u64::from_json(&json!(-1i64)).is_err());
        assert!(u16::from_json(&json!(70000u64)).is_err());
        assert!(String::from_json(&json!(1u64)).is_err());
        assert!(JsonValue::parse("{}").unwrap().field("x").is_err());
    }
}
