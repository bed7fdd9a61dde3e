//! Minimal deterministic JSON emission helpers and a small value parser.
//!
//! The build environment has no serde; the exporters hand-roll their JSON
//! through these helpers so output is byte-stable: map keys come from
//! `BTreeMap` iteration order, floats use Rust's shortest round-trip
//! `Display` (deterministic across runs and optimization levels), and
//! non-finite floats degrade to `null`.
//!
//! The [`Json`] value type and [`parse_json`] cover the subset the
//! workspace consumes back (objects, arrays, strings, numbers, booleans,
//! null): the serve wire protocol, the metrics snapshot reader, and the
//! bench perf-regression gate all parse through here.

use std::fmt::Write as _;

/// Appends `s` as a JSON string literal (quoted, escaped) to `out`.
pub fn push_str_lit(out: &mut String, s: &str) {
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

/// Appends a finite `f64` in shortest round-trip form, or `null` for
/// NaN/infinities (JSON has no representation for them).
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Integral values print without a fractional part ("3"), which is
        // still valid JSON and stable.
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

/// Renders one compact JSON object at the end of `out`; `fields` writes its
/// fields through the writer, which owns the comma, the key quoting and the
/// number rules, and formats every value in place.
pub fn push_obj(out: &mut String, fields: impl FnOnce(&mut ObjWriter<'_>)) {
    out.push('{');
    fields(&mut ObjWriter(out, true));
    out.push('}');
}

/// The fields of the object [`push_obj`] is rendering; they chain.
pub struct ObjWriter<'a>(&'a mut String, bool);

impl ObjWriter<'_> {
    /// Writes `"key":` and lends the buffer for a value the caller renders.
    pub fn key(&mut self, key: &str) -> &mut String {
        if !std::mem::take(&mut self.1) {
            self.0.push(',');
        }
        push_str_lit(self.0, key);
        self.0.push(':');
        self.0
    }

    /// A field whose `Display` form is its JSON form: an integer, a boolean.
    pub fn plain(&mut self, key: &str, v: impl std::fmt::Display) -> &mut Self {
        let _ = write!(self.key(key), "{v}");
        self
    }

    /// A 64-bit digest as 16 hex digits: f64-based parsers stop at 2^53.
    pub fn hex64(&mut self, key: &str, v: u64) -> &mut Self {
        let _ = write!(self.key(key), "\"{v:016x}\"");
        self
    }

    /// A float field ([`push_f64`]); `None`, like a non-finite value, is `null`.
    pub fn f64(&mut self, key: &str, v: impl Into<Option<f64>>) -> &mut Self {
        push_f64(self.key(key), v.into().unwrap_or(f64::NAN));
        self
    }

    /// A string field ([`push_str_lit`]).
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        push_str_lit(self.key(key), v);
        self
    }
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers round-trip exactly up to 2^53).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice, if textual.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object's fields in source order, if an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Renders the value back to compact JSON.
    pub fn render(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => push_f64(out, *n),
            Json::Str(s) => push_str_lit(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_str_lit(out, k);
                    out.push(':');
                    v.render(out);
                }
                out.push('}');
            }
        }
    }
}

/// Parses one JSON value from `s` (the whole string must be consumed).
pub fn parse_json(s: &str) -> Result<Json, String> {
    let bytes = s.as_bytes();
    let mut pos = 0;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos)? {
                    Json::Str(s) => s,
                    _ => return Err(format!("object key at offset {pos} is not a string")),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at offset {pos}"));
                }
                *pos += 1;
                fields.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut out = String::new();
            loop {
                match b.get(*pos) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(out));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match b.get(*pos) {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b't') => out.push('\t'),
                            Some(b'r') => out.push('\r'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                let hex =
                                    b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                    16,
                                )
                                .map_err(|_| "bad \\u escape")?;
                                // Surrogate pairs are out of protocol scope.
                                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                *pos += 4;
                            }
                            _ => return Err("bad escape".into()),
                        }
                        *pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar (input came from &str).
                        let rest = s_from(b, *pos);
                        let c = rest.chars().next().unwrap();
                        out.push(c);
                        *pos += c.len_utf8();
                    }
                }
            }
        }
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad number")?;
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number {text:?} at offset {start}"))
        }
    }
}

fn s_from(b: &[u8], pos: usize) -> &str {
    std::str::from_utf8(&b[pos..]).expect("input was a &str")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(s: &str) -> String {
        let mut out = String::new();
        push_str_lit(&mut out, s);
        out
    }

    #[test]
    fn escapes_specials() {
        assert_eq!(lit("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(lit("\u{1}"), "\"\\u0001\"");
        assert_eq!(lit("héllo"), "\"héllo\"");
    }

    #[test]
    fn object_writer_owns_commas_quoting_and_number_rules() {
        let mut out = String::from("x=");
        push_obj(&mut out, |o| {
            o.plain("n", u64::MAX)
                .plain("on", true)
                .hex64("rev", 0x2a)
                .f64("ms", 0.5)
                .f64("nan", f64::NAN)
                .f64("none", None)
                .f64("some", Some(3.0))
                .str("q\"k", "a\"b\n");
            push_obj(o.key("nested"), |inner| {
                inner.plain("deep", -1);
            });
            o.key("list").push_str("[1,2]");
            push_obj(o.key("empty"), |_| {});
        });
        let expected = "x={\"n\":18446744073709551615,\"on\":true,\
                        \"rev\":\"000000000000002a\",\"ms\":0.5,\"nan\":null,\"none\":null,\
                        \"some\":3,\"q\\\"k\":\"a\\\"b\\n\",\"nested\":{\"deep\":-1},\
                        \"list\":[1,2],\"empty\":{}}";
        assert_eq!(out, expected);
        // What it writes, the parser reads back.
        let back = parse_json(&out[2..]).expect("valid JSON");
        assert_eq!(
            back.get("rev").and_then(Json::as_str),
            Some("000000000000002a")
        );
        assert_eq!(
            back.get("nested").and_then(|n| n.get("deep")),
            Some(&Json::Num(-1.0))
        );
        assert_eq!(back.get("q\"k").and_then(Json::as_str), Some("a\"b\n"));
    }

    #[test]
    fn floats_are_stable_and_finite_only() {
        let mut out = String::new();
        push_f64(&mut out, 0.125);
        out.push(' ');
        push_f64(&mut out, 3.0);
        out.push(' ');
        push_f64(&mut out, f64::NAN);
        assert_eq!(out, "0.125 3 null");
    }

    #[test]
    fn json_round_trips() {
        let v = parse_json(r#"{"a":[1,2.5,-3],"b":"x\ny","c":true,"d":null}"#).unwrap();
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("c").unwrap().as_bool(), Some(true));
        let mut out = String::new();
        v.render(&mut out);
        let again = parse_json(&out).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("12 34").is_err());
        assert!(parse_json("\"unterminated").is_err());
    }

    #[test]
    fn escaped_keys_round_trip() {
        let mut out = String::new();
        push_str_lit(&mut out, "k{quote=\"a\",slash=\\b}");
        let back = parse_json(&out).unwrap();
        assert_eq!(back.as_str(), Some("k{quote=\"a\",slash=\\b}"));
    }
}
