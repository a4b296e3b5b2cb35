//! The workspace's one JSON writer, and a validator for what it wrote.
//!
//! The workspace carries no serializer.  [`Json`] is a value to write:
//! [`Json::render`] lays it out one member per line (`BENCH_pr2.json`),
//! [`Json::compact`] without whitespace (the `MONITOR` documents, the
//! span exporters' records).  Nothing reads a value back out of JSON
//! text; [`valid`] only says whether a document is well formed — the gate
//! on the Chrome trace export and on the `MONITOR` golden tests.

use std::fmt;

/// A JSON value to write.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// An already-rendered value: a number, a boolean, a quoted string,
    /// or a whole document embedded verbatim.
    Raw(String),
    /// An object: members in writing order.
    Object(Vec<(String, Json)>),
    /// An array.
    Array(Vec<Json>),
}

impl Json {
    /// A number or boolean, rendered by its `Display`.
    pub fn num(v: impl fmt::Display) -> Json {
        Json::Raw(v.to_string())
    }

    /// A float with a fixed number of decimals.
    pub fn fixed(v: f64, decimals: usize) -> Json {
        Json::Raw(format!("{v:.decimals$}"))
    }

    /// A quoted string (callers pass labels that need no escaping).
    pub fn string(s: &str) -> Json {
        Json::Raw(format!("\"{s}\""))
    }

    /// An object from `(key, value)` pairs.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of the values.
    pub fn array(values: impl IntoIterator<Item = Json>) -> Json {
        Json::Array(values.into_iter().collect())
    }

    /// Renders the value as a document: two-space indentation, one
    /// member per line, a closing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Renders the value with no whitespace at all.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// `indent` is the depth in spaces of a pretty rendering, `None` for
    /// a compact one.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        let (close, members): (char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Raw(s) => return out.push_str(s),
            Json::Object(m) => {
                out.push('{');
                ('}', m.iter().map(|(k, v)| (Some(k.as_str()), v)).collect())
            }
            Json::Array(a) => {
                out.push('[');
                (']', a.iter().map(|v| (None, v)).collect())
            }
        };
        let new_line = |out: &mut String, depth: Option<usize>| {
            if let Some(depth) = depth {
                out.push('\n');
                out.push_str(&" ".repeat(depth));
            }
        };
        let inner = indent.map(|depth| depth + 2);
        for (i, (key, value)) in members.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            new_line(out, inner);
            if let Some(key) = key {
                out.push_str(&format!("\"{key}\":"));
                if indent.is_some() {
                    out.push(' ');
                }
            }
            value.write(out, inner);
        }
        new_line(out, indent);
        out.push(close);
    }
}

/// Validates that `doc` is one well-formed JSON value (with optional
/// surrounding whitespace).  A minimal recursive-descent parser that
/// keeps nothing of what it reads.
///
/// # Errors
///
/// A human-readable message naming the byte offset of the first error.
pub fn valid(doc: &str) -> Result<(), String> {
    let bytes = doc.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!(
            "trailing bytes after the JSON value at offset {pos}"
        ));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: u32) -> Result<(), String> {
    if depth > 128 {
        return Err(format!("nesting deeper than 128 at offset {pos}"));
    }
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos, depth),
        Some(b'[') => parse_array(b, pos, depth),
        Some(b'"') => parse_string(b, pos),
        Some(b't') => parse_literal(b, pos, "true"),
        Some(b'f') => parse_literal(b, pos, "false"),
        Some(b'n') => parse_literal(b, pos, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte {:?} at offset {pos}", *c as char)),
        None => Err(format!("unexpected end of input at offset {pos}")),
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: u32) -> Result<(), String> {
    *pos += 1; // '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected a string key at offset {pos}"));
        }
        parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at offset {pos}"));
        }
        *pos += 1;
        skip_ws(b, pos);
        parse_value(b, pos, depth + 1)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: u32) -> Result<(), String> {
    *pos += 1; // '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        parse_value(b, pos, depth + 1)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at offset {pos}")),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '"'
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => match b.get(*pos + 1) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 2,
                Some(b'u') => {
                    let hex = b
                        .get(*pos + 2..*pos + 6)
                        .ok_or_else(|| format!("truncated \\u escape at offset {pos}"))?;
                    if !hex.iter().all(u8::is_ascii_hexdigit) {
                        return Err(format!("bad \\u escape at offset {pos}"));
                    }
                    *pos += 6;
                }
                _ => return Err(format!("bad escape at offset {pos}")),
            },
            0x00..=0x1f => return Err(format!("raw control byte in string at offset {pos}")),
            _ => *pos += 1,
        }
    }
    Err(format!("unterminated string at offset {pos}"))
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b.get(*pos..*pos + lit.len()) == Some(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at offset {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_start = *pos;
    while b.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    if *pos == int_start {
        return Err(format!("expected digits at offset {pos}"));
    }
    if b[int_start] == b'0' && *pos > int_start + 1 {
        return Err(format!("leading zero at offset {int_start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        let frac_start = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        if *pos == frac_start {
            return Err(format!("expected fraction digits at offset {pos}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let exp_start = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        if *pos == exp_start {
            return Err(format!("expected exponent digits at offset {start}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn document() -> Json {
        Json::object([
            ("schema_version", Json::num(1)),
            (
                "sizes",
                Json::array([Json::object([
                    ("bytes", Json::num(1024)),
                    ("create_p99_ms", Json::fixed(11.6, 3)),
                ])]),
            ),
            ("label", Json::string("scan")),
            ("none", Json::array([])),
            ("all_green", Json::num(true)),
        ])
    }

    #[test]
    fn render_puts_every_member_on_a_line_of_its_own() {
        let doc = document().render();
        assert_eq!(
            doc,
            "{\n  \"schema_version\": 1,\n  \"sizes\": [\n    {\n      \"bytes\": 1024,\n      \
             \"create_p99_ms\": 11.600\n    }\n  ],\n  \"label\": \"scan\",\n  \"none\": [\n  ],\n  \
             \"all_green\": true\n}\n"
        );
        assert_eq!(valid(&doc), Ok(()));
    }

    #[test]
    fn compact_writes_no_whitespace() {
        let doc = document().compact();
        assert_eq!(
            doc,
            "{\"schema_version\":1,\"sizes\":[{\"bytes\":1024,\"create_p99_ms\":11.600}],\
             \"label\":\"scan\",\"none\":[],\"all_green\":true}"
        );
        assert_eq!(valid(&doc), Ok(()));
        // A raw value is a document embedded verbatim.
        let outer = Json::array([Json::Raw(doc.clone()), Json::Object(Vec::new())]);
        assert_eq!(outer.compact(), format!("[{doc},{{}}]"));
    }

    #[test]
    fn json_validator_accepts_real_documents() {
        assert_eq!(
            valid("  [0, -0.5, 10, -2.5, 1e9, 0e0, \"s\", true, null] "),
            Ok(())
        );
        assert_eq!(valid(r#"{"a": {"b": []}, "c": "\u00e9\n"}"#), Ok(()));
        // Chrome trace-event shape: an object with an events array.
        assert_eq!(
            valid(r#"{"traceEvents": [{"ph": "X", "ts": 0.5, "dur": 2}]}"#),
            Ok(())
        );
    }

    #[test]
    fn json_validator_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1, 2",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "[1 2]",
            "\"unterminated",
            "01x",
            "nulll",
            "{\"a\": 1} trailing",
            "1.",
            "-",
            "{\"a\": \"\\q\"}",
            // JSON forbids a leading zero before another digit.
            "01",
            "-007",
            "[00]",
            "{\"a\": 01.5}",
        ] {
            assert!(valid(bad).is_err(), "accepted malformed {bad:?}");
        }
    }
}
