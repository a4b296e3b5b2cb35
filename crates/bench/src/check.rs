//! The regression gate behind `report --json --check`, and the one place
//! that knows `BENCH_pr2.json`'s text layout.
//!
//! The committed `BENCH_pr2.json` is the baseline; the gate re-measures
//! and fails the run when a fresh number falls below (bandwidth) or above
//! (p99 latency) the committed one.  Baseline access is strict: a key the
//! gate needs but the committed file lacks is an error naming the exact
//! key and size — never a panic, and never a silently-passing check.
//!
//! [`Json`] writes the document (the workspace carries no serializer);
//! the lookups below read it back line by line, which is exact because
//! [`Json::render`] puts every member on a line of its own.

use std::fmt;

/// Why the regression gate refused to pass.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckError {
    /// The committed baseline file could not be read at all.
    Unreadable {
        /// Path the gate tried to read.
        path: String,
    },
    /// The committed baseline lacks the key the gate compares against.
    MissingKey {
        /// Path of the baseline file.
        path: String,
        /// The `bytes` value of the size object searched.
        bytes: usize,
        /// The missing key.
        key: String,
    },
    /// The committed baseline's keys are not the keys this binary writes
    /// (a key is missing, extra, or out of place).
    KeyMismatch {
        /// Path of the baseline file.
        path: String,
        /// 1-based line of the first difference.
        line: usize,
        /// What the baseline has there.
        committed: String,
        /// What this binary writes there.
        fresh: String,
    },
    /// A freshly run ablation criterion came back red.
    RedCriterion {
        /// The ablation's title line.
        ablation: String,
        /// The criterion's name.
        name: &'static str,
        /// Its measured detail.
        detail: String,
    },
    /// The committed baseline's top-level `"schema_version"` does not
    /// match the version this binary writes (or is absent entirely).
    SchemaVersion {
        /// Path of the baseline file.
        path: String,
        /// The version this binary writes.
        expected: u64,
        /// The version found in the file (`None` when absent).
        found: Option<u64>,
    },
    /// A freshly measured number regressed past the committed baseline.
    Regression {
        /// What was compared (human-readable).
        what: String,
        /// The fresh measurement.
        fresh: f64,
        /// The bound it violated.
        bound: f64,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Unreadable { path } => {
                write!(f, "baseline {path} is missing or unreadable; run `report --json {path}` once to create it")
            }
            CheckError::MissingKey { path, bytes, key } => {
                write!(
                    f,
                    "baseline {path} has no key \"{key}\" in its bytes={bytes} object; \
                     regenerate it with `report --json {path}` to pick up the new schema"
                )
            }
            CheckError::KeyMismatch {
                path,
                line,
                committed,
                fresh,
            } => {
                write!(
                    f,
                    "baseline {path} line {line} has {committed} where this binary writes \
                     {fresh}; regenerate it with `report --json {path}` to pick up the new schema"
                )
            }
            CheckError::RedCriterion {
                ablation,
                name,
                detail,
            } => write!(f, "{ablation}: criterion red: {name} ({detail})"),
            CheckError::SchemaVersion {
                path,
                expected,
                found,
            } => match found {
                Some(found) => write!(
                    f,
                    "baseline {path} has schema_version {found} but this binary writes \
                     {expected}; regenerate it with `report --json {path}`"
                ),
                None => write!(
                    f,
                    "baseline {path} has no top-level \"schema_version\" key (pre-versioning \
                     schema); regenerate it with `report --json {path}` to stamp version {expected}"
                ),
            },
            CheckError::Regression { what, fresh, bound } => {
                write!(
                    f,
                    "{what} regressed: fresh {fresh:.3} vs committed bound {bound:.3}"
                )
            }
        }
    }
}

impl std::error::Error for CheckError {}

/// Pulls `"<key>": <number>` out of the object for `bytes` in committed
/// JSON — enough parsing for the regression gate, no serde needed.
pub fn json_lookup(doc: &str, bytes: usize, key: &str) -> Option<f64> {
    let obj = doc.split('{').find(|o| {
        o.lines()
            .any(|l| l.trim().starts_with(&format!("\"bytes\": {bytes},")))
    })?;
    let line = obj
        .lines()
        .find(|l| l.trim().starts_with(&format!("\"{key}\":")))?;
    line.split(':')
        .nth(1)?
        .trim()
        .trim_end_matches(',')
        .parse()
        .ok()
}

/// Pulls `"<key>": <number>` out of the object that follows
/// `"<section>": {` in committed JSON.  The section is delimited by
/// brace depth, and only its top level is searched, so a nested object
/// inside the section can neither truncate the scan nor leak its own
/// keys in.  (String values never contain braces in [`Json::render`]'s
/// output, so counting raw braces is exact.)
pub fn json_lookup_section(doc: &str, section: &str, key: &str) -> Option<f64> {
    let start = doc.find(&format!("\"{section}\": {{"))?;
    // Keep only the section's depth-1 content: nested objects are
    // elided, the closing brace ends the scan.
    let mut depth = 0u32;
    let mut flat = String::new();
    for c in doc[start..].chars() {
        match c {
            '{' => {
                depth += 1;
                continue;
            }
            '}' => {
                if depth == 1 {
                    break;
                }
                depth -= 1;
                continue;
            }
            _ => {}
        }
        if depth == 1 {
            flat.push(c);
        }
    }
    let line = flat
        .lines()
        .find(|l| l.trim().starts_with(&format!("\"{key}\":")))?;
    line.split(':')
        .nth(1)?
        .trim()
        .trim_end_matches(',')
        .parse()
        .ok()
}

/// Fails unless the committed `doc` carries exactly the keys of the
/// `fresh` document, in the same places: line by line, everything up to
/// a member's value (or the whole line, for a bare bracket) must agree.
/// One comparison covers every section, row table and top-level key, in
/// both directions — a baseline from before a key existed fails, and so
/// does one carrying a key nobody writes any more.
///
/// # Errors
///
/// [`CheckError::KeyMismatch`] naming the first differing line.
pub fn require_same_keys(doc: &str, path: &str, fresh: &str) -> Result<(), CheckError> {
    let key = |l: &str| l.split("\":").next().unwrap_or(l).trim().to_string();
    let (mut committed, mut written) = (doc.lines().map(key), fresh.lines().map(key));
    for line in 1.. {
        match (committed.next(), written.next()) {
            (None, None) => break,
            (c, w) if c == w => {}
            (c, w) => {
                let show = |k: Option<String>| {
                    k.map_or("the end of the file".into(), |k| format!("`{k}`"))
                };
                return Err(CheckError::KeyMismatch {
                    path: path.to_string(),
                    line,
                    committed: show(c),
                    fresh: show(w),
                });
            }
        }
    }
    Ok(())
}

/// The `"schema_version"` value `report --json` stamps at the top of
/// every baseline it writes.  Bump it when a change makes old baselines
/// unreadable by the gate (key renames, section moves) — `--check` then
/// fails with a message telling the operator to regenerate, instead of
/// mis-parsing.
pub const REPORT_SCHEMA_VERSION: u64 = 1;

/// Reads an integer-valued key from the document (line-oriented, like
/// the other lookups — sufficient for [`Json::render`]'s output, whose
/// `"schema_version"` appears exactly once).
pub fn json_lookup_u64(doc: &str, key: &str) -> Option<u64> {
    let line = doc
        .lines()
        .find(|l| l.trim_start().starts_with(&format!("\"{key}\":")))?;
    line.split(':')
        .nth(1)?
        .trim()
        .trim_end_matches(',')
        .parse()
        .ok()
}

/// Fails unless the baseline carries `"schema_version": expected`.
///
/// # Errors
///
/// [`CheckError::SchemaVersion`] naming the found version (or its
/// absence) and the expected one.
pub fn require_schema_version(doc: &str, path: &str, expected: u64) -> Result<(), CheckError> {
    let found = json_lookup_u64(doc, "schema_version");
    if found == Some(expected) {
        return Ok(());
    }
    Err(CheckError::SchemaVersion {
        path: path.to_string(),
        expected,
        found,
    })
}

/// [`json_lookup`] that treats absence as a gate failure naming the key.
///
/// # Errors
///
/// [`CheckError::MissingKey`] when the baseline lacks the key.
pub fn require_key(doc: &str, path: &str, bytes: usize, key: &str) -> Result<f64, CheckError> {
    json_lookup(doc, bytes, key).ok_or_else(|| CheckError::MissingKey {
        path: path.to_string(),
        bytes,
        key: key.to_string(),
    })
}

/// Fails when `fresh` dropped below `floor` (a bandwidth-style metric,
/// bigger is better).
///
/// # Errors
///
/// [`CheckError::Regression`] on violation.
pub fn require_at_least(what: &str, fresh: f64, floor: f64) -> Result<(), CheckError> {
    if fresh < floor {
        return Err(CheckError::Regression {
            what: what.to_string(),
            fresh,
            bound: floor,
        });
    }
    Ok(())
}

/// Fails when `fresh` rose above `ceiling` (a latency-style metric,
/// smaller is better).
///
/// # Errors
///
/// [`CheckError::Regression`] on violation.
pub fn require_at_most(what: &str, fresh: f64, ceiling: f64) -> Result<(), CheckError> {
    if fresh > ceiling {
        return Err(CheckError::Regression {
            what: what.to_string(),
            fresh,
            bound: ceiling,
        });
    }
    Ok(())
}

/// A JSON value to write: the document `report --json` emits and the
/// members each ablation contributes to it.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// An already-rendered scalar (number, boolean, or quoted string).
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

    /// Renders the value as a document: two-space indentation, one
    /// member per line (the layout the lookups in this module rely on).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
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
        for (i, (key, value)) in members.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&" ".repeat(indent + 2));
            if let Some(key) = key {
                out.push_str(&format!("\"{key}\": "));
            }
            value.write(out, indent + 2);
        }
        out.push('\n');
        out.push_str(&" ".repeat(indent));
        out.push(close);
    }
}

/// Validates that `doc` is one well-formed JSON value (with optional
/// surrounding whitespace).  A minimal recursive-descent parser — no
/// serde, no Python on the CI runner — used by `ablation_trace` to gate
/// the Chrome trace export and by `report` on its own output.
///
/// # Errors
///
/// A human-readable message naming the byte offset of the first error.
pub fn json_valid(doc: &str) -> Result<(), String> {
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

    const DOC: &str = r#"{
  "sizes": [
    {
      "bytes": 1024,
      "cold_read_pipelined_kb_s": 86.7,
      "cold_read_pipelined_p99_ms": 11.6
    },
    {
      "bytes": 1048576,
      "cold_read_pipelined_kb_s": 794.1
    }
  ]
}
"#;

    const SECTIONED: &str = r#"{
  "sizes": [],
  "scheduler": {
    "seed": 14,
    "fifo_seek_blocks": 4146381,
    "scan_read_mb_s": 0.59
  },
  "fault_campaign_all_green": true
}
"#;

    #[test]
    fn section_lookup_finds_keys_inside_the_named_object() {
        assert_eq!(
            json_lookup_section(SECTIONED, "scheduler", "fifo_seek_blocks"),
            Some(4_146_381.0)
        );
        assert_eq!(
            json_lookup_section(SECTIONED, "scheduler", "scan_read_mb_s"),
            Some(0.59)
        );
        // A key outside the section must not leak in.
        assert_eq!(
            json_lookup_section(SECTIONED, "scheduler", "fault_campaign_all_green"),
            None
        );
    }

    #[test]
    fn section_lookup_survives_nested_objects() {
        // A nested object inside the section must neither truncate the
        // scan (keys after it still found) nor leak its keys in.
        let doc = r#"{
  "scheduler": {
    "seed": 14,
    "zones": {
      "inner_only": 7
    },
    "scan_read_mb_s": 0.59
  }
}
"#;
        assert_eq!(json_lookup_section(doc, "scheduler", "seed"), Some(14.0));
        assert_eq!(
            json_lookup_section(doc, "scheduler", "scan_read_mb_s"),
            Some(0.59)
        );
        assert_eq!(json_lookup_section(doc, "scheduler", "inner_only"), None);
    }

    #[test]
    fn key_comparison_names_the_first_missing_or_extra_key() {
        assert_eq!(require_same_keys(SECTIONED, "b.json", SECTIONED), Ok(()));
        // Values may differ; keys may not.
        let other_values = SECTIONED.replace("14", "15").replace("0.59", "0.61");
        assert_eq!(
            require_same_keys(&other_values, "b.json", SECTIONED),
            Ok(())
        );
        // A baseline from before `scan_read_mb_s` existed.
        let old = SECTIONED.replace(",\n    \"scan_read_mb_s\": 0.59", "");
        let err = require_same_keys(&old, "BENCH_pr2.json", SECTIONED).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 6"), "message: {msg}");
        assert!(msg.contains("scan_read_mb_s"), "message: {msg}");
        assert!(msg.contains("regenerate"), "message: {msg}");
        // The other direction: the baseline carries a key nobody writes.
        let err = require_same_keys(SECTIONED, "b.json", &old).unwrap_err();
        assert!(err.to_string().contains("scan_read_mb_s"), "{err}");
        // A truncated baseline fails too, never panics.
        assert!(require_same_keys("{\n", "b.json", SECTIONED).is_err());
    }

    #[test]
    fn rendered_documents_round_trip_through_the_lookups() {
        let doc = Json::object([
            ("schema_version", Json::num(1)),
            (
                "sizes",
                Json::Array(vec![Json::object([
                    ("bytes", Json::num(1024)),
                    ("create_p99_ms", Json::fixed(11.6, 3)),
                ])]),
            ),
            (
                "scheduler",
                Json::object([("seed", Json::num(14)), ("label", Json::string("scan"))]),
            ),
            ("all_green", Json::num(true)),
        ])
        .render();
        assert_eq!(json_valid(&doc), Ok(()));
        assert_eq!(json_lookup_u64(&doc, "schema_version"), Some(1));
        assert_eq!(json_lookup(&doc, 1024, "create_p99_ms"), Some(11.6));
        assert_eq!(json_lookup_section(&doc, "scheduler", "seed"), Some(14.0));
        assert!(doc.ends_with("  \"all_green\": true\n}\n"), "{doc}");
    }

    #[test]
    fn lookup_finds_the_right_size_object() {
        assert_eq!(
            json_lookup(DOC, 1024, "cold_read_pipelined_kb_s"),
            Some(86.7)
        );
        assert_eq!(
            json_lookup(DOC, 1 << 20, "cold_read_pipelined_kb_s"),
            Some(794.1)
        );
    }

    #[test]
    fn missing_key_fails_naming_the_key() {
        // The 1 MB object has no p99 key — an old-schema baseline.  The
        // gate must say so, naming the key and the size, instead of
        // panicking or silently passing.
        let err =
            require_key(DOC, "BENCH_pr2.json", 1 << 20, "cold_read_pipelined_p99_ms").unwrap_err();
        assert_eq!(
            err,
            CheckError::MissingKey {
                path: "BENCH_pr2.json".to_string(),
                bytes: 1 << 20,
                key: "cold_read_pipelined_p99_ms".to_string(),
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("cold_read_pipelined_p99_ms"), "message: {msg}");
        assert!(msg.contains("bytes=1048576"), "message: {msg}");
    }

    #[test]
    fn present_key_passes() {
        assert_eq!(
            require_key(DOC, "b.json", 1024, "cold_read_pipelined_p99_ms"),
            Ok(11.6)
        );
    }

    #[test]
    fn schema_version_gate_matches_exact_version_only() {
        let good = "{\n  \"schema_version\": 1,\n  \"sizes\": []\n}\n";
        assert_eq!(require_schema_version(good, "b.json", 1), Ok(()));
        // Wrong version: named in the message.
        let err = require_schema_version(good, "b.json", 2).unwrap_err();
        assert_eq!(
            err,
            CheckError::SchemaVersion {
                path: "b.json".to_string(),
                expected: 2,
                found: Some(1),
            }
        );
        assert!(err.to_string().contains("schema_version 1"), "{err}");
        assert!(err.to_string().contains("writes 2"), "{err}");
        // Absent key: a pre-versioning baseline, with a clear message.
        let old = "{\n  \"sizes\": []\n}\n";
        let err = require_schema_version(old, "b.json", 1).unwrap_err();
        assert!(
            err.to_string().contains("no top-level \"schema_version\""),
            "{err}"
        );
        assert!(err.to_string().contains("regenerate"), "{err}");
    }

    #[test]
    fn bandwidth_regression_fails() {
        assert!(require_at_least("1 MB bw", 800.0, 794.1).is_ok());
        let err = require_at_least("1 MB bw", 700.0, 794.1).unwrap_err();
        assert!(err.to_string().contains("regressed"), "{err}");
    }

    #[test]
    fn latency_regression_fails() {
        assert!(require_at_most("1 MB p99", 11.0, 11.6).is_ok());
        assert!(require_at_most("1 MB p99", 12.0, 11.6).is_err());
    }

    #[test]
    fn json_validator_accepts_real_documents() {
        assert_eq!(json_valid(DOC), Ok(()));
        assert_eq!(json_valid("  [1, -2.5, 1e9, \"s\", true, null] "), Ok(()));
        assert_eq!(json_valid(r#"{"a": {"b": []}, "c": "\u00e9\n"}"#), Ok(()));
        // Chrome trace-event shape: an object with an events array.
        assert_eq!(
            json_valid(r#"{"traceEvents": [{"ph": "X", "ts": 0.5, "dur": 2}]}"#),
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
        ] {
            assert!(json_valid(bad).is_err(), "accepted malformed {bad:?}");
        }
    }
}
