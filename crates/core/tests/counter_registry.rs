//! Registry drift test: the counter/gauge name registry in
//! `bullet_core::counters` and the names the workspace actually uses
//! must agree, in both directions.
//!
//! * Every `pub const NAME: &str = "..."` declared in `counters.rs`
//!   appears in exactly one of [`counters::ALL`] / [`counters::GAUGES`]
//!   — a name cannot be declared and forgotten by the registry (MONITOR
//!   snapshots and doc tables iterate the registry, so an unregistered
//!   name would be invisible to them).
//! * Every declared name is referenced somewhere outside `counters.rs`
//!   (by const identifier or quoted literal) — the registry carries no
//!   dead names.
//! * Every quoted counter-style literal passed to a stats or telemetry
//!   call (`.incr(` / `.add(` / `.set_max(` / `.gauge(` /
//!   `.counter_delta(` / `.get(`) in the core and bench crates is a
//!   registered name — a typo'd literal mints a silent parallel counter
//!   instead of failing, so this is the only place it can be caught.
//!   Bench rigs also read the disk/net/scheduler crates' own stats
//!   handles; those crates own their name families, covered by the
//!   prefix allowlist below.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use bullet_core::counters;

/// Name families owned by lower crates (their own `Stats` handles, not
/// the core registry): the bench rigs read them through the disk and
/// net handles they assemble.
const FOREIGN_PREFIXES: &[&str] = &["disk_", "net_", "mirror_"];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every `pub const IDENT: &str = "name";` in counters.rs, plus the
/// rpc-layer names counters.rs re-exports (`pub use amoeba_rpc::fault`).
fn declared_consts() -> Vec<(String, String)> {
    let src =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("src/counters.rs"))
            .expect("counters.rs is readable");
    let mut out = vec![
        ("DEDUP_HITS".to_string(), counters::DEDUP_HITS.to_string()),
        (
            "DEDUP_EVICTIONS".to_string(),
            counters::DEDUP_EVICTIONS.to_string(),
        ),
        ("RPC_RETRIES".to_string(), counters::RPC_RETRIES.to_string()),
        (
            "RPC_TIMEOUTS".to_string(),
            counters::RPC_TIMEOUTS.to_string(),
        ),
        ("RPC_GIVEUPS".to_string(), counters::RPC_GIVEUPS.to_string()),
        (
            "SHARD_ROUTED_OPS".to_string(),
            counters::SHARD_ROUTED_OPS.to_string(),
        ),
        (
            "SHARD_DEGRADED_OPS".to_string(),
            counters::SHARD_DEGRADED_OPS.to_string(),
        ),
    ];
    for line in src.lines() {
        let Some(rest) = line.trim().strip_prefix("pub const ") else {
            continue;
        };
        let Some((ident, rest)) = rest.split_once(": &str = \"") else {
            continue;
        };
        let Some((value, _)) = rest.split_once('"') else {
            continue;
        };
        out.push((ident.to_string(), value.to_string()));
    }
    out
}

fn registry() -> BTreeSet<&'static str> {
    counters::ALL
        .iter()
        .chain(counters::GAUGES)
        .copied()
        .collect()
}

/// True if `hay[i..]` starts with `ident` as a whole word.
fn word_at(hay: &str, i: usize, ident: &str) -> bool {
    let ident_char = |c: char| c.is_ascii_alphanumeric() || c == '_';
    hay[i..].starts_with(ident)
        && !hay[i + ident.len()..].starts_with(ident_char)
        && (i == 0 || !hay[..i].ends_with(ident_char))
}

fn contains_word(hay: &str, ident: &str) -> bool {
    let mut from = 0;
    while let Some(off) = hay[from..].find(ident) {
        if word_at(hay, from + off, ident) {
            return true;
        }
        from += off + 1;
    }
    false
}

#[test]
fn every_declared_name_is_registered_exactly_once() {
    let consts = declared_consts();
    let reg = registry();
    for (ident, value) in &consts {
        assert!(
            reg.contains(value.as_str()),
            "{ident} (\"{value}\") is declared but missing from counters::ALL / counters::GAUGES"
        );
    }
    // The parser sees the registry: it parses every registered name, so
    // a parser that stops finding declarations fails here whatever the
    // registry's size.
    let parsed: BTreeSet<&str> = consts.iter().map(|(_, value)| value.as_str()).collect();
    assert_eq!(
        parsed, reg,
        "the const parser must find exactly the registered names"
    );
    assert_eq!(
        consts.len(),
        counters::ALL.len() + counters::GAUGES.len(),
        "ALL + GAUGES must list each declared name exactly once"
    );
}

#[test]
fn every_registered_name_is_referenced_outside_the_registry() {
    let consts = declared_consts();
    let mut sources = Vec::new();
    for krate in std::fs::read_dir(workspace_root().join("crates")).expect("crates dir") {
        rust_sources(&krate.expect("crate dir").path().join("src"), &mut sources);
    }
    let bodies: Vec<String> = sources
        .iter()
        .filter(|p| !p.ends_with("core/src/counters.rs"))
        .map(|p| std::fs::read_to_string(p).expect("readable source"))
        .collect();
    for (ident, value) in &consts {
        let quoted = format!("\"{value}\"");
        let used = bodies
            .iter()
            .any(|b| contains_word(b, ident) || b.contains(&quoted));
        assert!(
            used,
            "registered name {ident} (\"{value}\") is never referenced outside counters.rs"
        );
    }
}

#[test]
fn every_counter_literal_in_core_and_bench_is_registered() {
    let reg = registry();
    let root = workspace_root();
    let mut sources = Vec::new();
    rust_sources(&root.join("crates/core/src"), &mut sources);
    rust_sources(&root.join("crates/bench/src"), &mut sources);
    let calls = [
        ".incr(\"",
        ".add(\"",
        ".set_max(\"",
        ".gauge(\"",
        ".counter_delta(\"",
        ".get(\"",
    ];
    let mut unregistered = Vec::new();
    for path in &sources {
        let body = std::fs::read_to_string(path).expect("readable source");
        for call in calls {
            let mut from = 0;
            while let Some(off) = body[from..].find(call) {
                let start = from + off + call.len();
                from = start;
                let Some(end) = body[start..].find('"') else {
                    continue;
                };
                let name = &body[start..start + end];
                // Only counter-style names: lowercase words joined by
                // underscores (plain `.get("key")` map lookups with
                // other shapes are not stats reads).
                if !name.contains('_')
                    || !name
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
                {
                    continue;
                }
                if reg.contains(name) || FOREIGN_PREFIXES.iter().any(|p| name.starts_with(p)) {
                    continue;
                }
                unregistered.push(format!("{}: \"{name}\"", path.display()));
            }
        }
    }
    assert!(
        unregistered.is_empty(),
        "counter literals missing from counters::ALL / counters::GAUGES:\n{}",
        unregistered.join("\n")
    );
}
