//! Knob drift test: the fields of `BulletConfig`, the knob table in
//! `DESIGN.md` and the code that actually sets a knob must agree.
//!
//! * `BulletConfig` has exactly [`KNOBS`] `pub` fields, and the DESIGN.md
//!   knob table has exactly one row per field — a knob cannot be added
//!   without being documented, nor deleted and left in the docs.
//! * Every field is assigned by something that runs: a field assignment
//!   (`cfg.field = …`) in a binary, rig, example or benchmark, above the
//!   file's `#[cfg(test)]` module.  Struct literals are not assignments
//!   and do not count: neither `BulletConfig::small_test`, which spells
//!   out every default, nor `rig::paper_config`, which names only the
//!   rigs' differences from it; nor does anything under a `tests/`
//!   directory.  A knob only tests set is a guess about traffic
//!   that never arrived ([`UNSET_BY_DESIGN`] lists the exceptions, each
//!   with its reason).
//! * Three ratchets: the field count, the size of `server.rs` above its
//!   test module and the number of `pub fn`s of `BulletServer` only go
//!   down, and the last two are pinned exactly, so the change that
//!   lowers one records the new figure.
//!
//! The scan is textual, like `counter_registry.rs`: a configuration is
//! recognised by its binding's name (`cfg`, `lon_cfg`, `cfg_b`, or the
//! `c` of the rigs' tweak closures).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Fields of `BulletConfig`.  A ratchet: lower it with every knob
/// deleted; a PR that raises it must say which two callers need
/// different values.
const KNOBS: usize = 23;

/// Code lines (neither blank nor `//`) of `server.rs` above its test
/// module — the figure ROADMAP item 3(a) tracks towards 1,500, and
/// `scripts/loc.sh` prints.  An exact ratchet: the change that shrinks
/// the file lowers it, so later code cannot grow back into the slack.
const SERVER_CODE_LINES: usize = 1399;

/// `pub fn`s in the `impl BulletServer` blocks of `server.rs` and
/// `logpath.rs` above their tests: ROADMAP item 3(g)'s public surface.
/// An exact ratchet, like [`SERVER_CODE_LINES`].
const SERVER_PUB_FNS: usize = 36;

/// Knobs nothing outside tests assigns, and why each stays anyway.
const UNSET_BY_DESIGN: &[(&str, &str)] = &[(
    "rng_seed",
    "ROADMAP 2(b) replaces it with a persisted mint epoch",
)];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(workspace_root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
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

/// The part of a source file above its `#[cfg(test)]` module.
fn above_tests(src: &str) -> &str {
    src.find("\n#[cfg(test)]").map_or(src, |at| &src[..at])
}

/// The `pub` field names of `pub struct BulletConfig { … }`.
fn knobs() -> Vec<String> {
    let src = read("crates/core/src/server.rs");
    src.lines()
        .skip_while(|l| !l.starts_with("pub struct BulletConfig {"))
        .take_while(|l| !l.starts_with('}'))
        .filter_map(|l| l.strip_prefix("    pub "))
        .filter_map(|l| l.split_once(':'))
        .map(|(name, _)| name.to_string())
        .collect()
}

/// First cells of the DESIGN.md table whose header row starts
/// `| Knob | Default |`.
fn documented_knobs() -> Vec<String> {
    read("DESIGN.md")
        .lines()
        .skip_while(|l| !l.starts_with("| Knob | Default |"))
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .filter_map(|l| l.split('`').nth(1))
        .map(str::to_string)
        .collect()
}

/// True if `line` assigns `knob` on a configuration binding.
fn assigns(line: &str, knob: &str) -> bool {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let field = format!(".{knob}");
    line.match_indices(&field).any(|(at, _)| {
        let rest = line[at + field.len()..].trim_start();
        let receiver = line[..at].rsplit(|c| !ident(c)).next().unwrap_or("");
        rest.starts_with('=')
            && !rest.starts_with("==")
            && (receiver == "c" || receiver.contains("cfg"))
    })
}

#[test]
fn bullet_config_and_the_design_table_list_the_same_knobs() {
    let fields = knobs();
    assert_eq!(
        fields.len(),
        KNOBS,
        "BulletConfig's field count moved: {fields:?}"
    );
    let rows = documented_knobs();
    let field_set: BTreeSet<&String> = fields.iter().collect();
    let row_set: BTreeSet<&String> = rows.iter().collect();
    assert_eq!(
        field_set, row_set,
        "DESIGN.md's knob table and BulletConfig disagree"
    );
    assert_eq!(rows.len(), row_set.len(), "a knob has two rows: {rows:?}");
}

#[test]
fn every_knob_is_assigned_by_something_that_runs() {
    let root = workspace_root();
    let mut sources = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates dir") {
        rust_sources(&krate.expect("crate dir").path().join("src"), &mut sources);
    }
    rust_sources(&root.join("src"), &mut sources);
    rust_sources(&root.join("examples"), &mut sources);
    let bodies: Vec<String> = sources
        .iter()
        .map(|p| std::fs::read_to_string(p).expect("readable source"))
        .collect();
    let is_set = |knob: &str| {
        bodies.iter().any(|body| {
            above_tests(body)
                .lines()
                .filter(|l| !l.trim_start().starts_with("//"))
                .any(|l| assigns(l, knob))
        })
    };
    let knobs = knobs();
    for knob in &knobs {
        let excused = UNSET_BY_DESIGN.iter().find(|(k, _)| k == knob);
        match (is_set(knob), excused) {
            (true, None) | (false, Some(_)) => {}
            (false, None) => panic!(
                "no binary, rig, example or benchmark assigns BulletConfig::{knob}: \
                 make it a constant, or add it to UNSET_BY_DESIGN with the reason it stays"
            ),
            (true, Some(_)) => panic!("{knob} is assigned now: drop it from UNSET_BY_DESIGN"),
        }
    }
    for (knob, _) in UNSET_BY_DESIGN {
        assert!(
            knobs.iter().any(|k| k == knob),
            "UNSET_BY_DESIGN names {knob}, which is no longer a knob"
        );
    }
}

#[test]
fn server_rs_only_shrinks() {
    let src = read("crates/core/src/server.rs");
    let code_lines = above_tests(&src)
        .lines()
        .map(str::trim_start)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count();
    assert!(
        code_lines <= SERVER_CODE_LINES,
        "server.rs grew to {code_lines} code lines above its tests (ratchet: {SERVER_CODE_LINES})"
    );
    assert!(
        code_lines == SERVER_CODE_LINES,
        "server.rs shrank to {code_lines} code lines above its tests: \
         lower SERVER_CODE_LINES to {code_lines}"
    );
}

#[test]
fn bullet_server_pub_fns_only_go_down() {
    let count: usize = ["crates/core/src/server.rs", "crates/core/src/logpath.rs"]
        .iter()
        .map(|rel| {
            let src = read(rel);
            let mut in_impl = false;
            above_tests(&src)
                .lines()
                .filter(|l| {
                    if l.starts_with("impl BulletServer {") {
                        in_impl = true;
                    } else if l.starts_with('}') {
                        in_impl = false;
                    }
                    in_impl && l.trim_start().starts_with("pub fn ")
                })
                .count()
        })
        .sum();
    assert!(
        count <= SERVER_PUB_FNS,
        "BulletServer grew to {count} pub fns (ratchet: {SERVER_PUB_FNS})"
    );
    assert!(
        count == SERVER_PUB_FNS,
        "BulletServer shrank to {count} pub fns: lower SERVER_PUB_FNS to {count}"
    );
}
