//! Manifest drift test: a dependency a package declares is a dependency
//! its sources name.
//!
//! For the root package and every `crates/*` member, each
//! `[dependencies]` entry must be mentioned (`name::…` or `use name`)
//! somewhere under the package's `src/`, and each `[dev-dependencies]`
//! entry somewhere under `src/`, `tests/` or `examples/`.  A declaration
//! nothing names only lengthens the build and the lock file.  The scan is
//! textual, like `knob_registry.rs`.

use std::path::{Path, PathBuf};

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return; // a package without tests/ or examples/
    };
    for entry in entries {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The dependency names of one `[section]` of a manifest.
fn section(manifest: &str, header: &str) -> Vec<String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter_map(|l| l.split(['.', ' ', '=']).next())
        .filter(|name| !name.is_empty() && !name.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// Whether any source under `dirs` names the crate: `ident::` or
/// `use ident`, not preceded by an identifier character.
fn mentioned(package: &Path, dirs: &[&str], name: &str) -> bool {
    let ident = name.replace('-', "_");
    let mut sources = Vec::new();
    for dir in dirs {
        rust_sources(&package.join(dir), &mut sources);
    }
    sources.iter().any(|path| {
        let src = std::fs::read_to_string(path).expect("readable source");
        src.match_indices(&ident).any(|(at, _)| {
            let before = src[..at].chars().next_back();
            let bounded = !before.is_some_and(|c| c.is_alphanumeric() || c == '_');
            let after = &src[at + ident.len()..];
            bounded
                && (after.starts_with("::")
                    || (src[..at].ends_with("use ") && after.starts_with([';', ' '])))
        })
    })
}

#[test]
fn every_declared_dependency_is_named_by_its_package() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut packages = vec![root.to_path_buf()];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/") {
        packages.push(entry.expect("dir entry").path());
    }
    let mut unused = Vec::new();
    for package in &packages {
        let manifest = std::fs::read_to_string(package.join("Cargo.toml")).expect("a manifest");
        let rel = package
            .strip_prefix(root)
            .expect("under the root")
            .display();
        for (header, dirs) in [
            ("[dependencies]", &["src"][..]),
            ("[dev-dependencies]", &["src", "tests", "examples"][..]),
        ] {
            for name in section(&manifest, header) {
                if !mentioned(package, dirs, &name) {
                    unused.push(format!("{rel}/Cargo.toml {header} {name}"));
                }
            }
        }
    }
    assert!(
        unused.is_empty(),
        "declared but never named in the package's sources:\n  {}",
        unused.join("\n  ")
    );
}
