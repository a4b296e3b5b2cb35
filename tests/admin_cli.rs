//! End-to-end test of the `bullet-admin` operator CLI against real disk
//! image files, driving the compiled binary the way an operator would.

use std::path::PathBuf;
use std::process::{Command, Output};

fn admin(args: &[&str], dir: &PathBuf) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bullet-admin"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary runs")
}

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bullet-admin-test-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("workdir");
    dir
}

#[test]
fn format_store_cat_rm_cycle() {
    let dir = workdir("cycle");
    let out = admin(
        &[
            "format",
            "a.img",
            "b.img",
            "--blocks",
            "2048",
            "--block-size",
            "512",
        ],
        &dir,
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    std::fs::write(dir.join("note.txt"), b"operator data").expect("write host file");
    let out = admin(&["store", "a.img", "b.img", "note.txt"], &dir);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let cap = String::from_utf8(out.stdout)
        .expect("utf8")
        .trim()
        .to_string();
    assert_eq!(cap.len(), 32, "a capability is 32 hex digits: {cap}");

    // The capability round-trips the bytes.
    let out = admin(&["cat", "a.img", "b.img", &cap], &dir);
    assert!(out.status.success());
    assert_eq!(out.stdout, b"operator data");

    // The file shows in ls and info.
    let out = admin(&["ls", "a.img", "b.img"], &dir);
    assert!(String::from_utf8_lossy(&out.stdout).contains(&cap));
    let out = admin(&["info", "a.img", "b.img"], &dir);
    assert!(String::from_utf8_lossy(&out.stdout).contains("live files   : 1"));

    // A forged capability is refused.
    let mut forged = cap.clone().into_bytes();
    forged[31] = if forged[31] == b'0' { b'1' } else { b'0' };
    let out = admin(
        &[
            "cat",
            "a.img",
            "b.img",
            std::str::from_utf8(&forged).expect("hex"),
        ],
        &dir,
    );
    assert!(!out.status.success());

    // Remove, then the capability is dead.
    let out = admin(&["rm", "a.img", "b.img", &cap], &dir);
    assert!(out.status.success());
    let out = admin(&["cat", "a.img", "b.img", &cap], &dir);
    assert!(!out.status.success());

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn capability_survives_between_invocations_on_one_image() {
    // Single-replica server: state persists purely in the image file
    // between completely separate process runs.
    let dir = workdir("persist");
    assert!(admin(&["format", "solo.img", "--blocks", "1024"], &dir)
        .status
        .success());
    std::fs::write(dir.join("f.bin"), vec![7u8; 4000]).expect("host file");
    let out = admin(&["store", "solo.img", "f.bin"], &dir);
    let cap = String::from_utf8(out.stdout)
        .expect("utf8")
        .trim()
        .to_string();

    let out = admin(&["cat", "solo.img", &cap], &dir);
    assert!(out.status.success());
    assert_eq!(out.stdout, vec![7u8; 4000]);

    // Compaction between runs does not break the capability.
    assert!(admin(&["compact", "solo.img"], &dir).status.success());
    let out = admin(&["cat", "solo.img", &cap], &dir);
    assert_eq!(out.stdout, vec![7u8; 4000]);

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn bad_usage_reports_errors() {
    let dir = workdir("usage");
    let out = admin(&[], &dir);
    assert!(!out.status.success());
    let out = admin(&["info", "missing.img"], &dir);
    assert!(!out.status.success());
    let out = admin(&["bogus", "x.img"], &dir);
    assert!(!out.status.success());
    // A geometry no server can be formatted with is a usage error,
    // rejected before any image is created: `FileDisk::create` would
    // assert on a zero block size, spin on a 4 GB one, and size a 2.5 TB
    // sparse file for five billion blocks.
    for geometry in [
        ["--block-size", "0"],
        ["--block-size", "24"],
        ["--block-size", "4294967295"],
        ["--blocks", "1"],
        ["--blocks", "5000000000"],
        ["--inodes", "4294967295"],
    ] {
        let out = admin(&["format", "bad.img", geometry[0], geometry[1]], &dir);
        assert_eq!(out.status.code(), Some(1), "{geometry:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("bullet-admin: --block-size"), "{stderr}");
        assert!(!dir.join("bad.img").exists(), "{geometry:?} left an image");
    }
    // A format that fails later removes the images it had already made.
    let out = admin(&["format", "first.img", "no-such-dir/second.img"], &dir);
    assert_eq!(out.status.code(), Some(1));
    assert!(!dir.join("first.img").exists());
    // The success line reports the table as formatted, not as requested.
    let out = admin(&["format", "ok.img", "--inodes", "0"], &dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.ends_with(", 32 inodes\n"),
        "{stdout}"
    );
    let out = admin(&["info", "ok.img"], &dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("(32 slots)"), "{stdout}");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn every_block_size_format_accepts_round_trips_a_file() {
    let dir = workdir("block-sizes");
    std::fs::write(
        dir.join("f.txt"),
        b"forty-two bytes of operator data, exactly.",
    )
    .expect("host file");
    let mut accepted = Vec::new();
    for block_size in ["16", "24", "48", "100", "512", "1040"] {
        let out = admin(&["format", "a.img", "--block-size", block_size], &dir);
        if !out.status.success() {
            // 24- and 100-byte blocks would leave slack after their
            // inodes, which the flat table read-back cannot skip.
            assert_eq!(out.status.code(), Some(1), "{block_size}");
            assert!(!dir.join("a.img").exists(), "{block_size} left an image");
            continue;
        }
        accepted.push(block_size);
        let out = admin(&["store", "a.img", "f.txt"], &dir);
        assert!(out.status.success(), "store at {block_size}");
        let cap = String::from_utf8(out.stdout).expect("utf8");
        let out = admin(&["ls", "a.img"], &dir);
        let listing = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && listing.contains(cap.trim()),
            "ls at {block_size}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let out = admin(&["cat", "a.img", cap.trim()], &dir);
        assert_eq!(out.stdout, b"forty-two bytes of operator data, exactly.");
        std::fs::remove_file(dir.join("a.img")).expect("next size starts clean");
    }
    assert_eq!(accepted, ["16", "48", "512", "1040"]);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
