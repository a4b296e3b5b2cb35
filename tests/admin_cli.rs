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
    // A zero block size is a usage error, rejected before any image is
    // created (`FileDisk::create` would assert on it).
    let out = admin(&["format", "zero.img", "--block-size", "0"], &dir);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("bullet-admin: --block-size"), "{stderr}");
    assert!(!dir.join("zero.img").exists());
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
