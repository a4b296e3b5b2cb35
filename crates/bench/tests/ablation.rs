//! The ablation harness: the replay-twice runner judged on a fake
//! ablation, the seven real ablations' declared keys against the
//! committed `BENCH_pr2.json`, and `report --json --check` being
//! read-only.

use std::collections::BTreeSet;
use std::process::Command;

use bullet_bench::ablation::{judge, Invariant, Outcome, Trailer, REDUCED};
use bullet_bench::check::{json_lookup_section, Json};

const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr2.json");

fn fake(table: &str, second_criterion_passes: bool) -> Outcome {
    Outcome {
        title: "ABL99 fake ablation (seed 1)".to_string(),
        table: table.to_string(),
        criteria: vec![
            Invariant::new("the first thing holds", true, "1 of 1".to_string()),
            Invariant::new(
                "the second thing holds",
                second_criterion_passes,
                "measured 7".to_string(),
            ),
        ],
        json: Vec::new(),
        artifact: "ablation_fake.txt",
        trailer: Trailer::RedCriteria,
        extras: vec![("ablation_fake_trace.jsonl", "{}\n".to_string())],
    }
}

#[test]
fn a_replay_that_renders_a_different_table_is_reported_and_fails() {
    let mut tables = ["  row 1\n", "  row 2\n"].into_iter();
    let verdict = judge(|| fake(tables.next().expect("judge runs twice"), true));
    assert!(tables.next().is_none(), "judge must run the ablation twice");
    assert!(
        verdict.console.contains("replay determinism: DIVERGED"),
        "{}",
        verdict.console
    );
    assert_eq!(
        verdict.failures,
        ["ABL99 FAILED: replay diverged from the first run"]
    );
    assert!(
        verdict.files[0]
            .1
            .ends_with("replay_deterministic=false red_criteria=0\n"),
        "{}",
        verdict.files[0].1
    );
}

#[test]
fn a_red_criterion_fails_is_named_and_counted_in_the_trailer() {
    let verdict = judge(|| fake("  row\n", false));
    assert_eq!(
        verdict.failures,
        ["ABL99 FAILED: the second thing holds (measured 7)"]
    );
    assert!(
        verdict.console.contains("RED the second thing holds"),
        "{}",
        verdict.console
    );
    assert!(
        verdict.console.contains("criteria: 1 of 2 green"),
        "{}",
        verdict.console
    );
    assert!(
        verdict.files[0]
            .1
            .ends_with("replay_deterministic=true red_criteria=1\n"),
        "{}",
        verdict.files[0].1
    );
}

#[test]
fn a_green_run_passes_and_its_artifact_is_title_table_trailer() {
    let verdict = judge(|| fake("  row\n", true));
    assert!(verdict.failures.is_empty(), "{:?}", verdict.failures);
    assert_eq!(
        verdict.files,
        [
            (
                "ablation_fake.txt",
                "ABL99 fake ablation (seed 1)\n  row\nreplay_deterministic=true red_criteria=0\n"
                    .to_string()
            ),
            ("ablation_fake_trace.jsonl", "{}\n".to_string()),
        ]
    );
    // The other two trailer spellings count the same criteria.
    let cells = judge(|| Outcome {
        trailer: Trailer::GreenCells,
        ..fake("  row\n", false)
    });
    assert!(
        cells.files[0]
            .1
            .ends_with("replay_deterministic=true green_cells=1/2\n"),
        "{}",
        cells.files[0].1
    );
    let soak = judge(|| Outcome {
        trailer: Trailer::RedCriteriaOnly,
        ..fake("  row\n", false)
    });
    assert!(
        soak.files[0].1.ends_with("  row\nred_criteria=1\n"),
        "{}",
        soak.files[0].1
    );
}

/// `(section, key)` for every top-level object of the committed baseline.
fn baseline_section_keys(doc: &str) -> BTreeSet<(String, String)> {
    let mut keys = BTreeSet::new();
    let mut section = None;
    for line in doc.lines() {
        let name = || line.trim().split('"').nth(1).map(str::to_string);
        if line.starts_with("  \"") && line.ends_with(": {") {
            section = name();
        } else if line.starts_with("  }") {
            section = None;
        } else if let (Some(section), Some(key)) = (&section, name()) {
            keys.insert((section.clone(), key));
        }
    }
    keys
}

#[test]
fn every_reduced_ablation_is_green_and_the_baseline_carries_exactly_the_declared_keys() {
    let doc = std::fs::read_to_string(BASELINE).expect("the committed baseline is readable");
    let mut declared = BTreeSet::new();
    for reduced in REDUCED {
        let outcome = reduced();
        for c in &outcome.criteria {
            assert!(c.pass, "{}: {} ({})", outcome.title, c.name, c.detail);
        }
        for (section, value) in &outcome.json {
            let Json::Object(members) = value else {
                // ABL13's row table: present, checked line by line by
                // `report --json --check`.
                assert!(doc.contains(&format!("\n  \"{section}\": ")), "{section}");
                continue;
            };
            for (key, _) in members {
                assert!(
                    json_lookup_section(&doc, section, key).is_some(),
                    "the committed baseline lacks \"{key}\" in \"{section}\""
                );
                declared.insert((section.to_string(), key.clone()));
            }
        }
    }
    assert_eq!(
        baseline_section_keys(&doc),
        declared,
        "baseline sections (left) vs keys the ablations declare (right)"
    );
}

#[test]
fn report_check_passes_inside_the_headroom_and_never_writes_the_baseline() {
    // A copy of the baseline whose 1 MB create p99 sits 5 % below what a
    // fresh run measures: inside the gate's 10 % headroom, so the check
    // passes — and the drifted file must come back byte for byte.
    let doc = std::fs::read_to_string(BASELINE).expect("the committed baseline is readable");
    let (small, mb) = doc
        .split_once("\"bytes\": 1048576,")
        .expect("the baseline has a 1 MB row");
    let (before, rest) = mb
        .split_once("\"create_p99_ms\": ")
        .expect("the 1 MB row has a create p99");
    let (value, after) = rest.split_once('\n').expect("one member per line");
    let committed: f64 = value.trim_end_matches(',').parse().expect("a number");
    let drifted = format!(
        "{small}\"bytes\": 1048576,{before}\"create_p99_ms\": {:.3},\n{after}",
        committed * 0.95
    );
    assert_ne!(drifted, doc);
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("BENCH_drifted.json");
    std::fs::write(&path, &drifted).expect("scratch copy");

    let run = Command::new(env!("CARGO_BIN_EXE_report"))
        .args(["--json", "--check"])
        .arg(&path)
        .output()
        .expect("report runs");
    assert!(
        run.status.success(),
        "check failed:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert_eq!(
        std::fs::read_to_string(&path).expect("scratch copy survives"),
        drifted,
        "--check rewrote the baseline it was asked to check"
    );
}
