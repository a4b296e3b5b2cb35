//! The experiment harness: the replay-twice runner and plain `report`'s
//! regenerate-everything loop judged on a fake ablation, `report NAME`'s
//! selection, every registered experiment green at tier-1 scale, the
//! registry against `results/` and `src/bin/`, `report --json`
//! regenerating the committed `BENCH_pr2.json` byte for byte, and its
//! refusal to write a baseline with a red criterion in it.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;
use std::sync::OnceLock;

use bullet_bench::ablation::{
    judge, regenerate, select, write_baseline, Invariant, Outcome, Scale, Trailer, REGISTRY,
};

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
        report_md: "### fake section\n\n".to_string(),
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
fn regenerating_everything_fails_when_any_one_outcome_is_red_or_diverges() {
    type Experiment = Box<dyn FnMut() -> Outcome>;
    let green = || Box::new(|| fake("  row\n", true)) as Experiment;
    let all_green = regenerate([green(), green()]);
    assert!(all_green.failures.is_empty(), "{:?}", all_green.failures);
    let (name, report) = all_green.files.last().expect("REPORT.md comes last");
    assert_eq!(*name, "REPORT.md");
    assert_eq!(
        all_green.files.len(),
        5,
        "two files per fake, plus REPORT.md"
    );
    assert_eq!(report.matches("### fake section\n").count(), 2, "{report}");
    assert_eq!(
        report
            .matches(
                "| `ablation_fake.txt` | ABL99 fake ablation (seed 1) | 2 of 2 | byte-identical |\n"
            )
            .count(),
        2,
        "{report}"
    );

    let one_red = regenerate([green(), Box::new(|| fake("  row\n", false)), green()]);
    assert_eq!(
        one_red.failures,
        ["ABL99 FAILED: the second thing holds (measured 7)"]
    );
    assert!(one_red
        .files
        .last()
        .expect("REPORT.md")
        .1
        .contains("| 1 of 2 |"));

    let mut tables = ["  row 1\n", "  row 2\n"].into_iter();
    let diverging = Box::new(move || fake(tables.next().expect("two runs"), true));
    let one_diverged = regenerate([green(), diverging]);
    assert_eq!(
        one_diverged.failures,
        ["ABL99 FAILED: replay diverged from the first run"]
    );
    assert!(one_diverged
        .files
        .last()
        .expect("REPORT.md")
        .1
        .contains("| DIVERGED |"));
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

fn args(words: &[&str]) -> Vec<String> {
    words.iter().map(|w| w.to_string()).collect()
}

/// `(name, scale)` of each row `report` would run for `words`.
fn selected(words: &[&str]) -> Vec<(&'static str, Scale)> {
    select(&args(words))
        .expect("a valid selection")
        .into_iter()
        .map(|(e, scale)| (e.name, scale))
        .collect()
}

#[test]
fn an_unknown_name_or_flag_is_refused_with_every_registry_name() {
    for words in [&["nope"][..], &["ablation_faults", "--seed"], &["--soak"]] {
        let refused = select(&args(words)).err().expect("refused");
        for e in &REGISTRY {
            assert!(refused.contains(e.name), "{words:?}: {refused}");
        }
    }
}

#[test]
fn a_name_selects_every_row_of_that_name_at_its_committed_scale() {
    assert_eq!(
        selected(&["ablation_tiering"]),
        [
            ("ablation_tiering", Scale::Full),
            ("ablation_tiering", Scale::Soak)
        ]
    );
    // Registry order, whatever the order of the names.
    assert_eq!(
        selected(&["mixed_workload", "fig1_layout"]),
        [
            ("fig1_layout", Scale::Full),
            ("mixed_workload", Scale::Full)
        ]
    );
}

#[test]
fn soak_runs_each_selected_name_once_at_soak_scale() {
    assert_eq!(
        selected(&[
            "--soak",
            "ablation_shard",
            "ablation_faults",
            "ablation_tiering"
        ]),
        [
            ("ablation_faults", Scale::Soak),
            ("ablation_shard", Scale::Soak),
            ("ablation_tiering", Scale::Soak)
        ]
    );
}

#[test]
fn no_name_selects_the_whole_registry_at_its_committed_scales() {
    let whole: Vec<_> = REGISTRY.iter().map(|e| (e.name, e.committed)).collect();
    assert_eq!(selected(&[]), whole);
}

/// One outcome per registry entry, at the scale tier-1 affords: the
/// reduced cell where there is one (ABL16/17 at full scale take 20 s in
/// release), the committed scale otherwise.
fn tier1_outcomes() -> &'static [Outcome] {
    static OUTCOMES: OnceLock<Vec<Outcome>> = OnceLock::new();
    OUTCOMES.get_or_init(|| {
        REGISTRY
            .iter()
            .map(|e| {
                (e.at)(if e.reduced {
                    Scale::Reduced
                } else {
                    e.committed
                })
            })
            .collect()
    })
}

#[test]
fn every_registered_experiment_is_green_at_tier1_scale() {
    for outcome in tier1_outcomes() {
        for c in &outcome.criteria {
            assert!(c.pass, "{}: {} ({})", outcome.title, c.name, c.detail);
        }
    }
}

#[test]
fn report_json_regenerates_the_committed_baseline_byte_for_byte() {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("BENCH_regenerated.json");
    let run = Command::new(env!("CARGO_BIN_EXE_report"))
        .arg("--json")
        .arg(&path)
        .output()
        .expect("report runs");
    assert!(
        run.status.success(),
        "report --json failed:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let fresh = std::fs::read_to_string(&path).expect("report wrote the scratch file");
    let committed = std::fs::read_to_string(BASELINE).expect("the committed baseline is readable");
    assert!(
        fresh == committed,
        "BENCH_pr2.json is stale: regenerate it with `report --json BENCH_pr2.json` \
         (first difference at line {})",
        1 + fresh
            .lines()
            .zip(committed.lines())
            .take_while(|(f, c)| f == c)
            .count()
    );
}

#[test]
fn a_baseline_with_a_red_criterion_in_it_is_never_written() {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("BENCH_red.json");
    let path = path.to_str().expect("UTF-8 scratch path");
    std::fs::write(path, "the committed baseline\n").expect("scratch file");
    let outcomes = [fake("  row\n", true), fake("  row\n", false)];
    let refused = write_baseline(path, "{}\n", &outcomes).unwrap_err();
    assert_eq!(
        refused,
        "ABL99 fake ablation (seed 1): criterion red: the second thing holds (measured 7)"
    );
    assert_eq!(
        std::fs::read_to_string(path).expect("scratch file survives"),
        "the committed baseline\n"
    );
    assert_eq!(write_baseline(path, "{}\n", &outcomes[..1]), Ok(()));
    assert_eq!(std::fs::read_to_string(path).expect("written"), "{}\n");
}

/// Files under `results/` no registry entry writes, and why.
const NOT_IN_THE_REGISTRY: &[(&str, &str)] = &[
    (
        "REPORT.md",
        "written by `report` itself, from every outcome",
    ),
    (
        "bench",
        "wall-clock trajectories written by scripts/bench_pairs.sh, one pair of files per perf PR",
    ),
];

fn file_names(dir: &Path) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("dir entry").file_name())
        .map(|name| name.into_string().expect("UTF-8 file name"))
        .collect()
}

#[test]
fn the_registry_results_and_the_bins_name_each_other_exactly() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));

    // Every artifact is declared by exactly one experiment …
    let mut declared = BTreeSet::new();
    for outcome in tier1_outcomes() {
        let extras = outcome.extras.iter().map(|(name, _)| *name);
        for name in std::iter::once(outcome.artifact).chain(extras) {
            assert!(declared.insert(name.to_string()), "{name} is written twice");
        }
    }
    // … every file under results/ is one of them (or excused by name) …
    let mut expected = declared.clone();
    expected.extend(NOT_IN_THE_REGISTRY.iter().map(|(name, _)| name.to_string()));
    let on_disk = file_names(&root.join("../../results"));
    let strays: Vec<_> = on_disk.difference(&expected).collect();
    assert!(strays.is_empty(), "no experiment writes results/{strays:?}");
    // … and a declared artifact is absent only if git ignores it.
    let ignored = std::fs::read_to_string(root.join("../../.gitignore")).expect(".gitignore");
    for missing in expected.difference(&on_disk) {
        assert!(
            ignored.lines().any(|l| l == format!("results/{missing}")),
            "results/{missing} is neither committed nor ignored"
        );
    }

    // `report` runs every registered experiment by name, and is the one
    // bin.
    assert_eq!(
        file_names(&root.join("src/bin")),
        BTreeSet::from(["report.rs".to_string()]),
        "an experiment is a REGISTRY row, not a bin"
    );
}
