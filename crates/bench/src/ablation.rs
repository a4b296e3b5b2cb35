//! The one harness behind every deterministic experiment.
//!
//! Each experiment is one library function (`paper::fig2_bullet`,
//! `sweeps::mirror`, `faults::ablation`, …) that runs once and returns an
//! [`Outcome`]: the rendered table, the criteria it judged (every
//! threshold is stated there, once, with its reason), what it contributes
//! to `BENCH_pr2.json` and `REPORT.md`, and any extra artifacts.
//! [`REGISTRY`] lists them all, and `report` is the one driver:
//!
//! * plain `report` runs every experiment twice, judges it, rewrites
//!   every artifact and renders `REPORT.md` from the outcomes;
//! * `report [--soak] NAME...` does the same for the named experiments
//!   only ([`select`]), without `REPORT.md`;
//! * `report --json` runs the registry's reduced cells and writes the
//!   declared members, through [`write_baseline`]: never with a criterion
//!   red.
//!
//! Adding an experiment is one such function and one line in
//! [`REGISTRY`] (the recipe is in EXPERIMENTS.md).

use std::process::ExitCode;

use amoeba_sim::json::Json;

use crate::table::Text;
use crate::{
    evsim, faults, groupcommit, monitor, paper, schedbench, shardbench, sweeps, tierbench,
    tracebench,
};

/// How much of an ablation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The small cell `report --json` embeds and gates on every push.
    Reduced,
    /// The default matrix (the committed `results/` artifact).
    Full,
    /// The nightly widening (`report --soak`); ablations without one run
    /// their full matrix.
    Soak,
}

/// One named criterion (or invariant of a cell) and whether it held.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Invariant {
    /// What must hold.
    pub name: &'static str,
    /// Whether it held.
    pub pass: bool,
    /// Deterministic supporting detail (counts, never addresses).
    pub detail: String,
}

impl Invariant {
    /// A criterion with its measured detail.
    pub fn new(name: &'static str, pass: bool, detail: String) -> Invariant {
        Invariant { name, pass, detail }
    }

    /// Folds one matrix cell's invariants into a single criterion named
    /// after the cell: green when all hold, and naming every red one.
    pub fn cell(name: &'static str, which: String, invariants: &[Invariant]) -> Invariant {
        let reds: Vec<String> = invariants
            .iter()
            .filter(|i| !i.pass)
            .map(|i| format!("{} ({})", i.name, i.detail))
            .collect();
        let detail = if reds.is_empty() {
            format!("{which}: {} invariants hold", invariants.len())
        } else {
            format!("{which}: {}", reds.join("; "))
        };
        Invariant::new(name, reds.is_empty(), detail)
    }

    /// A criterion over every row of a table: green when no row is red,
    /// and naming the red ones (their numbers are in the table).
    pub fn rows(name: &'static str, reds: &[String]) -> Invariant {
        let detail = match reds {
            [] => "holds on every row".to_string(),
            reds => format!("red: {}", reds.join(", ")),
        };
        Invariant::new(name, reds.is_empty(), detail)
    }
}

/// How an artifact's last line is spelled (the committed files differ).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trailer {
    /// `replay_deterministic=… green_cells=g/n` — criteria are cells.
    GreenCells,
    /// `replay_deterministic=… red_criteria=r`.
    RedCriteria,
    /// `red_criteria=r` alone (the ABL19 soak log).
    RedCriteriaOnly,
}

/// Everything one run of an ablation produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The artifact's first line; its first word (`ABL14`) tags failures.
    pub title: String,
    /// The rendered table — the determinism witness a replay must
    /// reproduce byte for byte.
    pub table: String,
    /// The criteria judged, in order.
    pub criteria: Vec<Invariant>,
    /// Top-level members contributed to `BENCH_pr2.json`.
    pub json: Vec<(&'static str, Json)>,
    /// Markdown contributed to `results/REPORT.md` (Figs. 2–3 and the §4
    /// scorecard); empty for most.
    pub report_md: String,
    /// File name of the table artifact under `results/`.
    pub artifact: &'static str,
    /// Spelling of the artifact's last line.
    pub trailer: Trailer,
    /// Further artifacts: `(file name under results/, contents)`.
    pub extras: Vec<(&'static str, String)>,
}

impl Outcome {
    /// An outcome that is only its table and criteria, from the
    /// artifact's text: the first line of `rendered` is the title.
    pub fn plain(artifact: &'static str, rendered: &Text, criteria: Vec<Invariant>) -> Outcome {
        let (title, table) = rendered.0.split_once('\n').expect("a title line");
        Outcome {
            title: title.to_string(),
            table: table.to_string(),
            criteria,
            json: Vec::new(),
            report_md: String::new(),
            artifact,
            trailer: Trailer::RedCriteria,
            extras: Vec::new(),
        }
    }
}

/// One deterministic experiment.
pub struct Experiment {
    /// What `report NAME` calls it.
    pub name: &'static str,
    /// Runs it at a scale under the pinned seed; most have only one.
    pub at: fn(Scale) -> Outcome,
    /// The scale whose artifacts are committed under `results/`.
    pub committed: Scale,
    /// Whether its [`Scale::Reduced`] cell has members in
    /// `BENCH_pr2.json` (ABL13–19).
    pub reduced: bool,
}

impl Experiment {
    const fn new(name: &'static str, reduced: bool, at: fn(Scale) -> Outcome) -> Experiment {
        Experiment {
            name,
            at,
            committed: Scale::Full,
            reduced,
        }
    }
}

/// Every experiment, in `REPORT.md` order.
pub static REGISTRY: [Experiment; 25] = [
    Experiment::new("fig1_layout", false, |_| paper::fig1_layout()),
    Experiment::new("fig2_bullet", false, |_| paper::fig2_bullet()),
    Experiment::new("fig3_nfs", false, |_| paper::fig3_nfs()),
    Experiment::new("comparison", false, |_| paper::comparison()),
    Experiment::new("ablation_cache", false, |_| sweeps::cache()),
    Experiment::new("ablation_contiguity", false, |_| sweeps::contiguity()),
    Experiment::new("ablation_pfactor", false, |_| sweeps::pfactor()),
    Experiment::new("ablation_fragmentation", false, |_| sweeps::fragmentation()),
    Experiment::new("ablation_logserver", false, |_| sweeps::logserver()),
    Experiment::new("ablation_cache_size", false, |_| sweeps::cache_size()),
    Experiment::new("ablation_netload", false, |_| sweeps::netload()),
    Experiment::new("ablation_mirror", false, |_| sweeps::mirror()),
    Experiment::new("ablation_eviction", false, |_| sweeps::eviction()),
    Experiment::new("ablation_concurrency", false, |_| sweeps::concurrency()),
    Experiment::new("ablation_pipeline", false, |_| sweeps::pipeline()),
    Experiment::new("ablation_trace", false, |_| tracebench::ablation()),
    Experiment::new("ablation_faults", true, faults::ablation),
    Experiment::new("ablation_scheduler", true, |_| schedbench::ablation()),
    Experiment::new("ablation_groupcommit", true, groupcommit::ablation),
    Experiment::new("ablation_evsim", true, evsim::ablation),
    Experiment::new("ablation_monitor", true, monitor::ablation),
    Experiment::new("ablation_shard", true, shardbench::ablation),
    Experiment::new("ablation_tiering", true, tierbench::ablation),
    Experiment {
        committed: Scale::Soak,
        ..Experiment::new("ablation_tiering", false, tierbench::ablation)
    },
    Experiment::new("mixed_workload", false, |_| paper::mixed_workload()),
];

/// What [`judge`] concluded: the console text, the files to write, and
/// why the run failed (if it did).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    /// The table and the criteria, for stdout.
    pub console: String,
    /// One line per failure — a diverged replay, each red criterion.
    /// Empty means the run passed.
    pub failures: Vec<String>,
    /// `(file name under results/, contents)`, table artifact first.
    pub files: Vec<(&'static str, String)>,
}

/// Runs `experiment` twice: the first outcome, and whether the second
/// run rendered the first run's table byte for byte (the schedule, the
/// retries and the simulated times are pure functions of the seed).
fn replay(mut experiment: impl FnMut() -> Outcome) -> (Outcome, bool) {
    let first = experiment();
    let deterministic = experiment().table == first.table;
    (first, deterministic)
}

/// Runs `ablation` twice and judges it: the replay must not diverge and
/// every criterion of the first run must be green.  Pure — [`report`]
/// does the I/O.
pub fn judge(ablation: impl FnMut() -> Outcome) -> Verdict {
    let (first, deterministic) = replay(ablation);
    verdict(first, deterministic)
}

fn verdict(first: Outcome, deterministic: bool) -> Verdict {
    let id = first.title.split(' ').next().unwrap_or_default();
    let reds = first.criteria.iter().filter(|c| !c.pass).count();
    let greens = first.criteria.len() - reds;

    let mut console = format!("{} — run twice\n\n{}\n", first.title, first.table);
    console += &format!(
        "replay determinism: {}\n",
        if deterministic {
            "table byte-identical"
        } else {
            "DIVERGED"
        }
    );
    for c in &first.criteria {
        let mark = if c.pass { "ok " } else { "RED" };
        console += &format!("  {mark} {} — {}\n", c.name, c.detail);
    }
    console += &format!("criteria: {greens} of {} green\n", first.criteria.len());
    let mut failures = Vec::new();
    if !deterministic {
        failures.push(format!("{id} FAILED: replay diverged from the first run"));
    }
    for c in first.criteria.iter().filter(|c| !c.pass) {
        failures.push(format!("{id} FAILED: {} ({})", c.name, c.detail));
    }

    let trailer = match first.trailer {
        Trailer::GreenCells => format!(
            "replay_deterministic={deterministic} green_cells={greens}/{}\n",
            first.criteria.len()
        ),
        Trailer::RedCriteria => {
            format!("replay_deterministic={deterministic} red_criteria={reds}\n")
        }
        Trailer::RedCriteriaOnly => format!("red_criteria={reds}\n"),
    };
    let mut files = vec![(
        first.artifact,
        format!("{}\n{}{trailer}", first.title, first.table),
    )];
    files.extend(first.extras);
    Verdict {
        console,
        failures,
        files,
    }
}

/// Writes `(file name, contents)` pairs under `results/`.
///
/// # Errors
///
/// Any I/O error creating the directory or writing a file.
pub fn write_results<C: AsRef<[u8]>>(files: &[(&str, C)]) -> std::io::Result<()> {
    std::fs::create_dir_all("results")?;
    for (name, contents) in files {
        std::fs::write(format!("results/{name}"), contents)?;
    }
    Ok(())
}

/// Writes `doc`, the baseline `report --json` rendered from `outcomes`,
/// to `path` — unless one of their criteria is red, so a regenerated
/// baseline can never bake in a violation.
///
/// # Errors
///
/// The first red criterion, named — `path` is then left as it was; or
/// the I/O error.
pub fn write_baseline(path: &str, doc: &str, outcomes: &[Outcome]) -> Result<(), String> {
    for outcome in outcomes {
        if let Some(c) = outcome.criteria.iter().find(|c| !c.pass) {
            return Err(format!(
                "{}: criterion red: {} ({})",
                outcome.title, c.name, c.detail
            ));
        }
    }
    std::fs::write(path, doc).map_err(|e| format!("{path}: {e}"))
}

/// What leads `results/REPORT.md`.
const REPORT_HEAD: &str = "# Regenerated evaluation report

Produced by `cargo run -p bullet-bench --bin report`.  All numbers are
deterministic simulated time on the calibrated 1989 testbed; rerunning
reproduces this file bit-for-bit.

";

/// What ends it: the scorecard's heading.
const REPORT_SCORECARD: &str = "### Every experiment, run twice

| Artifact | First line | Criteria green | Replay |
|---|---|---|---|
";

/// Judges every experiment as [`judge`] does and folds the verdicts into
/// one: all their artifacts and failures, plus `REPORT.md` — what each
/// outcome contributes to it, then one scorecard row per experiment.
pub fn regenerate(experiments: impl IntoIterator<Item = impl FnMut() -> Outcome>) -> Verdict {
    let mut report = REPORT_HEAD.to_string();
    let mut scorecard = REPORT_SCORECARD.to_string();
    let (mut failures, mut files) = (Vec::new(), Vec::new());
    for experiment in experiments {
        let (first, deterministic) = replay(experiment);
        report += &first.report_md;
        scorecard += &format!(
            "| `{}` | {} | {} of {} | {} |\n",
            first.artifact,
            first.title,
            first.criteria.iter().filter(|c| c.pass).count(),
            first.criteria.len(),
            if deterministic {
                "byte-identical"
            } else {
                "DIVERGED"
            }
        );
        let judged = verdict(first, deterministic);
        failures.extend(judged.failures);
        files.extend(judged.files);
    }
    report += &scorecard;
    files.push(("REPORT.md", report.clone()));
    Verdict {
        console: report,
        failures,
        files,
    }
}

/// Judges each experiment as [`judge`] does and folds the verdicts into
/// one: their consoles, failures and artifacts, in order.
fn judge_each(experiments: impl IntoIterator<Item = impl FnMut() -> Outcome>) -> Verdict {
    let mut all = Verdict::default();
    for experiment in experiments {
        let judged = judge(experiment);
        all.console += &judged.console;
        all.failures.extend(judged.failures);
        all.files.extend(judged.files);
    }
    all
}

/// The rows `report [--soak] [NAME...]` runs, in registry order, each
/// with the scale to run it at.  No name selects every row at its
/// committed scale; a name selects every row of that name at its
/// committed scale (`ablation_tiering` is two rows, the full cell and the
/// soak); `--soak` runs each named experiment once, at [`Scale::Soak`].
///
/// # Errors
///
/// An unknown name or flag, or `--soak` without a name: the usage line
/// and every name in the registry.
pub fn select(args: &[String]) -> Result<Vec<(&'static Experiment, Scale)>, String> {
    let soak = args.iter().any(|a| a == "--soak");
    let names: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|&a| a != "--soak")
        .collect();
    let unknown = |name: &&str| REGISTRY.iter().all(|e| e.name != *name);
    if (soak && names.is_empty()) || names.iter().any(unknown) {
        let mut known: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
        known.dedup();
        return Err(format!(
            "usage: report [--soak] [NAME...] | report --json [PATH]\nnames: {}",
            known.join(" ")
        ));
    }
    let mut rows: Vec<(&'static Experiment, Scale)> = Vec::new();
    for e in REGISTRY
        .iter()
        .filter(|e| names.is_empty() || names.contains(&e.name))
    {
        if !soak {
            rows.push((e, e.committed));
        } else if rows.iter().all(|(row, _)| row.name != e.name) {
            rows.push((e, Scale::Soak));
        }
    }
    Ok(rows)
}

/// The whole life of `report` without `--json`: run the rows [`select`]
/// picks, judge them, print, write their artifacts — and `REPORT.md`
/// through [`regenerate`] when no name was given — and exit non-zero on
/// red, or 2 on a bad argument.
pub fn report(args: &[String]) -> ExitCode {
    let rows = match select(args) {
        Ok(rows) => rows,
        Err(usage) => {
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    };
    let experiments = rows.into_iter().map(|(e, scale)| move || (e.at)(scale));
    if args.is_empty() {
        conclude(|| regenerate(experiments))
    } else {
        conclude(|| judge_each(experiments))
    }
}

fn conclude(verdict: impl FnOnce() -> Verdict) -> ExitCode {
    let wall = std::time::Instant::now();
    let verdict = verdict();
    print!("{}", verdict.console);
    println!(
        "wall clock: {:.1} s for both runs",
        wall.elapsed().as_secs_f64()
    );
    write_results(&verdict.files).expect("results/ is writable");
    for (name, _) in &verdict.files {
        println!("wrote results/{name}");
    }
    for failure in &verdict.failures {
        eprintln!("{failure}");
    }
    if verdict.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
