//! The one ablation harness behind ABL13–19.
//!
//! Each of the seven ablations is one library function in its rig module
//! (`faults::ablation`, `schedbench::ablation`, …) that runs its cell
//! matrix once and returns an [`Outcome`]: the rendered table, the
//! criteria it judged (every threshold is stated there, once, with its
//! reason), the members it contributes to `BENCH_pr2.json`, and any
//! extra artifacts.  Two drivers consume that:
//!
//! * the `ablation_*` binaries parse their cell selector with [`Args`]
//!   and hand a closure to [`run`], which owns the replay-twice
//!   discipline, printing, the artifact + trailer, and the exit code;
//! * `report --json` loops over [`REDUCED`], writes the declared members
//!   and (with `--check`) requires every criterion green.
//!
//! Adding an ablation is one such function, one line in [`REDUCED`], and
//! one thin `bin` (the recipe is in EXPERIMENTS.md).

use std::process::ExitCode;
use std::str::FromStr;

use crate::check::Json;
use crate::{evsim, faults, groupcommit, monitor, schedbench, shardbench, tierbench};

/// How much of an ablation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The small cell `report --json` embeds and gates on every push.
    Reduced,
    /// The binary's default matrix (the committed `results/` artifact).
    Full,
    /// The nightly widening (`--wide` / `--soak`); ablations without one
    /// run their full matrix.
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
    /// File name of the table artifact under `results/`.
    pub artifact: &'static str,
    /// Spelling of the artifact's last line.
    pub trailer: Trailer,
    /// Further artifacts: `(file name under results/, contents)`.
    pub extras: Vec<(&'static str, String)>,
}

/// The seven ablations at [`Scale::Reduced`] under their pinned seeds,
/// in the order their sections appear in `BENCH_pr2.json`.
pub const REDUCED: [fn() -> Outcome; 7] = [
    || schedbench::ablation(None),
    || groupcommit::ablation(Scale::Reduced, None),
    || evsim::ablation(Scale::Reduced, None, None),
    || monitor::ablation(Scale::Reduced, None),
    || shardbench::ablation(Scale::Reduced, None),
    || tierbench::ablation(Scale::Reduced, None),
    || faults::ablation(Scale::Reduced, None, None),
];

/// What [`judge`] concluded: the console text, the files to write, and
/// why the run failed (if it did).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// The table and the criteria, for stdout.
    pub console: String,
    /// One line per failure — a diverged replay, each red criterion.
    /// Empty means the run passed.
    pub failures: Vec<String>,
    /// `(file name under results/, contents)`, table artifact first.
    pub files: Vec<(&'static str, String)>,
}

/// Runs `ablation` twice and judges it: the second run must render the
/// first run's table byte for byte (the schedule, the retries and the
/// simulated times are pure functions of the seed), and every criterion
/// of the first run must be green.  Pure — [`run`] does the I/O.
pub fn judge(mut ablation: impl FnMut() -> Outcome) -> Verdict {
    let first = ablation();
    let deterministic = ablation().table == first.table;
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

/// The whole life of an `ablation_*` binary after argument parsing:
/// [`judge`], print, write the artifacts, exit non-zero on red.
pub fn run(ablation: impl FnMut() -> Outcome) -> ExitCode {
    let wall = std::time::Instant::now();
    let verdict = judge(ablation);
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

/// The `ablation_*` command lines: `--flag VALUE` pairs and bare
/// `--switch`es, each taken at most once; anything left over (or
/// unparsable) prints the usage line and exits 2.
pub struct Args {
    usage: &'static str,
    rest: Vec<String>,
}

impl Args {
    /// The process's arguments, with the usage line to print on misuse.
    pub fn from_env(usage: &'static str) -> Args {
        Args {
            usage,
            rest: std::env::args().skip(1).collect(),
        }
    }

    /// Prints the usage line and exits 2.
    pub fn usage(&self) -> ! {
        eprintln!("usage: {}", self.usage);
        std::process::exit(2);
    }

    /// Takes `--flag VALUE` if present.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> Option<T> {
        let at = self.rest.iter().position(|a| a == flag)?;
        if at + 1 >= self.rest.len() {
            self.usage();
        }
        let value = self.rest.remove(at + 1);
        self.rest.remove(at);
        Some(value.parse().unwrap_or_else(|_| self.usage()))
    }

    /// Takes a bare `--switch` if present.
    pub fn switch(&mut self, flag: &str) -> bool {
        let at = self.rest.iter().position(|a| a == flag);
        at.map(|at| self.rest.remove(at)).is_some()
    }

    /// Takes the nightly-widening switch (`--wide`, `--soak`):
    /// [`Scale::Soak`] if present, the binary's default matrix if not.
    pub fn soak(&mut self, flag: &str) -> Scale {
        if self.switch(flag) {
            Scale::Soak
        } else {
            Scale::Full
        }
    }

    /// Rejects anything no `value`/`switch` call consumed.
    pub fn finish(self) {
        if !self.rest.is_empty() {
            self.usage();
        }
    }
}
