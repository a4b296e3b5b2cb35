//! Ablation ABL13 — the deterministic fault-injection campaign.
//!
//! Runs the three fault classes of [`bullet_bench::faults`] — mirrored
//! disk failure mid-workload, crash-drop of unsynced writes with the
//! startup consistency scan, and a lossy-wire soak under the retrying
//! at-most-once client — over a seed matrix, twice; the cells and their
//! criteria are [`bullet_bench::faults::ablation`], the replay-twice
//! discipline and exit status [`bullet_bench::ablation::run`].
//! Artifact: `results/ablation_faults.txt`.
//!
//! ```text
//! cargo run -p bullet-bench --bin ablation_faults            # 3 classes x 5 seeds
//! cargo run -p bullet-bench --bin ablation_faults -- --wide  # nightly: 25 seeds
//! cargo run -p bullet-bench --bin ablation_faults -- --class lossy-wire --seed 7
//! ```

use std::process::ExitCode;

use bullet_bench::ablation::{self, Args};
use bullet_bench::faults::{self, FaultClass};

fn main() -> ExitCode {
    let mut args = Args::from_env(
        "ablation_faults [--wide] [--class mirror-fail|crash-recovery|lossy-wire] [--seed N]",
    );
    let scale = args.soak("--wide");
    let class = args
        .value::<String>("--class")
        .map(|name| FaultClass::parse(&name).unwrap_or_else(|| args.usage()));
    let seed = args.value("--seed");
    args.finish();
    ablation::run(|| faults::ablation(scale, class, seed))
}
