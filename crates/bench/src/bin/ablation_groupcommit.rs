//! Ablation ABL15 — the log-structured create path: group commit,
//! batched extent allocation, and idle-time log migration.
//!
//! Runs the create storms of [`bullet_bench::groupcommit`] — 32
//! concurrent 16 KB creates and a Zipf-sized 64-file storm, each per-file
//! and batched through the log, on an aged mirrored pair — twice; the
//! cells and their criteria are [`bullet_bench::groupcommit::ablation`],
//! the replay-twice discipline and exit status
//! [`bullet_bench::ablation::run`].  Artifacts:
//! `results/ablation_groupcommit.txt` (the outcome table) and
//! `results/ablation_groupcommit_trace.jsonl` (one JSON object per storm
//! create).
//!
//! ```text
//! cargo run -p bullet-bench --bin ablation_groupcommit            # PR seed
//! cargo run -p bullet-bench --bin ablation_groupcommit -- --seed 7
//! ```

use std::process::ExitCode;

use bullet_bench::ablation::{self, Args, Scale};
use bullet_bench::groupcommit;

fn main() -> ExitCode {
    let mut args = Args::from_env("ablation_groupcommit [--seed N]");
    let seed = args.value("--seed");
    args.finish();
    ablation::run(|| groupcommit::ablation(Scale::Full, seed))
}
