//! Ablation ABL14 — seek-aware disk scheduling: FIFO vs SCAN vs SPTF.
//!
//! Drives the closed-loop 8-client mixed workload of
//! [`bullet_bench::schedbench`] through the deterministic virtual-time
//! arm simulation under each scheduling policy, then sweeps the
//! adjacent-extent coalescing knee on concurrent sequential creates —
//! twice; the cell and its criteria are
//! [`bullet_bench::schedbench::ablation`], the replay-twice discipline
//! and exit status [`bullet_bench::ablation::run`].  Artifacts:
//! `results/ablation_scheduler.txt` (tables) and
//! `results/ablation_scheduler_queue.jsonl` (one JSON object per
//! physical transfer).
//!
//! ```text
//! cargo run -p bullet-bench --bin ablation_scheduler            # PR seed
//! cargo run -p bullet-bench --bin ablation_scheduler -- --seed 7
//! ```

use std::process::ExitCode;

use bullet_bench::ablation::{self, Args};
use bullet_bench::schedbench;

fn main() -> ExitCode {
    let mut args = Args::from_env("ablation_scheduler [--seed N]");
    let seed = args.value("--seed");
    args.finish();
    ablation::run(|| schedbench::ablation(seed))
}
