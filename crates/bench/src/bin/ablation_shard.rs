//! Ablation ABL18 — the sharded-service ablation.
//!
//! Runs the three [`bullet_bench::shardbench`] cell families — aggregate
//! cold-read bandwidth scaling across the shard matrix, live-byte
//! preservation under extent rebalancing, and the kill-one-shard
//! degraded-service workload — twice; the matrix and its criteria are
//! [`bullet_bench::shardbench::ablation`], the replay-twice discipline
//! and exit status [`bullet_bench::ablation::run`].  Artifact:
//! `results/ablation_shard.txt`.
//!
//! ```text
//! cargo run -p bullet-bench --bin ablation_shard              # full matrix
//! cargo run -p bullet-bench --bin ablation_shard -- --shards 4  # reduced CI cell
//! cargo run -p bullet-bench --bin ablation_shard -- --soak    # nightly kill-shard soak
//! ```

use std::process::ExitCode;

use bullet_bench::ablation::{self, Args};
use bullet_bench::shardbench::{self, SCALING_COUNTS};

fn main() -> ExitCode {
    let mut args = Args::from_env("ablation_shard [--shards 1|2|4|8] [--soak]");
    let scale = args.soak("--soak");
    let shards = args.value("--shards");
    if shards.is_some_and(|n| !SCALING_COUNTS.contains(&n)) {
        args.usage();
    }
    args.finish();
    ablation::run(|| shardbench::ablation(scale, shards))
}
