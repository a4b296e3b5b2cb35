//! Ablation ABL16 — cache replacement at event-engine scale:
//! LRU vs FIFO vs SegmentedLRU vs 2Q, 10k clients over 1M files.
//!
//! Runs the [`bullet_bench::evsim`] matrix — every policy under the Zipf
//! workload and under the scan-injection variant (10 % of clients
//! streaming sequential cold files through the cache) — on the
//! virtual-time event engine, with the real `FileCache` in the loop,
//! twice; the cells and their criteria are
//! [`bullet_bench::evsim::ablation`], the replay-twice discipline and
//! exit status [`bullet_bench::ablation::run`].  Artifacts:
//! `results/ablation_evsim.txt` (the table) and
//! `results/ablation_evsim_curve.jsonl` (windowed hit-rate curves).
//!
//! ```text
//! cargo run --release -p bullet-bench --bin ablation_evsim             # PR gate
//! cargo run --release -p bullet-bench --bin ablation_evsim -- --seed 7
//! cargo run --release -p bullet-bench --bin ablation_evsim -- --clients 100000
//! ```

use std::process::ExitCode;

use bullet_bench::ablation::{self, Args, Scale};
use bullet_bench::evsim;

fn main() -> ExitCode {
    let mut args = Args::from_env("ablation_evsim [--seed N] [--clients N]");
    let seed = args.value("--seed");
    let clients = args.value("--clients");
    args.finish();
    ablation::run(|| evsim::ablation(Scale::Full, seed, clients))
}
