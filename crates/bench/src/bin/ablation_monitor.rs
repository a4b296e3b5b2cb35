//! Ablation ABL17 — flight recorder, MONITOR telemetry, and the SLO
//! watchdog at event-engine scale.
//!
//! Runs the [`bullet_bench::monitor`] triple — a bare 10k-client evsim
//! cell, the same cell with the flight recorder sampling every second of
//! virtual time, and the same cell again with a mid-run fault burst (a
//! lossy wire plus one failed mirror replica) under an armed watchdog
//! and per-client accounting — twice; the triple and its criteria are
//! [`bullet_bench::monitor::ablation`], the replay-twice discipline and
//! exit status [`bullet_bench::ablation::run`].  Artifacts:
//! `results/ablation_monitor.txt` (the table),
//! `results/flight_recorder.jsonl` (every ring of the burst run), and
//! `results/flight_recorder_trace.json` (the same rings as Chrome counter
//! events — load in Perfetto / `chrome://tracing`).
//!
//! ```text
//! cargo run --release -p bullet-bench --bin ablation_monitor            # PR gate
//! cargo run --release -p bullet-bench --bin ablation_monitor -- --seed 7
//! ```

use std::process::ExitCode;

use bullet_bench::ablation::{self, Args, Scale};
use bullet_bench::monitor;

fn main() -> ExitCode {
    let mut args = Args::from_env("ablation_monitor [--seed N]");
    let seed = args.value("--seed");
    args.finish();
    ablation::run(|| monitor::ablation(Scale::Full, seed))
}
