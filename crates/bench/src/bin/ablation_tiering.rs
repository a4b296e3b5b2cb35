//! Ablation ABL19 — tiered storage: RAM → mirrored disk → WORM archive.
//!
//! The headline cell ages a 256-file Zipf-sized population until
//! everything outside a 32-file working set goes cold, then lets the
//! ranked maintenance scheduler demote the cold files to the WORM
//! archive.  The measured phase times 600 Zipf-skewed hot-set reads
//! while maintenance ticks — recalls and re-demotions — are *admitted*
//! between the reads, so the p99 shows what tier migrations cost the
//! foreground.  An identically-driven archive-less baseline isolates
//! the tier machinery.  The pair runs twice; the cells and their
//! criteria are [`bullet_bench::tierbench::ablation`], the replay-twice
//! discipline and exit status [`bullet_bench::ablation::run`].
//! Artifact: `results/ablation_tiering.txt`.
//!
//! `--soak` runs the nightly aging soak instead: 24 rounds of create /
//! verify / age churn against a 5 % fast-tier high-water mark.
//! Artifact: `results/ablation_tiering_soak.txt`.
//!
//! ```text
//! cargo run -p bullet-bench --bin ablation_tiering            # PR seed
//! cargo run -p bullet-bench --bin ablation_tiering -- --seed 7
//! cargo run -p bullet-bench --bin ablation_tiering -- --soak
//! ```

use std::process::ExitCode;

use bullet_bench::ablation::{self, Args};
use bullet_bench::tierbench;

fn main() -> ExitCode {
    let mut args = Args::from_env("ablation_tiering [--seed N] [--soak]");
    let scale = args.soak("--soak");
    let seed = args.value("--seed");
    args.finish();
    ablation::run(|| tierbench::ablation(scale, seed))
}
