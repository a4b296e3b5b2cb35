//! Ablation ABL4 — external fragmentation under churn, and compaction:
//! [`bullet_bench::sweeps::fragmentation`] through [`bullet_bench::ablation::run`].

fn main() -> std::process::ExitCode {
    bullet_bench::ablation::run(bullet_bench::sweeps::fragmentation)
}
