//! Ablation ABL5 — naive `BULLET.APPEND` logging against the log server:
//! [`bullet_bench::sweeps::logserver`] through [`bullet_bench::ablation::run`].

fn main() -> std::process::ExitCode {
    bullet_bench::ablation::run(bullet_bench::sweeps::logserver)
}
