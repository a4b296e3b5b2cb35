//! Ablation ABL1 — the RAM cache: warm reads against cold reads:
//! [`bullet_bench::sweeps::cache`] through [`bullet_bench::ablation::run`].

fn main() -> std::process::ExitCode {
    bullet_bench::ablation::run(bullet_bench::sweeps::cache)
}
