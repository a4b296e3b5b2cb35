//! Ablation ABL2 — contiguity itself: one extent against scattered blocks:
//! [`bullet_bench::sweeps::contiguity`] through [`bullet_bench::ablation::run`].

fn main() -> std::process::ExitCode {
    bullet_bench::ablation::run(bullet_bench::sweeps::contiguity)
}
