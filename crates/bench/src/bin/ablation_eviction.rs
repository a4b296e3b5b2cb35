//! Ablation ABL9 — the cache eviction policy under the cited mix:
//! [`bullet_bench::sweeps::eviction`] through [`bullet_bench::ablation::run`].

fn main() -> std::process::ExitCode {
    bullet_bench::ablation::run(bullet_bench::sweeps::eviction)
}
