//! Ablation ABL6 — cache sizing under the cited workload mix:
//! [`bullet_bench::sweeps::cache_size`] through [`bullet_bench::ablation::run`].

fn main() -> std::process::ExitCode {
    bullet_bench::ablation::run(bullet_bench::sweeps::cache_size)
}
