//! Ablation ABL12 — span-tracing decomposition of the streaming paths:
//! [`bullet_bench::tracebench::ablation`] through [`bullet_bench::ablation::run`].

fn main() -> std::process::ExitCode {
    bullet_bench::ablation::run(bullet_bench::tracebench::ablation)
}
