//! CMP — the §4 comparison claims (C1–C4) on freshly measured Figs. 2–3:
//! [`bullet_bench::paper::comparison`] through [`bullet_bench::ablation::run`].

fn main() -> std::process::ExitCode {
    bullet_bench::ablation::run(bullet_bench::paper::comparison)
}
