//! FIG1 — Fig. 1 of the paper, the Bullet disk layout, dumped from a live server:
//! [`bullet_bench::paper::fig1_layout`] through [`bullet_bench::ablation::run`].

fn main() -> std::process::ExitCode {
    bullet_bench::ablation::run(bullet_bench::paper::fig1_layout)
}
