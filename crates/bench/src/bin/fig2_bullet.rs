//! FIG2 — Fig. 2 of the paper, the Bullet server's delay and bandwidth tables:
//! [`bullet_bench::paper::fig2_bullet`] through [`bullet_bench::ablation::run`].

fn main() -> std::process::ExitCode {
    bullet_bench::ablation::run(bullet_bench::paper::fig2_bullet)
}
