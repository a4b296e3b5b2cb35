//! FIG3 — Fig. 3 of the paper, the SUN NFS baseline's delay and bandwidth tables:
//! [`bullet_bench::paper::fig3_nfs`] through [`bullet_bench::ablation::run`].

fn main() -> std::process::ExitCode {
    bullet_bench::ablation::run(bullet_bench::paper::fig3_nfs)
}
