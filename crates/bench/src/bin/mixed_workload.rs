//! MIX — the cited workload mix through the full RPC stack, Bullet vs NFS:
//! [`bullet_bench::paper::mixed_workload`] through [`bullet_bench::ablation::run`].

fn main() -> std::process::ExitCode {
    bullet_bench::ablation::run(bullet_bench::paper::mixed_workload)
}
