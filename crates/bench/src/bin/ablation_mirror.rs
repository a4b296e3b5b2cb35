//! Ablation ABL8 — the price of replication: one, two and three disks:
//! [`bullet_bench::sweeps::mirror`] through [`bullet_bench::ablation::run`].

fn main() -> std::process::ExitCode {
    bullet_bench::ablation::run(bullet_bench::sweeps::mirror)
}
