//! Ablation ABL3 — the P-FACTOR durability dial of `BULLET.CREATE`:
//! [`bullet_bench::sweeps::pfactor`] through [`bullet_bench::ablation::run`].

fn main() -> std::process::ExitCode {
    bullet_bench::ablation::run(bullet_bench::sweeps::pfactor)
}
