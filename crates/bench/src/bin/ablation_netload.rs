//! Ablation ABL7 — the "normally loaded Ethernet": a load-factor sweep:
//! [`bullet_bench::sweeps::netload`] through [`bullet_bench::ablation::run`].

fn main() -> std::process::ExitCode {
    bullet_bench::ablation::run(bullet_bench::sweeps::netload)
}
