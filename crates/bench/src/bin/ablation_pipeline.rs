//! Ablation ABL11 — sequential vs pipelined streaming transfers:
//! [`bullet_bench::sweeps::pipeline`] through [`bullet_bench::ablation::run`].

fn main() -> std::process::ExitCode {
    bullet_bench::ablation::run(bullet_bench::sweeps::pipeline)
}
