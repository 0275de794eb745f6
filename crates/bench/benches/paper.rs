//! `cargo bench -p het-bench` regenerates every record of
//! `het_bench::EXPERIMENTS` at its default flags; `cargo bench -p
//! het-bench -- fig7 table1` only those named. One experiment alone,
//! with flags: `hetctl exp <name> [--flag value …]`.

use std::process::ExitCode;

fn main() -> ExitCode {
    // Cargo appends `--bench`; whatever is not a flag names an experiment.
    let mut names: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with("--"))
        .collect();
    if names.is_empty() {
        names.extend(het_bench::EXPERIMENTS.iter().map(|e| e.name.to_string()));
    }
    for name in names {
        if let Err(msg) = het_bench::run_experiment(&name, &[]) {
            eprintln!("paper: {name}: {msg}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
