//! The repo's benchmark. See README.md.
//!
//! Two ways in:
//!
//! * **One pass of one workload** (what `BENCHMARK.json`'s command
//!   runs): `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//!   The last line of standard output is one JSON object with exactly
//!   the keys `correct`, `attempted`, `failed`, `metrics`.
//! * **The suite** (no `--trace`): every workload, both passes, each in
//!   a fresh child process; prints every metric by name with its unit
//!   and writes `out/results.json`. `--twice` is the noise self-test,
//!   `--quick` the smoke.

mod driver;
mod e2e;
mod jobs;
mod probes;
mod spans;
mod spec;
mod stats;
mod steps;
mod suite;

use driver::{RunResult, Sizes};
use het::json::Json;
use jobs::{Workload, THREADS};
use std::path::PathBuf;
use std::process::ExitCode;

/// The default `--seed`.
const DEFAULT_SEED: u64 = 11;
/// The default `--seconds`: `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = 24.0;

pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: Option<bool>,
    pub out: PathBuf,
    pub quick: bool,
    pub twice: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        out: PathBuf::from("benchmark/out"),
        quick: false,
        twice: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(Workload::parse(name).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?}; one of {}", known.join(", "))
                })?);
            }
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--quick" => args.quick = true,
            "--twice" => args.twice = true,
            // The correctness gate is always on; the flag only lets a
            // script say so.
            "--check" => {}
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.trace.is_some() && args.workload.is_none() {
        return Err("--trace needs --workload".to_string());
    }
    Ok(args)
}

/// Cores the host offers this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The result line of the contract.
fn result_line(result: &RunResult, unit_of: impl Fn(&str) -> &'static str) -> String {
    let metrics = result
        .metrics
        .iter()
        .map(|(name, value)| {
            let unit = unit_of(name);
            (
                name.clone(),
                Json::Obj(vec![
                    ("value".to_string(), Json::Num(*value)),
                    ("unit".to_string(), Json::Str(unit.to_string())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".to_string(), Json::Bool(result.correct())),
        ("attempted".to_string(), Json::UInt(result.attempted.max(1))),
        ("failed".to_string(), Json::UInt(result.failed)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ])
    .encode()
}

/// One pass of one workload, in this process.
fn run_pass(args: &Args, workload: Workload, traced: bool) -> ExitCode {
    if workload.threaded() && THREADS > nproc() {
        eprintln!(
            "{}: needs {THREADS} threads, the host offers {}; refusing to oversubscribe",
            workload.name(),
            nproc()
        );
        return ExitCode::from(2);
    }
    let sizes = if args.quick {
        Sizes::QUICK
    } else {
        Sizes::FULL
    };
    let result = if traced {
        driver::run_layers(workload, args.seed, &sizes, &args.out)
    } else {
        driver::run_end_to_end(workload, args.seed, args.seconds, &sizes)
    };
    for why in &result.failures {
        eprintln!("{}: FAILED: {why}", workload.name());
    }
    let expected: Vec<String> = if traced {
        spec::per_layer().into_iter().map(|m| m.name).collect()
    } else {
        spec::END_TO_END
            .iter()
            .map(|m| m.name.to_string())
            .collect()
    };
    let complete = expected.iter().all(|name| {
        result
            .metrics
            .iter()
            .any(|(n, v)| n == name && v.is_finite())
    });
    // `--quick` checks; it reports no complete set of numbers.
    if !complete && !args.quick {
        eprintln!("{}: not every metric could be measured", workload.name());
        return ExitCode::FAILURE;
    }
    let units = spec::units();
    let unit_of = |name: &str| units.iter().find(|(n, _)| n == name).map_or("?", |u| u.1);
    for (name, value) in &result.metrics {
        println!("{:<40} {:>16.4} {}", name, value, unit_of(name));
    }
    println!(
        "detail: {}",
        Json::Obj(vec![
            ("host".to_string(), suite::host_fingerprint()),
            ("quartiles".to_string(), Json::Obj(result.detail.clone())),
        ])
        .encode()
    );
    println!("{}", result_line(&result, unit_of));
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("het-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match (args.workload, args.trace) {
        (Some(workload), Some(traced)) => run_pass(&args, workload, traced),
        _ => suite::run(&args),
    }
}
