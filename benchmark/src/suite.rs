//! The suite: every workload, both passes, one fresh child process per
//! pass (so `peak_rss_mb` is per workload), one table, one results file.

use crate::jobs::Workload;
use crate::spec;
use crate::stats::{allowed_worsening, within_bound, worse_by, Better};
use crate::Args;
use het::json::Json;
use std::process::{Command, ExitCode};

/// `nproc`, `rustc -V`, build profile and commit: carried by every
/// result, because none of the host-time numbers mean anything without
/// them.
pub fn host_fingerprint() -> Json {
    let run = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    };
    Json::Obj(vec![
        ("nproc".to_string(), Json::UInt(crate::nproc() as u64)),
        ("rustc".to_string(), Json::Str(run("rustc", &["-V"]))),
        (
            "profile".to_string(),
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_string(),
            ),
        ),
        (
            "commit".to_string(),
            Json::Str(run("git", &["rev-parse", "--short", "HEAD"])),
        ),
    ])
}

pub fn get<'a>(obj: &'a Json, key: &str) -> Option<&'a Json> {
    match obj {
        Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

pub fn number(j: &Json) -> Option<f64> {
    match j {
        Json::Num(x) => Some(*x),
        Json::UInt(n) => Some(*n as f64),
        Json::Int(n) => Some(*n as f64),
        _ => None,
    }
}

/// What one child pass printed.
struct Pass {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
    quartiles: Json,
}

/// Runs one pass in a child and parses its last two lines.
fn child_pass(args: &Args, workload: Workload, traced: bool) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out);
    if args.quick {
        cmd.arg("--quick");
    }
    // The child's stderr (failure reasons) goes straight to ours.
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines
        .next()
        .and_then(|l| het::json::from_str(l).ok())
        .ok_or_else(|| format!("{}: the child printed no result", workload.name()))?;
    let quartiles = lines
        .next()
        .and_then(|l| l.strip_prefix("detail: "))
        .and_then(|l| het::json::from_str(l).ok())
        .and_then(|d| get(&d, "quartiles").cloned())
        .unwrap_or(Json::Null);
    let metrics = match get(&result, "metrics") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), number(get(v, "value")?)?)))
            .collect(),
        _ => Vec::new(),
    };
    let count = |key: &str| get(&result, key).and_then(number).unwrap_or(0.0) as u64;
    Ok(Pass {
        correct: output.status.success() && get(&result, "correct") == Some(&Json::Bool(true)),
        attempted: count("attempted"),
        failed: count("failed"),
        metrics,
        quartiles,
    })
}

/// What one set of the suite found.
struct Set {
    /// Per workload: operations, both passes' metrics, quartiles.
    rows: Json,
    /// Per workload, in order: the end-to-end metrics.
    end_to_end: Vec<Vec<(String, f64)>>,
    correct: bool,
}

/// Both passes of every selected workload; prints the table.
fn run_set(args: &Args, workloads: &[Workload]) -> Result<Set, String> {
    let units = spec::units();
    let unit_of = |name: &str| units.iter().find(|(n, _)| n == name).map_or("?", |u| u.1);
    let mut all_correct = true;
    let mut rows = Vec::new();
    let mut e2e_by_workload = Vec::new();
    for &workload in workloads {
        println!("\n== {} ==", workload.name());
        let e2e = child_pass(args, workload, false)?;
        let layers = child_pass(args, workload, true)?;
        all_correct &= e2e.correct && layers.correct;
        println!(
            "ops_attempted {}  ops_failed {}  checks {}",
            e2e.attempted + layers.attempted,
            e2e.failed + layers.failed,
            if e2e.correct && layers.correct {
                "passed"
            } else {
                "FAILED"
            }
        );
        for (name, value) in &e2e.metrics {
            let spread = match get(&e2e.quartiles, name) {
                Some(q) => {
                    let f = |k| get(q, k).and_then(number).unwrap_or(f64::NAN);
                    format!("  [q1 {:.4}  q3 {:.4}  n={}]", f("q1"), f("q3"), f("n"))
                }
                None => String::new(),
            };
            println!("{name:<40} {value:>16.4} {:<8}{spread}", unit_of(name));
        }
        if !args.quick {
            for (name, value) in &layers.metrics {
                println!("{name:<40} {value:>16.4} {}", unit_of(name));
            }
        }
        let as_obj = |metrics: &[(String, f64)]| {
            Json::Obj(
                metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            )
        };
        rows.push((
            workload.name().to_string(),
            Json::Obj(vec![
                (
                    "ops_attempted".to_string(),
                    Json::UInt(e2e.attempted + layers.attempted),
                ),
                (
                    "ops_failed".to_string(),
                    Json::UInt(e2e.failed + layers.failed),
                ),
                ("end_to_end".to_string(), as_obj(&e2e.metrics)),
                ("quartiles".to_string(), e2e.quartiles.clone()),
                ("per_layer".to_string(), as_obj(&layers.metrics)),
            ]),
        ));
        e2e_by_workload.push(e2e.metrics);
    }
    Ok(Set {
        rows: Json::Obj(rows),
        end_to_end: e2e_by_workload,
        correct: all_correct,
    })
}

/// For each layer metric, which end-to-end metric on which workload it
/// should move: written down before measuring, kept beside the numbers.
fn expectations() -> Json {
    Json::Obj(
        spec::per_layer()
            .into_iter()
            .map(|m| {
                let better = match m.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                (
                    m.name,
                    Json::Obj(vec![
                        ("unit".to_string(), Json::Str(m.unit.to_string())),
                        ("better".to_string(), Json::Str(better.to_string())),
                        ("should_move".to_string(), Json::Str(m.moves.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The noise self-test: two sets of the same code must agree within the
/// benchmark's own bounds on every end-to-end metric × workload.
fn compare_sets(
    workloads: &[Workload],
    first: &[Vec<(String, f64)>],
    second: &[Vec<(String, f64)>],
) -> bool {
    println!("\n== noise self-test: second set against the first ==");
    println!(
        "{:<18} {:<16} {:>14} {:>14} {:>9} {:>9}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    let mut ok = true;
    for ((workload, a), b) in workloads.iter().zip(first).zip(second) {
        for m in &spec::END_TO_END {
            let value =
                |set: &[(String, f64)]| set.iter().find(|(n, _)| n == m.name).map(|(_, v)| *v);
            let (Some(x), Some(y)) = (value(a), value(b)) else {
                continue;
            };
            let worse = worse_by(m.better, x, y);
            let allowed = allowed_worsening(x, m.bound, m.abs_floor);
            let within = within_bound(m.better, x, y, m.bound, m.abs_floor);
            let verdict = if within { "" } else { "  EXCEEDS" };
            ok &= within;
            println!(
                "{:<18} {:<16} {x:>14.4} {y:>14.4} {:>8.2}% {:>8.2}%{verdict}",
                workload.name(),
                m.name,
                100.0 * worse / x.abs(),
                100.0 * allowed / x.abs(),
            );
        }
    }
    ok
}

pub fn run(args: &Args) -> ExitCode {
    match run_suite(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("het-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `Ok(true)` when every check (and, with `--twice`, every bound) held.
fn run_suite(args: &Args) -> Result<bool, String> {
    if crate::nproc() < 2 {
        eprintln!("warning: fewer than 2 cores; the threaded workloads will refuse to run");
    }
    let workloads: Vec<Workload> = match args.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let host = host_fingerprint();
    println!("host {}  seed {}", host.encode(), args.seed);
    let first = run_set(args, &workloads)?;
    let mut ok = first.correct;
    if args.twice {
        let second = run_set(args, &workloads)?;
        ok &= second.correct;
        ok &= compare_sets(&workloads, &first.end_to_end, &second.end_to_end);
    }
    // `--quick` is a smoke: it checks, it does not record numbers.
    if !args.quick {
        let results = Json::Obj(vec![
            ("host".to_string(), host),
            ("seed".to_string(), Json::UInt(args.seed)),
            ("run_seconds".to_string(), Json::Num(args.seconds)),
            ("workloads".to_string(), first.rows),
            ("expectations".to_string(), expectations()),
            ("correct".to_string(), Json::Bool(ok)),
            // This benchmark defines the measurements; it claims no gain.
            ("claim".to_string(), Json::Null),
        ]);
        let path = args.out.join("results.json");
        std::fs::create_dir_all(&args.out)
            .and_then(|()| std::fs::write(&path, results.encode_pretty() + "\n"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("\nwrote {}", path.display());
    }
    println!("\n{}", if ok { "all checks passed" } else { "FAILED" });
    Ok(ok)
}
