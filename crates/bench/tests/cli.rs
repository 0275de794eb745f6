//! `hetctl` from the outside: bad input of every kind is a one-line
//! `hetctl: …` on stderr and exit status 1 — never a panic — and `list`
//! shows the whole experiment table.

use std::process::{Command, Output};

/// Runs `hetctl` on a whitespace-separated command line.
fn hetctl(line: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hetctl"))
        .args(line.split_whitespace())
        .output()
        .expect("spawn hetctl")
}

/// Each `(command line, needle)`: a clean failure — exit status 1, one
/// `hetctl: …` line, no panic — whose message carries the needle.
fn assert_rejected(cases: &[(&str, &str)]) {
    for (line, needle) in cases {
        let out = hetctl(line);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{line}: {stderr}");
        assert!(stderr.starts_with("hetctl: "), "{line}: {stderr}");
        assert!(!stderr.contains("panicked"), "{line}: {stderr}");
        assert!(stderr.contains(needle), "{line}: {stderr}");
    }
}

#[test]
fn list_prints_every_experiment_with_its_flags() {
    let out = hetctl("list");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for exp in het_bench::EXPERIMENTS {
        let flags = exp.flags.iter().flat_map(|g| g.split_whitespace());
        let flags: String = flags.map(|f| format!(" --{f}")).collect();
        let line = format!("exp {}:{flags}", exp.name);
        assert!(stdout.lines().any(|l| l == line), "missing `{line}`");
    }
    // No sweep survives as a subcommand of its own.
    assert!(!stdout.lines().any(|l| l.starts_with("prefetch-sweep:")));
}

#[test]
fn mistyped_names_and_repeated_flags_are_named() {
    assert_rejected(&[
        (
            "train --iters 10 --iters 20",
            "--iters given more than once",
        ),
        ("train --iters", "--iters needs a value"),
        ("train iters 10", "expected --flag, got 'iters'"),
        ("list --x 1", "this command takes no flags"),
        ("trian", "did you mean train?"),
        ("exp fig22", "did you mean fig2?"),
        ("exp scale-sweep --thread 1", "did you mean --threads?"),
        ("prefetch-sweep", "unknown command"),
        ("exp", "usage: hetctl exp <name>"),
    ]);
}

#[test]
fn thread_counts_that_conflict_with_the_backend_are_rejected() {
    assert_rejected(&[
        (
            "train --workers 4 --backend threads:2",
            "--workers 4 conflicts with --backend threads:2",
        ),
        (
            "serve --replicas 3 --backend threads:2",
            "--replicas 3 conflicts with --backend threads:2",
        ),
        (
            "colocate --workers 4 --backend threads:2",
            "--workers 4 conflicts with --backend threads:2",
        ),
    ]);
}

/// A sim run's stdout is a pure function of its flags: no host time
/// leaks into it. The same job on threads prints its host lines.
#[test]
fn sim_stdout_is_deterministic_and_threads_print_host_time() {
    let stdout = |line: &str| {
        let out = hetctl(line);
        assert!(
            out.status.success(),
            "{line}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };
    let sim = "train --iters 32 --workers 2";
    let first = stdout(sim);
    assert_eq!(first, stdout(sim), "sim stdout differs between runs");
    assert!(!first.contains("wall time"), "{first}");
    let threads = stdout(&format!("{sim} --backend threads:2"));
    for line in ["backend           threads:2", "wall time"] {
        assert!(threads.contains(line), "missing `{line}`: {threads}");
    }
}

#[test]
fn user_supplied_lists_and_counts_are_checked_not_asserted() {
    assert_rejected(&[
        ("exp prefetch-sweep --depths 1,2", "depth-0 baseline"),
        (
            "exp prefetch-sweep --depths 0,x",
            "--depths: cannot parse 'x'",
        ),
        ("exp prefetch-sweep --iters 0", "--iters must be positive"),
        ("exp scale-sweep --threads 2", "threads:1 baseline"),
        (
            "exp scale-sweep --threads 1,0",
            "--threads must be positive",
        ),
        ("exp scale-sweep --iters 0", "--iters must be positive"),
        ("exp store-sweep --keys 0", "--keys must be positive"),
        ("exp store-sweep --dim 0", "--dim must be positive"),
        ("exp store-sweep --hot 64,0", "--hot must be positive"),
        (
            "exp policy-shootout --requests 0",
            "--requests must be positive",
        ),
        ("exp policy-shootout --gate x", "--gate: cannot parse"),
    ]);
}

#[test]
fn an_unwritable_experiments_dir_is_an_error_before_the_run() {
    // A regular file where the target dir should be: nothing can be
    // created beneath it.
    let blocker = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("not-a-dir");
    std::fs::write(&blocker, b"").unwrap();
    for line in ["exp table1", "oracle --seeds 0..1"] {
        let out = Command::new(env!("CARGO_BIN_EXE_hetctl"))
            .args(line.split_whitespace())
            .env("CARGO_TARGET_DIR", &blocker)
            .output()
            .expect("spawn hetctl");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{line}: {stderr}");
        assert!(stderr.contains("experiments"), "{line}: {stderr}");
        assert!(!stderr.contains("panicked"), "{line}: {stderr}");
    }
    std::fs::remove_file(&blocker).unwrap();
}
