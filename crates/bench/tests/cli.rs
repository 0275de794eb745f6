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

/// The stdout of a successful run of `line`.
fn stdout(line: &str) -> String {
    let out = hetctl(line);
    assert!(
        out.status.success(),
        "{line}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
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
        // Only a trainer checkpoints PS shards.
        (
            "serve --fault-checkpoint-every 5",
            "unknown flag --fault-checkpoint-every",
        ),
        ("exp", "usage: hetctl exp <name>"),
    ]);
}

/// Each value flag is read by its type's `FromStr`, whose message —
/// naming the value and the spellings it takes — reaches the user.
#[test]
fn mistyped_values_are_rejected_with_the_types_own_message() {
    assert_rejected(&[
        (
            "train --workload wdll",
            "unknown workload 'wdll' (try: wdl dfm dcn reddit amazon mag)",
        ),
        (
            "train --system het_cache",
            "unknown system 'het_cache' (try: tf-ps",
        ),
        ("compare --baseline hybrid", "unknown system 'hybrid'"),
        ("train --policy lruu", "unknown policy 'lruu' (try: lru lfu"),
        ("serve --policy lightlfu:0", "a positive integer"),
        ("train --store tiered:0", "'0' is not a positive row budget"),
        (
            "serve --store disk",
            "unknown store 'disk' (try: mem tiered:HOT_ROWS)",
        ),
        (
            "train --backend thread:2",
            "unknown backend 'thread:2' (try: sim",
        ),
        (
            "train --network 10GbE",
            "unknown network '10GbE' (try: 1gbe 10gbe)",
        ),
        ("serve --network 40gbe", "unknown network '40gbe'"),
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

/// A flag that only means something beside another is rejected without
/// it, naming the flag it needs, instead of being read by nothing.
#[test]
fn dependent_flags_without_their_gate_are_rejected() {
    assert_rejected(&[
        (
            "serve --drift-step 5",
            "--drift-step needs a positive --drift-period-ms",
        ),
        (
            "serve --drift-period-ms 0 --drift-step 5",
            "--drift-step needs a positive --drift-period-ms",
        ),
        (
            "serve --flash-dur-ms 5",
            "--flash-dur-ms needs --flash-at-ms",
        ),
        ("serve --flash-x 8", "--flash-x needs --flash-at-ms"),
        ("serve --flash-hot 32", "--flash-hot needs --flash-at-ms"),
        // The heartbeat period is a constant, not a flag.
        ("serve --heartbeat-us 250", "unknown flag --heartbeat-us"),
    ]);
}

/// A zero where a count sizes a structure, or a config the serving
/// fleet rejects, is a flag error, not a panic inside the run.
#[test]
fn zero_counts_are_rejected_before_the_run() {
    assert_rejected(&[
        ("train --workers 0", "--workers must be positive"),
        ("train --dim 0", "--dim must be positive"),
        ("serve --rate 0", "arrival_rate must be positive"),
        ("serve --cache 0", "--cache must be positive"),
        ("serve --keys 0", "--keys must be positive"),
        ("serve --max-batch 0", "--max-batch must be positive"),
        ("colocate --replicas 0", "--replicas must be positive"),
        ("colocate --rate 0", "arrival_rate must be positive"),
        ("chaos --workers 0", "--workers must be positive"),
        ("chaos --rate 0", "arrival_rate must be positive"),
        ("chaos --flash-x 0.5", "flash_factor must be >= 1"),
    ]);
}

/// Without `--fault-horizon`, faults are placed inside the run they are
/// injected into, so one counted crash happens.
#[test]
fn counted_faults_land_inside_the_run() {
    for line in [
        "train --iters 64 --workers 2 --fault-crashes 1",
        "serve --fault-crashes 1",
        "colocate --fault-crashes 1",
    ] {
        let out = stdout(line);
        let crashes: u64 = out
            .lines()
            .filter(|l| l.starts_with("worker crashes") || l.starts_with("replica crashes"))
            .filter_map(|l| l.split_whitespace().nth(2)?.parse::<u64>().ok())
            .sum();
        assert!(crashes >= 1, "{line}: no crash happened\n{out}");
    }
}

/// A run replayed from the plan it dumped is the same run: every job
/// checkpoints, and restores, from the plan it actually runs.
#[test]
fn a_dumped_fault_plan_replays_the_run_it_came_from() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (name, line, replay) in [
        ("colocate", "colocate --fault-outages 1", "colocate"),
        (
            "serve",
            "serve --requests 2000 --supervised 1 --fault-crashes 1 --fault-outages 1",
            "serve --requests 2000 --supervised 1",
        ),
    ] {
        let plan = dir.join(format!("replayed-{name}-plan.json"));
        let plan = plan.to_str().expect("a UTF-8 path");
        let dumped = stdout(&format!("{line} --fault-plan-dump {plan}"));
        let replayed = stdout(&format!("{replay} --fault-plan {plan}"));
        assert!(dumped.contains("shard failovers   1"), "{line}\n{dumped}");
        assert_eq!(dumped, replayed, "{line}: the replay differs");
        std::fs::remove_file(plan).unwrap();
    }
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
