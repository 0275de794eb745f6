//! The determinism ledger's `hetctl` cells, by stdout and `--trace`
//! JSONL, against `tests/golden/digests.tsv` (the simulator cells are
//! `tests/cells`, checked family by family in `tests/determinism.rs`);
//! the check that the file lists exactly the table; the tests that prove
//! a change of one cell is seen and named; and the rewrite after an
//! intended change, `cargo test -p het-bench --test ledger -- --ignored
//! regenerate`, whose every moved line is explained in CHANGES.md.

#[path = "../../../tests/cells/mod.rs"]
mod cells;

use cells::{assert_matches_committed, committed, digest, run_all, run_row, Job, Ledger};

const HEADER: &str = "# cell\treport or stdout FNV-1a-64\ttrace FNV-1a-64\n\
                      # regenerate: cargo test -p het-bench --test ledger -- --ignored regenerate\n";

/// The `hetctl` cells, one command line each, well under a second each.
/// A trailing `--trace` is given a scratch path, and the trace written
/// there is the cell's second digest.
const HETCTL: &str = "\
list
train --iters 64 --workers 2 --trace
train --iters 64 --workers 2 --lookahead 2 --trace
train --iters 64 --workers 2 --lookahead 2 --fault-crashes 1 --fault-outages 1 --trace
train --workload reddit --iters 32 --workers 2 --lookahead 4 --trace
serve --requests 2000 --trace
serve --requests 2000 --store tiered:64 --trace
serve --requests 2000 --warmup 500 --trace
serve --requests 2000 --supervised 1 --fault-crashes 1 --trace
serve --requests 2000 --supervised 1 --fault-crashes 1 --fault-outages 1 --trace
serve --requests 2000 --supervised 1 --fault-crashes 2 --fault-horizon 0.15 --trace
serve --requests 2000 --warmup 500 --store tiered:64 --supervised 1 --fault-crashes 2 --fault-horizon 0.15 --trace
colocate --trace
colocate --fault-crashes 1 --trace
colocate --fault-crashes 3 --fault-horizon 0.05 --warmup 100 --trace
chaos --seed 7 --trace
chaos --seeds 0..4";

/// The digest columns of `hetctl` on `line`.
fn hetctl(line: &str) -> String {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join(format!("ledger-{}.jsonl", digest(line)));
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_hetctl"));
    cmd.args(line.split_whitespace());
    let traced = line.ends_with("--trace");
    if traced {
        cmd.arg(&path);
    }
    let out = cmd.output().expect("spawn hetctl");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "hetctl {line}: {stderr}");
    let trace = traced.then(|| {
        let jsonl = std::fs::read_to_string(&path).expect("hetctl wrote its trace");
        std::fs::remove_file(&path).expect("remove the trace");
        digest(&jsonl)
    });
    let stdout = digest(&String::from_utf8_lossy(&out.stdout));
    format!("{stdout}\t{}", trace.as_deref().unwrap_or("-"))
}

/// The cells of the [`HETCTL`] lines.
fn hetctl_cells() -> Ledger {
    let lines: Vec<&str> = HETCTL.lines().collect();
    run_all(&lines, |l| vec![(format!("hetctl {l}"), hetctl(l))])
}

fn rows_named(names: &[&str]) -> Vec<(String, Job)> {
    let rows: Vec<_> = cells::rows()
        .into_iter()
        .filter(|r| names.contains(&&*r.0))
        .collect();
    assert_eq!(rows.len(), names.len(), "unknown row among {names:?}");
    rows
}

fn run_rows(rows: &[(String, Job)], nudged: &[&str]) -> Ledger {
    run_all(rows, |row| run_row(row, nudged, None))
}

/// The cells of `produced` whose line is not the committed one.
fn moved(produced: &Ledger) -> Vec<&str> {
    let committed = committed();
    let moved = produced
        .iter()
        .filter(|&(c, l)| committed.get(c) != Some(l));
    moved.map(|(cell, _)| cell.as_str()).collect()
}

#[test]
fn every_hetctl_cell_matches_the_committed_ledger() {
    assert_matches_committed("hetctl ", &hetctl_cells());
}

/// The committed file names exactly the table's cells, and every row is
/// in a family that `tests/determinism.rs` checks.
#[test]
fn the_ledger_lists_exactly_the_table() {
    let rows = cells::rows();
    for (name, _) in &rows {
        let checked = cells::FAMILIES.iter().any(|f| name.starts_with(f));
        assert!(checked, "{name}: in no family");
    }
    let phases = |name: &String| ["clean", "faulted"].map(|p| format!("{name}/{p}"));
    let mut table: Vec<String> = rows.iter().flat_map(|(name, _)| phases(name)).collect();
    table.extend(HETCTL.lines().map(|l| format!("hetctl {l}")));
    table.sort();
    let listed: Vec<String> = committed().into_keys().collect();
    assert_eq!(listed, table);
}

#[test]
fn a_one_ulp_nudge_moves_exactly_its_cell() {
    let target = "sync/ssp/seed3/clean";
    let produced = run_rows(&rows_named(&["sync/ssp/seed3"]), &[target]);
    assert_eq!(moved(&produced), [target]);
}

#[test]
fn two_nudged_cells_are_both_named() {
    let targets = ["colocate/seed3/clean", "policy/adaptive:32/seed7/faulted"];
    let rows = rows_named(&["colocate/seed3", "policy/adaptive:32/seed7"]);
    assert_eq!(moved(&run_rows(&rows, &targets)), targets);
}

/// One row twice on one thread gives the committed cells both times:
/// state a run left in a thread-local (the trace collector, a scratch
/// pool) would move the second.
#[test]
fn a_row_run_twice_in_one_thread_is_byte_equal() {
    let row = &rows_named(&["colocate/seed7"])[0];
    let first = run_row(row, &[], None);
    assert_eq!(first, run_row(row, &[], None));
    assert!(moved(&first.into_iter().collect()).is_empty());
}

/// Rewrites `tests/golden/digests.tsv`; run after an intended change.
#[test]
#[ignore = "rewrites the committed digest ledger"]
fn regenerate_ledger() {
    let mut ledger = hetctl_cells();
    ledger.extend(run_rows(&cells::rows(), &[]));
    let lines: String = ledger.iter().map(|(c, d)| format!("{c}\t{d}\n")).collect();
    std::fs::write(cells::LEDGER, format!("{HEADER}{lines}")).expect("write the ledger");
}
