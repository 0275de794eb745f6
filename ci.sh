#!/bin/sh
# Repository CI gate: formatting, lints, tier-1 build + tests.
# Everything runs offline against vendored/in-tree dependencies.
set -eu

cd "$(dirname "$0")"

# Milliseconds since the epoch (GNU date), for the [timing] lines.
now_ms() { echo $(($(date +%s%N) / 1000000)); }

echo "==> cargo fmt --check"
cargo fmt --check

# The extra lint wall guards the threaded execution backend: no
# non-Send/Sync payloads smuggled into Arcs, and no Mutex<usize|bool>
# where an atomic would do.
echo "==> cargo clippy --workspace --all-targets (with concurrency lint wall)"
cargo clippy --workspace --all-targets -- -D warnings \
    -D clippy::arc_with_non_send_sync -D clippy::mutex_atomic

# Docs name types across crates; a rename or a narrowed visibility
# leaves a dangling intra-doc link that only rustdoc notices.
echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release (tier-1)"
cargo build --release

echo "==> cargo test -q (tier-1, per-package timing)"
suite_start=$(now_ms)
for pkg in het-json het-rng het-trace het-simnet het-tensor het-data \
           het-store het-ps het-cache het-runtime het-models het-core \
           het-serve het-oracle het-bench het; do
    pkg_start=$(now_ms)
    cargo test -q -p "$pkg"
    echo "    [timing] $pkg: $(($(now_ms) - pkg_start))ms"
done
echo "    [timing] test suite total: $(($(now_ms) - suite_start))ms"

# The loop above ran these with debug assertions on (every scratch loan
# NaN-filled); the release profile is the one hetctl and the benchmark
# run, so the allocation counts are gated there by name.
echo "==> steady-state allocation gates (release: dense step allocates nothing, WDL step only its result, PS batches nothing)"
cargo test -q --release -p het-tensor --test steady_state \
    mlp_forward_backward_allocates_nothing_after_the_first_step
cargo test -q --release -p het-models --test steady_state \
    forward_backward_allocates_only_the_gradients_it_returns
cargo test -q --release -p het-ps --test steady_state -- \
    batched_pulls_pushes_and_clock_queries_allocate_nothing_after_the_first \
    single_key_calls_allocate_only_the_row_they_return

# The loop above checked the digest ledger (tests/golden/digests.tsv:
# its simulator cells in het's determinism test, its hetctl cells in
# het-bench's ledger test) on the dev profile; hetctl users and the
# benchmark run release, so the same digests must come out of it: they
# may not depend on opt-level. Nor may they depend on how many host
# threads a simulated BSP round had: the training cells run again with a
# round pinned to 1, 2 and 4 host threads, whatever this box's CPUs.
echo "==> digest ledger (release build against the committed digests)"
step_start=$(now_ms)
cargo test -q --release -p het --test determinism
cargo test -q --release -p het-bench --test ledger
echo "    [timing] release ledger: $(($(now_ms) - step_start))ms"
step_start=$(now_ms)
cargo test -q --release -p het --test host_threads
echo "    [timing] ledger at 1/2/4 host threads: $(($(now_ms) - step_start))ms"

# The benchmark is a workspace of its own compiled against the public
# API; build it, run its own tests, and smoke every workload once.
echo "==> benchmark (own tests + one quick pass over all five workloads)"
step_start=$(now_ms)
cargo test -q --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --quick
echo "    [timing] benchmark: $(($(now_ms) - step_start))ms"

# Every paper figure, ablation and sweep is a row of het_bench::EXPERIMENTS
# behind one runner; Fig. 2 (a few seconds) is the smoke that the figure
# path of that runner works. The sweep gates below go through it too.
echo "==> experiment runner smoke (hetctl exp fig2)"
step_start=$(now_ms)
cargo run -q --release -p het-bench --bin hetctl -- exp fig2
echo "    [timing] fig2 smoke: $(($(now_ms) - step_start))ms"

echo "==> colocated train+serve smoke (one runtime, one PS fabric)"
step_start=$(now_ms)
cargo run -q --release -p het-bench --bin hetctl -- colocate --iters 120 --requests 200
echo "    [timing] colocate smoke: $(($(now_ms) - step_start))ms"

echo "==> PS concurrency stress (seeded schedule perturbation, high test parallelism)"
step_start=$(now_ms)
RUST_TEST_THREADS=8 cargo test -q --release -p het-ps --test stress
echo "    [timing] ps stress: $(($(now_ms) - step_start))ms"

# A live split raced by writers once lost updates (a key resolved to the
# parent, moved, then re-created there); run it enough times to see a
# window of that size again.
echo "==> live split stress (30 runs, release, 8 test threads)"
step_start=$(now_ms)
run=0
while [ "$run" -lt 30 ]; do
    RUST_TEST_THREADS=8 cargo test -q --release -p het-ps --test stress \
        live_shard_split_preserves_every_update
    run=$((run + 1))
done
echo "    [timing] split stress x30: $(($(now_ms) - step_start))ms"

echo "==> threaded train smoke (Fig. 2 CTR recipe on threads:4, oracle-replayed)"
step_start=$(now_ms)
cargo run -q --release -p het-bench --bin hetctl -- train \
    --backend threads:4 --workload wdl --iters 240 --dim 32
echo "    [timing] threaded wdl smoke: $(($(now_ms) - step_start))ms"

echo "==> threaded sparse-bound train smoke (GraphSAGE BSP on threads:2, oracle-replayed)"
step_start=$(now_ms)
cargo run -q --release -p het-bench --bin hetctl -- train \
    --backend threads:2 --workload reddit --iters 240
echo "    [timing] threaded reddit smoke: $(($(now_ms) - step_start))ms"

echo "==> threaded colocate smoke (live trainer + serving fleet on real threads)"
step_start=$(now_ms)
cargo run -q --release -p het-bench --bin hetctl -- colocate \
    --backend threads:2 --iters 120 --requests 200
echo "    [timing] threaded colocate smoke: $(($(now_ms) - step_start))ms"

# The scale-sweep gate is hardware-honest: with two cores or more, two
# worker threads must not lose to the single-threaded simulator running
# the same two-worker job (ratio 1.0) — on the dense-bound CTR recipe
# and on the sparse-bound GraphSAGE one, where only the server exchange
# of a step is serialised; on the 1-core CI boxes time-sliced BSP
# threads can only add coordination overhead, so the gate degrades to
# "parallelism must not collapse" (0.5 keeps headroom against scheduler
# noise while still catching a serialisation bug).
CORES=$(nproc)
if [ "$CORES" -ge 2 ]; then SCALE_GATE=1.0; else SCALE_GATE=0.5; fi
echo "==> scale sweep ($CORES cores -> threads:2 >= ${SCALE_GATE}x its sim twin, both recipes)"
step_start=$(now_ms)
cargo run -q --release -p het-bench --bin hetctl -- exp scale-sweep \
    --threads 1,2,4 --iters 240 --gate "$SCALE_GATE"
echo "    [timing] scale sweep: $(($(now_ms) - step_start))ms"

echo "==> chaos smoke (compound failure, SLO/RTO gate, single seed)"
step_start=$(now_ms)
cargo run -q --release -p het-bench --bin hetctl -- chaos --seed 7
echo "    [timing] chaos smoke: $(($(now_ms) - step_start))ms"

echo "==> chaos recovery campaign (every seed must ride out the storm)"
step_start=$(now_ms)
cargo run -q --release -p het-bench --bin hetctl -- chaos --seeds 0..120
echo "    [timing] chaos campaign: $(($(now_ms) - step_start))ms"

# A sabotaged mini-campaign must catch a violation, write a repro file,
# and exit 1; replaying that file must reproduce it. This runs the repro
# file's spellings end to end. It goes before the campaign below because
# both write target/experiments/oracle_fuzz.json, and the clean
# campaign's record is the one to keep.
echo "==> oracle repro path (sabotaged mini-campaign fails, its repro replays the violation)"
step_start=$(now_ms)
rm -rf target/oracle-ci
status=0
cargo run -q --release -p het-bench --bin hetctl -- oracle --master-seed 7 --seeds 0..40 \
    --iters 40 --sabotage-staleness 16 --stop-after 1 --out target/oracle-ci || status=$?
if [ "$status" -ne 1 ]; then
    echo "sabotaged campaign exited $status, expected 1"
    exit 1
fi
repro=$(ls target/oracle-ci/repro-7-*.json)
status=0
replay=$(cargo run -q --release -p het-bench --bin hetctl -- oracle --repro "$repro" 2>&1) \
    || status=$?
echo "$replay"
if [ "$status" -ne 1 ] || ! echo "$replay" | grep -q "violation reproduced"; then
    echo "replaying $repro exited $status without reproducing the violation"
    exit 1
fi
echo "    [timing] oracle repro path: $(($(now_ms) - step_start))ms"

# A run replayed from the fault plan it dumped must be the same run:
# only the trainer checkpoints and restores PS shards, from the plan it
# actually runs; a supervised fleet alone only observes the outage.
echo "==> fault-plan replay (a dumped plan replays to byte-identical stdout)"
step_start=$(now_ms)
rm -rf target/plan-replay-ci
mkdir -p target/plan-replay-ci
replay_check() {
    out=target/plan-replay-ci/$1
    # $2 and $3 are command lines: split into words on purpose.
    # shellcheck disable=SC2086
    cargo run -q --release -p het-bench --bin hetctl -- $2 --fault-plan-dump "$out.json" \
        > "$out.dumped"
    # shellcheck disable=SC2086
    cargo run -q --release -p het-bench --bin hetctl -- $3 --fault-plan "$out.json" \
        > "$out.replayed"
    if ! diff "$out.dumped" "$out.replayed"; then
        echo "replaying $out.json changed the stdout of: hetctl $2"
        exit 1
    fi
}
replay_check serve "serve --supervised 1 --fault-crashes 1 --fault-outages 1" "serve --supervised 1"
replay_check colocate "colocate --fault-outages 1" "colocate"
echo "    [timing] fault-plan replay: $(($(now_ms) - step_start))ms"

echo "==> consistency oracle (120-seed fuzz campaign over the full policy zoo)"
# The campaign also exercises the prefetch cell: ~1/3 of sampled
# scenarios run with nonzero lookahead and are re-checked against the
# prefetch ledger and staleness-window invariants. Policies are drawn
# from all seven fixed kinds plus three adaptive windows, so coherence,
# gradient conservation, and the staging-region pin exemption are
# re-proven per policy — including across mid-run adaptive switches.
# ~35% of scenarios additionally run every PS shard on the tiered
# memory/disk store with a tiny hot budget (8/32/128 rows), so the
# same invariants are re-proven across demotions, cold-log spills, and
# compactions; the shrinker tries dropping back to the Mem store first.
step_start=$(now_ms)
cargo run -q --release -p het-bench --bin hetctl -- oracle --seeds 0..120 --iters 40
echo "    [timing] oracle campaign: $(($(now_ms) - step_start))ms"

echo "==> prefetch depth sweep (>=30% cut at depth 4, monotone non-increasing)"
step_start=$(now_ms)
cargo run -q --release -p het-bench --bin hetctl -- exp prefetch-sweep \
    --iters 480 --depths 0,1,2,4,8 --gate 0.30
echo "    [timing] prefetch sweep: $(($(now_ms) - step_start))ms"

echo "==> store sweep smoke (10^7 keys, bounded residency, hit-rate floor, Mem zero-disk)"
step_start=$(now_ms)
cargo run -q --release -p het-bench --bin hetctl -- exp store-sweep \
    --keys 10000000 --ops 300000 --hot 65536 --gate 0.5
echo "    [timing] store sweep: $(($(now_ms) - step_start))ms"

echo "==> policy shootout (adaptive within 5 hit-rate points of best fixed, all scenarios)"
step_start=$(now_ms)
cargo run -q --release -p het-bench --bin hetctl -- exp policy-shootout \
    --iters 240 --requests 2400 --gate 0.05
echo "    [timing] policy shootout: $(($(now_ms) - step_start))ms"

echo "CI green."
