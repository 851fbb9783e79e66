#!/usr/bin/env sh
# Offline CI gate: formatting, lints, and the full test suite (which
# includes tests/parallel_determinism.rs — the byte-identical
# sequential-vs-parallel checks for every batch entry point).
set -eu

# perfbench, the repo benchmark, is its own workspace, so `--all` and
# `--workspace` do not reach it; it is formatted and linted on its own,
# so an API change that breaks the benchmark or makes it warn fails
# here. Its builds rewrite perfbench/Cargo.lock (see ROADMAP item 1).
echo "==> cargo fmt --check"
cargo fmt --all -- --check
cargo fmt --manifest-path perfbench/Cargo.toml -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo test"
cargo test --workspace -q

echo "==> parallel determinism harness"
cargo test -q --test parallel_determinism

# Observability smoke tier: the golden §8 session traced with exact
# journal counters, every journal line revalidated as JSON, and the
# campaign journal fingerprint pinned across 1/2/8 worker threads.
echo "==> observability smoke (golden counters + JSON-lines journal)"
cargo test -q --test observability

# Bounded mutation smoke tier: fixed seed 2026, at most 50 mutants, run
# twice to pin fingerprint stability plus the >= 90% localization bar.
# The full 200+ mutant conformance campaign runs under `cargo test`
# above; this tier is the cheap re-check for quick iteration loops.
echo "==> mutation localization smoke (fixed seed, <=50 mutants)"
cargo test -q --test mutation_conformance bounded_smoke_campaign_is_deterministic_and_accurate

# Allocation-budget tier: the benchmark campaign's 883 mutants on one
# thread under a counting global allocator, in release. The count
# repeats exactly from run to run, so the test fails as soon as a mean
# mutant allocates more than its budget; the tier prints the count.
echo "==> allocation budget (campaign mutants, release)"
ALLOC_OUT="$(cargo test -q --release --test allocation_budget -- --nocapture 2>&1)" || {
    echo "$ALLOC_OUT"
    exit 1
}
echo "$ALLOC_OUT" | grep "allocation budget:"

# Knowledge-store tier: the crash/corruption fault-injection suite and
# the cross-session §8 replay, run inside a throwaway TMPDIR sandbox
# (gadt-store's TempDir honours TMPDIR). The sandbox must come back
# empty — a leaked store directory fails the tier.
echo "==> knowledge-store tier (crash recovery + cross-session replay)"
STORE_TMP="$(mktemp -d)"
TMPDIR="$STORE_TMP" cargo test -q --test store_recovery
TMPDIR="$STORE_TMP" cargo test -q --test paper_reproduction \
    e13_cross_session_store_replay_asks_zero_user_questions
leftover="$(find "$STORE_TMP" -mindepth 1 | head -5 || true)"
if [ -n "$leftover" ]; then
    echo "ci: store tests leaked files into their sandbox:"
    echo "$leftover"
    exit 1
fi
rmdir "$STORE_TMP"

# Examples tier: the batch_trace walkthrough traces 32 inputs through
# the facade's parallel batch path. Its per-input lines (output and
# trace size of every eighth input) must be identical at 1 and 8 worker
# threads; the thread-count header and the timing lines may differ.
echo "==> examples (batch_trace at 1 and 8 threads)"
cargo build --release -q --example batch_trace
EX_ONE="$(./target/release/examples/batch_trace 1 | grep '^  input')"
EX_EIGHT="$(./target/release/examples/batch_trace 8 | grep '^  input')"
if [ -z "$EX_ONE" ] || [ "$EX_ONE" != "$EX_EIGHT" ]; then
    echo "ci: batch_trace per-input lines differ between 1 and 8 threads:"
    echo "$EX_ONE"
    echo "---"
    echo "$EX_EIGHT"
    exit 1
fi
echo "$EX_ONE"

# Paper-reproduction tier: the release `repro` binary regenerates every
# paper figure and claim (E1–E14), including the pruned trees and slices
# of E5, E6, E10 and E14. Its stdout is deterministic and must equal the
# committed repro_output.txt byte for byte.
echo "==> paper reproduction (repro output vs repro_output.txt)"
cargo build --release -q -p gadt-bench --bin repro
REPRO_OUT="$(mktemp)"
./target/release/repro >"$REPRO_OUT"
if ! cmp -s "$REPRO_OUT" repro_output.txt; then
    echo "ci: repro output differs from repro_output.txt:"
    diff repro_output.txt "$REPRO_OUT" | head -40 || true
    rm -f "$REPRO_OUT"
    exit 1
fi
rm -f "$REPRO_OUT"
echo "ci: repro output matches repro_output.txt"

# Debugging-service tier: the release gadt-serve binary on a unix
# socket inside a throwaway sandbox, driven end-to-end (compile ->
# trace -> debug -> answer -> slice) by its own selftest client, which
# replays the golden §8 session against the server and then asks it to
# shut down. First the selftest sends a frame nested 100 000 deep and a
# source nested 12 000 deep, each of which once aborted the server; the
# tier fails unless each got an error frame and a ping then got a pong.
# Before shutting down, the selftest replays the session
# unpooled on the now-warm server, whose create reuses the compiled
# program and whose trace reuses the traced run; the tier fails unless
# the server's compile and trace counts stayed put across that session
# and its journal was compared with the first one's and matched. The
# clean-shutdown report line only prints after the final store
# compaction, and a report showing zero compactions fails the tier.
echo "==> debugging service tier (gadt-serve e2e over unix socket)"
cargo build --release -q -p gadt-serve --bin gadt-serve
SERVE_TMP="$(mktemp -d)"
SERVE_SOCK="$SERVE_TMP/gadt.sock"
SERVE_LOG="$SERVE_TMP/server.log"
./target/release/gadt-serve --listen "unix:$SERVE_SOCK" \
    --store "$SERVE_TMP/store" --shards 3 --threads 4 >"$SERVE_LOG" &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [ -S "$SERVE_SOCK" ] && break
    sleep 0.1
done
SELFTEST_LOG="$SERVE_TMP/selftest.log"
./target/release/gadt-serve --selftest "unix:$SERVE_SOCK" --shutdown >"$SELFTEST_LOG" || {
    cat "$SELFTEST_LOG"
    exit 1
}
cat "$SELFTEST_LOG"
wait "$SERVE_PID"
grep -q "shared the compiled program and traced run" "$SELFTEST_LOG" || {
    echo "ci: the warm selftest session did not share its program and run"
    exit 1
}
grep -q "journal matches" "$SELFTEST_LOG" || {
    echo "ci: the warm selftest session's journal was not compared"
    exit 1
}
grep -q "too-deep frame and source refused" "$SELFTEST_LOG" || {
    echo "ci: the selftest did not see the server refuse too-deep inputs"
    exit 1
}
grep -q "clean shutdown" "$SERVE_LOG" || {
    echo "ci: server did not shut down cleanly:"
    cat "$SERVE_LOG"
    exit 1
}
if grep -q " 0 compactions" "$SERVE_LOG"; then
    echo "ci: server shut down without ever compacting its store:"
    cat "$SERVE_LOG"
    exit 1
fi
grep "clean shutdown" "$SERVE_LOG"
rm -rf "$SERVE_TMP"

# Benchmark smoke tier: reduced-size runs of every perfbench workload,
# each of which must pass its output checks and print every metric
# BENCHMARK.json declares. A serve run fails when any session localizes
# a different unit than its golden session, so a server that hands a
# session the wrong compiled program fails here.
echo "==> benchmark smoke (reduced-size perfbench runs)"
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

# Differential fuzz smoke tier: a bounded sweep through the seeded
# corpus generator — original vs transformed output agreement plus
# slice-replay soundness for every program-level variable; the binary
# exits non-zero and prints a minimized reproducer on any divergence.
# Seeds 0..2000 overlap the tests' pinned windows; seeds 5000..6000 are
# a window no test pins, so the parser, the phase-skipping transform and
# the bitset postdominators also meet a thousand programs fresh.
# NOTE: the workspace build above does NOT produce the corpus bins
# (`cargo build` on the root package skips them) — build explicitly.
echo "==> differential fuzz smoke (seeds 0..2000 and 5000..6000)"
cargo build --release -q -p gadt-corpus --bins
./target/release/fuzz 0 2000 --threads 0
./target/release/fuzz 5000 1000 --threads 0

# Bench-baseline tier: tree-walker vs bytecode VM on the batch-trace,
# T-GEN batch, campaign, crash-screen and hashed-trace workloads,
# single worker with interleaved tree/vm sampling. The binary exits
# non-zero when the VM is slower than the tree-walker on batch tracing,
# when the campaign speedup falls below 1.3x (the monitor-free crash
# screen plus the compiled engine must keep paying for themselves; the
# VM's screen also stops CHURN's stalled-counter mutants at their first
# repeated state, where the tree-walker runs the whole budget), or
# when any workload drops below 0.8x its committed figure in
# BENCH_vm.json — the slack absorbs machine noise, not structural
# regressions. The fresh measurement goes to a scratch file; the
# committed baseline is read-only here.
echo "==> bench baseline (tree-walker vs bytecode VM)"
cargo build --release -q -p gadt-bench --bin vm_baseline
BENCH_TMP="$(mktemp)"
./target/release/vm_baseline "$BENCH_TMP" BENCH_vm.json
rm -f "$BENCH_TMP"

# Strategy tier: the traversal-strategy question-count lab on its CI
# legs — the 500-mutant smoke subsample of the strategy corpus plus
# the seeded-store replay sessions. The binary exits non-zero when
# optimal D&Q stops beating top-down on mean questions per bug, when
# the knowledge-weighted strategy stops beating optimal D&Q on live
# replay questions, or when any smoke/replay figure regresses against
# the committed BENCH_strategies.json (campaigns are deterministic, so
# the comparison is essentially exact). The full ≥2000-mutant corpus
# leg is regenerated only when refreshing the committed baseline:
# `./target/release/strategy_lab BENCH_strategies.json`.
echo "==> strategy lab (questions per bug by traversal strategy)"
cargo build --release -q -p gadt-bench --bin strategy_lab
STRAT_TMP="$(mktemp)"
./target/release/strategy_lab "$STRAT_TMP" BENCH_strategies.json --smoke
rm -f "$STRAT_TMP"

echo "ci: all green"
