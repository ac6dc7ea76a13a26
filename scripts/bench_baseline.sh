#!/usr/bin/env bash
# Benchmark baseline: Criterion microbench groups plus the `perf` harness
# that measures the tab1/recovery sweeps and the scheduler ablation under
# wall-clock timing.
#
# The latest run is written to BENCH_simulator.json at the repo root (the
# file other tooling reads), and every run is *appended* to
# BENCH_HISTORY.jsonl as one timestamped JSON line, so successive
# baselines accumulate instead of overwriting each other.
#
# Usage: scripts/bench_baseline.sh [--quick] [--skip-criterion]
#
#   --quick           CI-smoke scale (~seconds instead of minutes)
#   --skip-criterion  only run the perf harness / JSON baseline
#
# See PERFORMANCE.md for how to read the output.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=""
CRITERION=1
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK="--quick" ;;
    --skip-criterion) CRITERION=0 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

cargo build --release -p experiments
cargo build --release -p loadgen -p transport
EXPERIMENTS=./target/release/experiments

if [[ $CRITERION -eq 1 ]]; then
  # Criterion groups over the same hot paths (the benches pin quick
  # scale themselves; results land in target/criterion/).
  cargo bench -p bench --bench simulator
  cargo bench -p bench --bench onion
fi

$EXPERIMENTS perf $QUICK --out BENCH_simulator.json
echo "baseline written to BENCH_simulator.json"

# Chaos soak throughput: thousands of faulted protocol rounds through
# the live stack; rounds_per_sec is the tracked number. The harness
# asserts its own recovery invariants and exits nonzero if any break.
$EXPERIMENTS chaos_soak $QUICK --out BENCH_chaos_soak.json
echo "chaos soak written to BENCH_chaos_soak.json"

# Large-N scaling curve: per-N success rate, latency, events/sec and peak
# RSS on the procedural latency backend and sampled membership layer
# (quick: {1k,10k,50k}; full sweeps to 1M nodes). Each grid point runs in
# its own child process so its VmHWM is attributable to that N.
$EXPERIMENTS scale $QUICK --out BENCH_scale.json
echo "scale sweep written to BENCH_scale.json"

# Live onion-forward throughput: the load generator spins a real
# one-relay chain (three OS processes over localhost TCP) and drives a
# closed loop through it. ops_per_sec, relay_forwards_per_sec, and the
# CO-safe latency percentiles are the tracked numbers; see
# PERFORMANCE.md §8.
if [[ -n $QUICK ]]; then
  ./target/release/p2p-anon-loadgen \
    --auto-chain 1 --mode closed --in-flight 8 \
    --warmup-secs 1 --measure-secs 3 --drain-secs 1 \
    --out BENCH_loadgen.json
else
  ./target/release/p2p-anon-loadgen \
    --auto-chain 1 --mode closed --in-flight 32 \
    --out BENCH_loadgen.json
fi
echo "loadgen run written to BENCH_loadgen.json"

# Adversary trilemma sweep throughput: simulated protocol grid plus the
# post-hoc (cover x f) assessment grid over the observation tap;
# points_per_sec is the tracked number. The command asserts its own
# shape properties (entropy/identification monotone in f, Eq. 4 match,
# cover-vs-linkability) and exits nonzero on NOT-REPRODUCED.
$EXPERIMENTS trilemma $QUICK --out BENCH_trilemma.json
echo "trilemma sweep written to BENCH_trilemma.json"

# Append this run to the history, one JSON line per result file, each
# tagged with the UTC timestamp, the measured tree and the mode,
# preserving every previous baseline. `git describe --dirty` marks a run
# taken before its commit exists, instead of passing the parent's hash
# off as the measured tree.
STAMP="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
COMMIT="$(git describe --always --dirty 2>/dev/null || echo unknown)"
MODE="full"
[[ -n $QUICK ]] && MODE="quick"

# append_history <mode-suffix> <file>
append_history() {
  {
    printf '{"timestamp":"%s","commit":"%s","mode":"%s%s","results":' \
      "$STAMP" "$COMMIT" "$MODE" "$1"
    tr -d '\n' < "$2"
    printf '}\n'
  } >> BENCH_HISTORY.jsonl
}
append_history "" BENCH_simulator.json
append_history -chaos-soak BENCH_chaos_soak.json
append_history -scale BENCH_scale.json
append_history -loadgen BENCH_loadgen.json
append_history -trilemma BENCH_trilemma.json
echo "history appended to BENCH_HISTORY.jsonl ($STAMP, $COMMIT, $MODE)"
