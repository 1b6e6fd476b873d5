#!/usr/bin/env bash
# Re-runs the benchmark suites that have committed BENCH_*.json baselines
# at the repo root, then diffs the fresh numbers against those baselines
# with `bench_compare`. Exit code 1 means at least one label regressed
# beyond its suite's threshold.
#
# CI runs this as a BLOCKING gate. Two things make that tenable on noisy
# shared runners:
#
#   * the comparison metric is the trimmed minimum (10th-percentile order
#     statistic over ≥ 20 samples) — one preempted or one lucky sample
#     cannot move it;
#   * thresholds are per-suite and generous (≈2x): they catch "the hot
#     path got structurally slower", not micro-jitter.
#
# Tune per suite below, override one suite via BENCH_THRESHOLD_<SUITE>
# (e.g. BENCH_THRESHOLD_SERVING=3.0), or pass a single global threshold:
#
#   scripts/bench_compare.sh [threshold]
set -euo pipefail

cd "$(dirname "$0")/.."
global="${1:-}"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

# Per-suite regression thresholds. Serving/routing include cache-hit
# legs timed in microseconds, where relative jitter is biggest — they
# get the most headroom. Overload gates tail latency past saturation,
# where queueing noise dominates — widest threshold of all.
threshold_for() {
    case "$1" in
        serving | routing) echo "2.5" ;;
        overload) echo "3.0" ;;
        *) echo "2.0" ;;
    esac
}

# Comparison metric per suite: throughput suites gate on the trimmed
# minimum (can the code still go this fast?); the overload suite gates
# on p99 (does the tail still hold under saturation?).
metric_for() {
    case "$1" in
        overload) echo "p99" ;;
        *) echo "tmin" ;;
    esac
}

status=0
for suite in diffusion serving tnam routing overload persist; do
    baseline="BENCH_${suite}.json"
    if [[ ! -f "$baseline" ]]; then
        echo "skipping $suite: no committed $baseline"
        continue
    fi
    suite_upper="$(echo "$suite" | tr '[:lower:]' '[:upper:]')"
    override_var="BENCH_THRESHOLD_${suite_upper}"
    threshold="${global:-${!override_var:-$(threshold_for "$suite")}}"
    metric="$(metric_for "$suite")"
    echo "=== bench: $suite ==="
    # The suite-specific env var keeps the committed baseline untouched.
    env_var="BENCH_${suite_upper}_JSON"
    env "$env_var=$out/$suite.json" \
        cargo bench -p laca-bench --bench "$suite" >"$out/$suite.log" 2>&1 || {
        echo "FAILED to run bench $suite (last 20 lines)"
        tail -n 20 "$out/$suite.log"
        exit 1
    }
    echo "=== compare: $suite (threshold ${threshold}x, ${metric}) ==="
    cargo run --release -q -p laca-bench --bin bench_compare -- \
        "$baseline" "$out/$suite.json" --threshold "$threshold" --metric "$metric" || status=1
done

exit "$status"
