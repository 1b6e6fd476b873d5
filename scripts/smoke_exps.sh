#!/usr/bin/env bash
# Smoke-runs every experiment binary at tiny --scale/--seeds so that
# table/figure regressions surface in CI long before anyone runs the full
# suite, then runs every example under `examples/` (they take no
# arguments and finish in seconds). Every `crates/bench/src/bin/exp_*.rs`
# must have a `run` line and every `examples/*.rs` a `run_example` line
# below: the script fails at the end if one was skipped, so a new paper
# binary or example cannot go unsmoked.
#
# Dataset choice: `arxiv` (and `com-dblp` for the non-attributed Table IX
# run) because their registry entries are scale-able — at `--scale 0.02`
# they generate in well under a second — while the "small" registry
# entries (cora, pubmed, ...) always generate at full size. Binaries with
# a fixed dataset (exp_fig8_case_study) simply ignore the filter.
#
# Usage: scripts/smoke_exps.sh [path-to-target-dir]
# (expects `cargo build --release --all-targets` to have built into it)
set -euo pipefail

target="${1:-target}/release"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
bin_dir="$(dirname "$0")/../crates/bench/src/bin"
examples_dir="$(dirname "$0")/../examples"
ran=()
ran_examples=()

run() {
    local bin="$1"
    shift
    ran+=("$bin")
    echo "=== smoke: $bin $* ==="
    local t0=$SECONDS
    "$target/$bin" "$@" --out "$out" >"$out/$bin.log" 2>&1 || {
        echo "FAILED: $bin (last 40 lines)"
        tail -n 40 "$out/$bin.log"
        exit 1
    }
    echo "    ok ($((SECONDS - t0))s, $(wc -l <"$out/$bin.log") log lines)"
}

run_example() {
    local example="$1"
    ran_examples+=("$example")
    echo "=== smoke: example $example ==="
    local t0=$SECONDS
    local log="$out/example-$example.log"
    "$target/examples/$example" >"$log" 2>&1 || {
        echo "FAILED: example $example (last 40 lines)"
        tail -n 40 "$log"
        exit 1
    }
    echo "    ok ($((SECONDS - t0))s, $(wc -l <"$log") log lines)"
}

common=(--seeds 2 --scale 0.02 --datasets arxiv)

run exp_fig5_convergence "${common[@]}"
run exp_fig6_recall "${common[@]}"
run exp_fig7_runtime "${common[@]}"
run exp_fig8_case_study --seeds 1
run exp_fig9_params "${common[@]}"
run exp_fig10_scalability "${common[@]}"
run exp_table2_degrees "${common[@]}"
run exp_table5_precision "${common[@]}"
run exp_table6_ablation "${common[@]}"
run exp_table7_cond_wcss "${common[@]}"
run exp_table9_nonattr --seeds 2 --scale 0.02 --datasets com-dblp
run exp_table10_bdd_variants "${common[@]}"
run exp_table11_similarity "${common[@]}"

run_example citation_communities
run_example coauthor_recommendation
run_example multi_index_router
run_example noisy_social_network
run_example query_service
run_example quickstart

missing=()
for src in "$bin_dir"/exp_*.rs; do
    bin="$(basename "$src" .rs)"
    [[ " ${ran[*]} " == *" $bin "* ]] || missing+=("$bin")
done
for src in "$examples_dir"/*.rs; do
    example="$(basename "$src" .rs)"
    [[ " ${ran_examples[*]} " == *" $example "* ]] || missing+=("example $example")
done
if ((${#missing[@]})); then
    echo "FAILED: no smoke line for ${missing[*]} (add a run/run_example line to $0)"
    exit 1
fi
echo "all ${#ran[@]} experiment binaries and ${#ran_examples[@]} examples smoked OK"
