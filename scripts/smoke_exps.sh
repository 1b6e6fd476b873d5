#!/usr/bin/env bash
# Smoke-runs every experiment binary at tiny --scale/--seeds so that
# table/figure regressions surface in CI long before anyone runs the full
# suite (ROADMAP: "exp_* binaries are unsmoked").
#
# Dataset choice: `arxiv` (and `com-dblp` for the non-attributed Table IX
# run) because their registry entries are scale-able — at `--scale 0.02`
# they generate in well under a second — while the "small" registry
# entries (cora, pubmed, ...) always generate at full size. Binaries with
# a fixed dataset (exp_fig8_case_study) simply ignore the filter.
#
# Usage: scripts/smoke_exps.sh [path-to-target-dir]
set -euo pipefail

target="${1:-target}/release"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

run() {
    local bin="$1"
    shift
    echo "=== smoke: $bin $* ==="
    local t0=$SECONDS
    "$target/$bin" "$@" --out "$out" >"$out/$bin.log" 2>&1 || {
        echo "FAILED: $bin (last 40 lines)"
        tail -n 40 "$out/$bin.log"
        exit 1
    }
    echo "    ok ($((SECONDS - t0))s, $(wc -l <"$out/$bin.log") log lines)"
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
run exp_serving --seeds 6 --scale 0.02 --datasets arxiv
run exp_routing --seeds 6 --scale 0.02 --datasets arxiv
run exp_overload --seeds 6 --scale 0.02 --datasets arxiv
run exp_telemetry --seeds 6 --scale 0.02 --datasets arxiv
run exp_persist --seeds 4 --scale 0.02 --datasets arxiv

echo "all experiment binaries smoked OK"
