#!/usr/bin/env bash
# Regenerate the checked-in golden-regression outputs under
# tests/golden/ from the current build. Run after an intentional
# behaviour change; commit the resulting diff so review documents the
# change. The commands here must stay in lockstep with the golden
# ctest entries in tests/CMakeLists.txt.
#
# Usage: tools/update_goldens.sh [build-dir]   (default: ./build)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"

cli="$build/tools/autoscale_cli"
bench="$build/bench/bench_fig_faults"
bench_serve="$build/bench/bench_fig_serve"
for binary in "$cli" "$bench" "$bench_serve"; do
    if [[ ! -x "$binary" ]]; then
        echo "missing $binary — build first (cmake --build $build)" >&2
        exit 1
    fi
done

"$cli" evaluate --device Mi8Pro --scenarios S1 --runs 10 \
    --train-runs 60 --seed 1 --jobs 1 --faults flaky-wifi --csv \
    > "$repo/tests/golden/evaluate.golden"

"$bench" --steps 600 --seed 1 \
    > "$repo/tests/golden/bench_faults.golden"

"$cli" serve --device Mi8Pro --scenario S1 --requests 200 --rate-x 2 \
    --train-runs 20 --seed 1 --faults flaky-wifi \
    > "$repo/tests/golden/serve.golden"

"$bench_serve" --seed 1 --requests 200 --blackout-requests 600 \
    > "$repo/tests/golden/bench_serve.golden"

"$cli" serve --scenario "$repo/scenarios/flash-crowd.scn" \
    > "$repo/tests/golden/scenario_serve.golden"

"$cli" serve --scenario "$repo/scenarios/churn-storm.scn" \
    > "$repo/tests/golden/churn_storm.golden"

# Serve export pins (autoscale_serve_golden in tests/CMakeLists.txt):
# stdout plus every file the run writes, through golden_artifacts.sh.
serve_golden() {
    local name="$1"
    shift
    "$repo/tools/golden_artifacts.sh" "$cli" serve "$@" \
        > "$repo/tests/golden/$name.golden"
}

serve_golden serve_artifacts \
    --device Mi8Pro --scenario D3 --requests 150 --rate-x 2 \
    --train-runs 10 --seed 5 --faults flaky-wifi \
    --trace trace.jsonl --metrics metrics.txt
serve_golden serve_light_artifacts \
    --device Mi8Pro --scenario D3 --requests 400 --rate-x 0.3 \
    --train-runs 10 --seed 5 --faults flaky-wifi \
    --checkpoint serve.ckpt --checkpoint-interval 50 \
    --trace trace.jsonl --metrics metrics.txt
for mode in per-device shared federated; do
    for churn in steady churn; do
        churn_args=()
        if [[ "$churn" == churn ]]; then
            churn_args=(--churn-crash-prob 0.1 --churn-leave-prob 0.05
                        --churn-down-epochs 2 --churn-initial-devices 3
                        --churn-join-every 1)
        fi
        for shards in 1 4; do
            serve_golden "fleet_${mode//-/_}_${churn}_s${shards}" \
                --device Mi8Pro --scenario D3 --requests 120 --rate-x 1.5 \
                --train-runs 5 --seed 11 --fleet 6 --shards "$shards" \
                --q-mode "$mode" --merge-epochs 2 --epoch-ms 100 --edge-capacity 1 \
                --contention 4 --brownout-period-ms 1000 --brownout-ms 250 \
                "${churn_args[@]}" \
                --trace trace.jsonl --metrics metrics.txt \
                --fleet-qtable-out qtables.txt
        done
    done
done
serve_golden fleet_manifest \
    --device Mi8Pro --scenario D3 --requests 200 --rate-x 2 \
    --train-runs 5 --seed 11 --fleet 4 --q-mode shared \
    --churn-crash-prob 0.08 --churn-down-epochs 2 \
    --checkpoint fleet.ckpt --halt-after-epochs 2

echo "updated:"
git -C "$repo" --no-pager diff --stat -- tests/golden || true
