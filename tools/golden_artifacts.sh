#!/usr/bin/env bash
# Golden driver for commands that write files as well as a report:
# runs `<cli> <args...>` in a fresh scratch directory, prints its
# stdout, then every file the command left behind in name order. A
# file under 100 KB is printed verbatim; a larger one (traces, Q-table
# dumps, fleet manifests) as its `cksum` line. The args name their
# output files relatively (`--trace trace.jsonl`), so the report's
# echo of those paths is the same on every machine.
#
# Usage: tools/golden_artifacts.sh <autoscale_cli> <args...>
set -euo pipefail
export LC_ALL=C

cli="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
shift
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"

"$cli" "$@"
for file in *; do
    [[ -f "$file" ]] || continue
    size="$(wc -c < "$file")"
    if (( size < 100 * 1024 )); then
        echo "--- $file ($size bytes)"
        cat "$file"
    else
        echo "--- $file: $(cksum < "$file")"
    fi
done
