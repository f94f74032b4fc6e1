#!/bin/bash
# Every deterministic CLI output, one file each, so "did this change move a
# byte" is `diff -r` of two directories (parent and change, or two modes):
#
#   scripts/outputs.sh <dir> [extra hastm-bench flags, e.g. -j 4 -sched reference]
#
# The JSON report is written with its host-dependent fields (timestamps,
# revision, host timings) removed; everything left derives from simulated
# state.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
dir="${1:?usage: scripts/outputs.sh <dir> [hastm-bench flags…]}"
shift
mkdir -p "$dir"
dir="$(cd "$dir" && pwd)"
bin="$(mktemp -d)"
trap 'rm -rf "$bin"' EXIT
(cd "$root" && go build -o "$bin/hastm-bench" ./cmd/hastm-bench)

bench() { # bench <file> <args…>
    local file="$1"
    shift
    "$bin/hastm-bench" "$@" "${extra[@]}" > "$dir/$file" 2> /dev/null
}
extra=("$@")

bench quick.txt -quick
bench quick-ext.txt -quick -ext
bench quick.json -quick -json
python3 - "$dir/quick.json" <<'PY'
import json, sys
path = sys.argv[1]
doc = json.load(open(path))
for key in ("generated_at", "git_rev", "go_version", "num_cpu", "host_seconds"):
    doc.pop(key, None)
for cell in doc["cells"]:
    for key in ("host_ms", "host_ns", "cycles_per_host_sec"):
        cell.pop(key, None)
json.dump(doc, open(path, "w"), indent=2, sort_keys=True)
PY
bench service.txt -quick -service
bench faults.txt -quick -faults suspend=900,evict=600,snoop=1100,htmabort=1700,seed=3
bench adversarial.txt -adversarial all
"$bin/hastm-bench" -quick -fig fig18 "${extra[@]}" -trace "$dir/trace.jsonl" > /dev/null 2>&1
# fig16 runs hytm, so its trace covers the hardware path's begin/abort/fallback events.
"$bin/hastm-bench" -quick -fig fig16 "${extra[@]}" -trace "$dir/trace-fig16.jsonl" > /dev/null 2>&1
# ext-numa runs the 4x16 and 4x64 machines, so the lease scheduler's cross-socket order is covered.
bench numa.txt -quick -fig ext-numa
"$bin/hastm-bench" -quick -fig ext-numa "${extra[@]}" -trace "$dir/trace-numa.jsonl" > /dev/null 2>&1
# tmsim*.txt: one figure cell's report, its first events as text.
bench tmsim.txt -cell hastm/btree/2 -events 20
for scheme in htm hytm; do
    bench "tmsim-$scheme.txt" -cell "$scheme/btree/2" -events 2000
done
