#!/bin/bash
# Byte-identity across execution modes: run hastm-bench with the given
# arguments serially (-j 1), in parallel (-j 4) and on the reference scheduler
# (-j 4 -sched reference), and fail on the first difference in stdout or in
# the -trace file (suites that write no trace are compared on stdout alone).
#
#   scripts/cmp-modes.sh <hastm-bench args…>
#
# Outputs are left as $OUT-j1.txt, $OUT-j1.jsonl, $OUT-j4.*, $OUT-ref.* for
# later steps and artifacts; OUT defaults to a prefix in a fresh temp dir. A
# non-zero exit of hastm-bench itself (a failed cell) also fails the script.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${OUT:-$(mktemp -d)/modes}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
bin="$tmp/hastm-bench"
(cd "$root" && go build -o "$bin" ./cmd/hastm-bench)

run() { # run <mode> <mode flags…>
    local mode="$1"
    shift
    "$bin" "${args[@]}" "$@" -trace "$out-$mode.jsonl" > "$out-$mode.txt" 2> /dev/null
}
same() { # same <mode>: stdout and trace match the serial run
    cmp "$out-j1.txt" "$out-$1.txt"
    if [ -e "$out-j1.jsonl" ]; then
        cmp "$out-j1.jsonl" "$out-$1.jsonl"
    fi
}

args=("$@")
run j1 -j 1
run j4 -j 4
same j4
run ref -j 4 -sched reference
same ref
