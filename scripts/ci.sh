#!/bin/bash
# One CI suite's command-line smoke and byte-identity steps, exactly as the
# workflow job of the same name runs them:
#
#   scripts/ci.sh <suite>   # fuzz bench faultstorm smoke native service progress scale chaos
#
# Reports and traces are left in ./ci-out (gitignored) for the job to upload.
# The unit tests behind each suite are not repeated here: they run in
# `go test ./...` and `go test -race ./...` (jobs build-test and race).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/ci-out"
mkdir -p "$out"
bin="$(mktemp -d)"
trap 'rm -rf "$bin"' EXIT
go build -o "$bin" ./cmd/hastm-bench ./cmd/traceanalyze ./cmd/benchgate

bench() { "$bin/hastm-bench" "$@"; }
json_has() { # json_has <file> <substring…>: well-formed and carries every substring
    local file="$1" want
    shift
    python3 -m json.tool "$file" > /dev/null
    for want in '"schema": "hastm-bench/9"' "$@"; do
        grep -q -- "$want" "$file" || { echo "$file lacks $want" >&2; return 1; }
    done
}

case "${1:?usage: scripts/ci.sh <suite>}" in
fuzz)
    # go test -fuzz takes one target and one package per invocation. A failing
    # input is written under the package's testdata/fuzz; commit it with the
    # fix so tier-1 replays it.
    while read -r target pkg; do
        go test -run '^$' -fuzz "^${target}\$" -fuzztime 30s "$pkg"
    done <<'EOF'
FuzzParseSpec ./internal/faults
FuzzParseChaosSpec ./internal/native
FuzzParseTopology ./internal/sim
FuzzParsePlacement ./internal/mem
FuzzParseMapping ./internal/harness
FuzzHierarchy ./internal/cache
EOF
    ;;
bench)
    # Same-run ratios, host-independent: per-op scheduler cost at 256 simulated
    # cores within 2x of 16 (SimOpsScale); no O(cores) broadcast walk in the
    # directory (DirCoherence); a contended 4-core op (one coroutine round trip
    # per lease) within 16x of the 1-core op, which hands off to nobody (the
    # channel transport sat at 32x, the coroutine transport near 12x); and Exec
    # core-private — no grant, so the same cost on four contended cores as on
    # one (27x while it took one); and resetmarkall an epoch increment, not a
    # walk of the L1 (a 32 KB cache cost 20x a 1 KB one while it walked, 2.5x
    # since).
    go test -run '^$' -bench 'SimOps|DirCoherence|ClearAllMarks' -count=5 -benchtime 300ms ./internal/sim ./internal/cache | tee "$out/bench.txt"
    "$bin/benchgate" \
        -scale SimOpsScale/16core:SimOpsScale/256core:2.0 \
        -scale SimOps/Load/1core:SimOps/Load/4core:16 \
        -scale SimOps/Exec/1core:SimOps/Exec/4core:3 \
        -scale DirCoherence/16core:DirCoherence/256core:2.0 \
        -scale ClearAllMarks/1KB:ClearAllMarks/32KB:10 \
        "$out/bench.txt"
    ;;
faultstorm)
    # Every scheme x structure under injected suspensions, evictions, snoops
    # and spurious HTM aborts must pass the sequential oracle (exit 1
    # otherwise), byte-identically across -j and schedulers.
    spec=suspend=900,evict=600,snoop=1100,htmabort=1700,seed=3
    OUT="$out/storm" scripts/cmp-modes.sh -quick -faults "$spec"
    bench -quick -faults "$spec" -seed 7 -j 4 > "$out/storm-seed7.txt"
    ;;
smoke)
    # Stderr carries the per-figure simulated-cycles-per-second summary; it
    # stays in the job log for host-throughput trend spotting.
    bench -quick -ext -j 4 -json -trace "$out/trace.jsonl" > "$out/BENCH_quick.json"
    json_has "$out/BENCH_quick.json" '"backend": "sim"' '"host_ns"' '"telemetry"' '"sched"' '"cycles_per_host_sec"'
    bench -backend native -quick -json > "$out/BENCH_native.json"
    json_has "$out/BENCH_native.json" '"backend": "native-tl2"' '"txns_per_sec"' '"host_ns"'
    "$bin/traceanalyze" -strict -top 5 "$out/trace.jsonl"
    # Parallelism and the grant-lease fast path change only host time, never
    # the science: identical stdout and transaction trace.
    OUT="$out/figures" scripts/cmp-modes.sh -quick
    ;;
native)
    # Real goroutines on real memory, so -race is the point and the repetition
    # too. internal/tm is the engine conformance suite, which runs native TL2
    # beside the simulator protocols; internal/mem holds the Materialize
    # contract the backend stands on and internal/service its request loop.
    go test -race -count=2 ./internal/native ./internal/tm ./internal/mem ./internal/service
    bench -backend native -quick -progress
    ;;
service)
    # Every service cell oracle-replays its committed-op log before
    # reporting; a failed replay exits 1 here.
    bench -quick -service -j 4 -json > "$out/SVC_sim.json"
    json_has "$out/SVC_sim.json" '"latency_p99"' '"goodput"' '"shed"'
    bench -quick -service -backend native -json > "$out/SVC_native.json"
    json_has "$out/SVC_native.json" '"backend": "native-tl2"' '"txns_per_sec"' '"latency_p999"'
    OUT="$out/svc" scripts/cmp-modes.sh -quick -service
    # Admission-control events under the strict state machine: shed stands
    # alone (no begin, no fake abort), serialize is informational.
    "$bin/traceanalyze" -strict -top 5 "$out/svc-j1.jsonl"
    grep -q '"ev":"shed"' "$out/svc-j1.jsonl"
    grep -q '"ev":"serialize"' "$out/svc-j1.jsonl"
    # The simulator's numbers are exact for a fixed seed, so the SLO gate is
    # exact: no contained failure, every request accounted for, and the
    # moderate-load cell sheds nothing and keeps p999 sojourn bounded.
    python3 - "$out/SVC_sim.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
cells = [c for c in doc["cells"] if c["figure"] == "service"]
assert cells, "no service cells in document"
for c in cells:
    assert not c.get("error"), f'{c["label"]}: {c["error"]}'
    s = c["service"]
    assert s["committed"] + s["shed"] == s["offered"], (c["label"], s)
(slo,) = [c for c in cells if c["label"] == "service/load/gap1024"]
s = slo["service"]
assert s["shed"] == 0, f"moderate load shed {s['shed']} requests"
assert 0 < s["latency_p999"] <= 16384, f"p999 {s['latency_p999']} cycles out of bounds"
print("SLO gate ok:", s)
EOF
    ;;
progress)
    # Livelock/starvation cells that need the irrevocable ladder to finish.
    OUT="$out/adv" scripts/cmp-modes.sh -adversarial all
    # With -no-ladder the storm must NOT complete: exit 1, a structured
    # ProgressViolation naming the tripped watchdog, the last events on stderr.
    if bench -adversarial storm -no-ladder > "$out/noladder.txt" 2> "$out/noladder.err"; then
        echo "disarmed-ladder storm unexpectedly completed" >&2
        exit 1
    fi
    grep -q 'ProgressViolation' "$out/noladder.txt"
    grep -Eq 'cycle-budget|commit-stall' "$out/noladder.txt"
    grep -q 'last 16 trace events' "$out/noladder.err"
    ;;
scale)
    # The 64-256 core mapping-policy figure on a quick cell budget.
    OUT="$out/numa" scripts/cmp-modes.sh -quick -fig ext-numa
    "$bin/traceanalyze" -strict -top 5 "$out/numa-j1.jsonl"
    bench -quick -fig ext-numa -j 4 -json > "$out/NUMA_quick.json"
    json_has "$out/NUMA_quick.json" '"numa"' '"cross_socket_misses"' '"remote_dirty_fetches"' '"directory_invalidations"'
    ;;
chaos)
    # Every cell must pass the sequential oracle AND match its chaos-free
    # twin's content fingerprint (exit 1 otherwise). The planned schedule is a
    # pure function of the spec, so its hash column must be byte-identical
    # across two runs even though fired counts are host-dependent.
    spec=stall=60,stallns=20000,preempt=50,abort=40,wakedelay=30,seed=3
    bench -quick -backend native -chaos "$spec" -ops 2000 | tee "$out/chaos-a.txt"
    bench -quick -backend native -chaos "$spec" -ops 2000 > "$out/chaos-b.txt"
    # a storm that plans nothing proves nothing
    awk 'NR>2 && $1 ~ /^native\// && $3+0 == 0 {print "no injections planned:", $0; exit 1}' "$out/chaos-a.txt"
    grep -oE '\b[0-9a-f]{16}\b' "$out/chaos-a.txt" > "$out/hash-a.txt"
    grep -oE '\b[0-9a-f]{16}\b' "$out/chaos-b.txt" > "$out/hash-b.txt"
    test -s "$out/hash-a.txt"
    cmp "$out/hash-a.txt" "$out/hash-b.txt"
    bench -quick -backend native -chaos abort=100,stall=200,seed=3 -json > "$out/CHAOS.json"
    json_has "$out/CHAOS.json" '"chaos"' '"schedule_hash"' '"planned"'
    ;;
*)
    echo "scripts/ci.sh: unknown suite '$1'" >&2
    exit 2
    ;;
esac
