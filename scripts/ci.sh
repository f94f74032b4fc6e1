#!/bin/bash
# One CI suite's command-line smoke steps, exactly as the workflow job of the
# same name runs them:
#
#   scripts/ci.sh <suite>   # fuzz faultstorm smoke native service progress chaos
#   scripts/ci.sh reach     # the reach ledger and its gate; job reach runs it
#   scripts/ci.sh inline    # the inlining guard; job build-test runs it
#
# Reports and traces are left in ./ci-out (gitignored) for the job to upload.
# The unit tests behind each suite are not repeated here: they run in
# `go test ./...` and `go test -race ./...` (jobs build-test and race). So
# does byte identity: cmd/hastm-bench's TestPinnedOutputs checks every
# deterministic output against testdata/ under -j 1 and -j 4 -sched reference.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/ci-out"
mkdir -p "$out"
bin="$(mktemp -d)"
trap 'rm -rf "$bin"' EXIT
go build -o "$bin" ./cmd/hastm-bench

bench() { "$bin/hastm-bench" "$@"; }
json_has() { # json_has <file> <substring…>: well-formed and carries every substring
    local file="$1" want
    shift
    python3 -m json.tool "$file" > /dev/null
    for want in '"schema": "hastm-bench/10"' "$@"; do
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
FuzzSchedulerDifferential ./internal/sim
FuzzMemoryModel ./internal/mem
FuzzStripeScan ./internal/native
FuzzHierarchy ./internal/cache
EOF
    ;;
faultstorm)
    # Every scheme x structure under injected suspensions, evictions, snoops
    # and spurious HTM aborts must pass the sequential oracle (exit 1
    # otherwise).
    spec=suspend=900,evict=600,snoop=1100,htmabort=1700,seed=3
    bench -quick -faults "$spec" -j 4 > "$out/storm.txt"
    bench -quick -faults "$spec" -seed 7 -j 4 > "$out/storm-seed7.txt"
    ;;
smoke)
    # Stderr carries the per-figure simulated-cycles-per-second summary; it
    # stays in the job log for host-throughput trend spotting.
    bench -quick -ext -j 4 -json -trace "$out/trace.jsonl" > "$out/BENCH_quick.json"
    json_has "$out/BENCH_quick.json" '"backend": "sim"' '"host_ns"' '"telemetry"' '"sched"' '"cycles_per_host_sec"'
    bench -backend native -quick -json > "$out/BENCH_native.json"
    json_has "$out/BENCH_native.json" '"backend": "native-tl2"' '"txns_per_sec"' '"host_ns"'
    ;;
native)
    # Real goroutines on real memory, so -race is the point and the repetition
    # too. internal/tm is the engine conformance suite, which runs native TL2
    # beside the simulator protocols; internal/mem holds the reserve/back
    # contract the backend's arena stands on, internal/workloads the
    # differential suite whose goroutines allocate and publish nodes, and
    # internal/service the request loop.
    go test -race -count=2 ./internal/native ./internal/tm ./internal/mem ./internal/workloads ./internal/service
    bench -backend native -quick -progress
    ;;
service)
    # Every service cell oracle-replays its committed-op log before
    # reporting; a failed replay exits 1 here.
    bench -quick -service -j 4 -json > "$out/SVC_sim.json"
    json_has "$out/SVC_sim.json" '"latency_p99"' '"goodput"' '"shed"'
    bench -quick -service -backend native -json > "$out/SVC_native.json"
    json_has "$out/SVC_native.json" '"backend": "native-tl2"' '"txns_per_sec"' '"latency_p999"'
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
    bench -adversarial all -j 4 > "$out/adv.txt"
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
inline)
    # A simulated access's common case is inline code: acquire, noteAccess,
    # chargeAccess and release in sim, the L1 probe in cache (and, in
    # MarkAccess, the one probe's mark span and mark read), the bounds check
    # and the load in mem. Each function below must still be reported "can
    # inline", or an edit has pushed it over the budget and put a call back
    # on every access; the step names it and fails.
    report="$(go build -gcflags=-m ./internal/sim ./internal/cache ./internal/mem 2>&1 |
        sed -E 's/:[0-9]+:[0-9]+: / /')" || { echo "$report" >&2; exit 1; }
    status=0
    while read -r file fn; do
        if ! grep -qxF "$file can inline $fn" <<<"$report"; then
            echo "scripts/ci.sh inline: $file: $fn is no longer inlinable" >&2
            status=1
        fi
    done <<'EOF'
internal/sim/sim.go (*Ctx).acquire
internal/sim/sim.go (*Ctx).noteAccess
internal/sim/sim.go (*Machine).chargeAccess
internal/sim/sim.go (*Ctx).release
internal/sim/sim.go (*Ctx).charge
internal/cache/cache.go lineOf
internal/cache/cache.go (*Hierarchy).l1Of
internal/cache/cache.go (*level).find
internal/cache/cache.go (*level).touch
internal/cache/cache.go (*level).marks
internal/cache/cache.go (*Hierarchy).slotOf
internal/cache/cache.go markSpan
internal/mem/mem.go (*Memory).check
internal/mem/mem.go (*Memory).Load
internal/mem/mem.go (*Memory).LoadAtomic
EOF
    exit "$status"
    ;;
reach)
    # The reach ledger: per package, the non-test statements that the
    # deterministic outputs reach (TestPinnedOutputs; for the host-timed
    # packages also the native smokes on a coverage build), those only tests
    # or bench/'s tests reach, and those nothing reaches. bench/ is not
    # counted; the programs under examples/ are reached by their Example
    # tests. Host timing picks which backoff, wake, sleep and chaos paths the
    # native runs take, so the smokes count only in the host-timed rows,
    # which move run to run; the second total leaves those rows out and
    # repeats.
    # The blocks nothing reaches are listed in reach-neither.txt under their
    # enclosing func. The gate: outside the host-timed packages, every func's
    # unreached statement count must equal its line in scripts/reach-allow.txt
    # (none if it has no line), so new dead code and stale lines both fail.
    cov="$bin/cov"
    mkdir -p "$cov/data"
    go build -cover -coverpkg=./... -o "$bin" ./cmd/hastm-bench
    go test -coverpkg=./... -coverprofile="$cov/pinned.txt" -run '^TestPinnedOutputs$' ./cmd/hastm-bench > /dev/null
    GOCOVERDIR="$cov/data" bench -backend native -quick -json > /dev/null
    GOCOVERDIR="$cov/data" bench -quick -service -backend native -json > /dev/null
    go tool covdata textfmt -i="$cov/data" -o "$cov/native.txt"
    go test -coverpkg=./... -coverprofile="$cov/tests.txt" ./... > /dev/null
    (cd bench && go test -coverpkg=hastm.dev/hastm/... -coverprofile="$cov/bench.txt" ./... > /dev/null)
    python3 - "$cov" "$out/reach-neither.txt" scripts/reach-allow.txt <<'EOF'
import collections, os, re, sys
cov, neither_path, allow_path = sys.argv[1:]
mod = "hastm.dev/hastm/"
host_timed = {"internal/native"}

def reached(*names):  # block -> (statements, run at least once in any profile)
    blocks = {}
    for line in (line for name in names for line in open(os.path.join(cov, name))):
        if line.startswith(("mode:", mod + "bench/")):
            continue
        block, stmts, count = line.split()
        blocks[block] = (int(stmts), blocks.get(block, (0, False))[1] or int(count) > 0)
    return blocks

funcs = {}  # file -> [(line, name)] of its top-level func declarations
def enclosing(file, line):  # "(*T).m" or "f" for the func declared last at or above line
    if file not in funcs:
        funcs[file] = []
        for i, text in enumerate(open(file), 1):
            if m := re.match(r"func (?:\((?:\w+ )?(\*?\w+)[^)]*\) )?(\w+)", text):
                funcs[file].append((i, f"({m[1]}).{m[2]}" if m[1] else m[2]))
    return max(((l, n) for l, n in funcs[file] if l <= line), default=(0, "-"))[1]

# The outputs' profiles hold only the packages hastm-bench links; tests
# reach the others (the root package). The native smokes' profile counts
# only in the host-timed packages.
pinned, timed = reached("pinned.txt"), reached("pinned.txt", "native.txt")
tests, bench = reached("tests.txt"), reached("bench.txt")
rows = collections.defaultdict(lambda: [0, 0, 0])
neither = []
for block, (stmts, _) in (bench | tests | timed).items():
    hit = lambda profile: profile.get(block, (0, False))[1]
    path = block.removeprefix(mod)
    pkg = os.path.dirname(path) or "."
    outputs = timed if pkg in host_timed else pinned
    col = 0 if hit(outputs) else 1 if hit(tests) or hit(bench) else 2
    rows[pkg][col] += stmts
    if col == 2 and stmts > 0:
        file, pos = path.split(":")
        line = int(pos.split(".")[0])
        neither.append((file, line, enclosing(file, line), stmts, pkg in host_timed))
def row(name, r):
    print(f"{name:32} {sum(r):6} {r[0]:8} {r[1]:17} {r[2]:8}")
print(f"{'package':32} {'stmts':>6} {'outputs':>8} {'tests/bench only':>17} {'neither':>8}")
for pkg in sorted(rows):
    row(pkg + " (host-timed)" * (pkg in host_timed), rows[pkg])
row("total", [sum(c) for c in zip(*rows.values())])
row("total without host-timed", [sum(c) for c in zip(*(r for p, r in rows.items() if p not in host_timed))])
got = collections.Counter()
with open(neither_path, "w") as f:
    for file, line, fn, stmts, timed in sorted(neither):
        print(f"{file}:{line} {fn} {stmts}", file=f)
        if not timed:
            got[file, fn] += stmts
allowed = {}
for text in open(allow_path):
    if text.strip() and not text.startswith("#"):
        file, fn, stmts, reason = text.split(maxsplit=3)
        allowed[file, fn] = int(stmts)
fail = False
for key in sorted(got.keys() | allowed.keys()):
    n, want = got[key], allowed.get(key, 0)
    if n != want:
        what = "unreached statements" if n > want else "stale allow-list entry"
        print(f"scripts/ci.sh reach: {what}: {key[0]} {key[1]}: {n} unreached, {allow_path} gives {want}", file=sys.stderr)
        fail = True
sys.exit(fail)
EOF
    ;;
*)
    echo "scripts/ci.sh: unknown suite '$1'" >&2
    exit 2
    ;;
esac
