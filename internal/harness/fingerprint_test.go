package harness

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"hastm.dev/hastm/internal/faults"
)

var update = flag.Bool("update", false, "TestVerdictRows: rewrite testdata/ from this run's rows")

// The conformance column: every scheme's final structure states, folded into
// an FNV-1a value per scheme and compared with the table below under both
// schedulers. The values are hashes, not text, because their point is that
// the schemes agree. (hastm-bench's outputs are pinned as text by
// cmd/hastm-bench's TestPinnedOutputs, the verdict rows by TestVerdictRows.)
// A change that means to move one regenerates the table (run with -v:
// mismatches print the new value in table syntax).
var outputFingerprints = map[string]uint64{
	// At two cores the retry-stable mix still commutes for every scheme but
	// the lock, whose critical sections order the two threads differently.
	"conformance/seq":               0x8dd6c20bdbaddf87,
	"conformance/lock":              0x80748eaa59406ef4,
	"conformance/stm":               0x8dd6c20bdbaddf87,
	"conformance/hastm":             0x8dd6c20bdbaddf87,
	"conformance/hastm-cautious":    0x8dd6c20bdbaddf87,
	"conformance/hastm-noreuse":     0x8dd6c20bdbaddf87,
	"conformance/naive-aggressive":  0x8dd6c20bdbaddf87,
	"conformance/hytm":              0x8dd6c20bdbaddf87,
	"conformance/htm":               0x8dd6c20bdbaddf87,
	"conformance/lazy":              0x8dd6c20bdbaddf87,
	"conformance/mvcc":              0x8dd6c20bdbaddf87,
	"conformance/hastm-irrevocable": 0x8dd6c20bdbaddf87,
	"conformance/hastm-wfilter":     0x8dd6c20bdbaddf87,
	"conformance/hastm-interatomic": 0x8dd6c20bdbaddf87,
	"conformance/hastm-watermark":   0x8dd6c20bdbaddf87,
	"conformance/hastm-object":      0x8dd6c20bdbaddf87,
	"conformance/stm-object":        0x8dd6c20bdbaddf87,
}

// fingerprintSchemes is every scheme the conformance column hashes, in the
// order the harness names them.
var fingerprintSchemes = []string{
	SchemeSeq, SchemeLock, SchemeSTM, SchemeHASTM, SchemeCautious, SchemeNoReuse,
	SchemeNaive, SchemeHyTM, SchemeHTM, SchemeLazy, SchemeMVCC, SchemeIrrevocable,
	SchemeWFilter, SchemeInterAtomic, SchemeWatermark, SchemeObjHASTM, SchemeObjSTM,
}

func fnvOf(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func TestOutputFingerprints(t *testing.T) {
	for _, reference := range []bool{false, true} {
		o := QuickOptions()
		o.ReferenceScheduler = reference
		got := map[string]uint64{}

		// Final-state hashes: every scheme on every structure it supports, two
		// cores so the hash depends on the scheme's own interleaving.
		var mu sync.Mutex
		var wg sync.WaitGroup
		sem := make(chan struct{}, runtime.GOMAXPROCS(0))
		for _, scheme := range fingerprintSchemes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				fold := ""
				for _, wl := range []string{WorkloadBST, WorkloadHash, WorkloadBTree, WorkloadObjBST} {
					h, err := FinalStateHash(scheme, wl, 2, o, 20)
					if err != nil {
						t.Errorf("FinalStateHash(%s, %s): %v", scheme, wl, err)
					}
					fold += fmt.Sprintf("%s=%016x\n", wl, h)
				}
				mu.Lock()
				got["conformance/"+scheme] = fnvOf(fold)
				mu.Unlock()
			}()
		}
		wg.Wait()

		if len(got) != len(outputFingerprints) {
			t.Errorf("reference=%v: %d fingerprints computed, table has %d", reference, len(got), len(outputFingerprints))
		}
		for name, h := range got {
			if want := outputFingerprints[name]; h != want {
				t.Errorf("reference=%v: %q: %#016x, // table has %#016x", reference, name, h, want)
			}
		}
	}
}

// TestVerdictRows pins the faultstorm and adversarial verdicts as text: one
// JSON line of named fields per cell, every field of its report, more than
// the suites' tables print (the run fingerprint, the merged telemetry
// block). Both schedulers must produce the same lines; -update rewrites them
// from the lease scheduler's run.
func TestVerdictRows(t *testing.T) {
	spec, err := faults.ParseSpec("suspend=900,evict=600,snoop=1100,htmabort=1700,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	for _, reference := range []bool{false, true} {
		o := QuickOptions()
		o.ReferenceScheduler = reference
		faultPlan, progressPlan := FaultPlan(spec, o, 4), ProgressPlan(o, 4, true, "")
		Execute([]*Plan{faultPlan, progressPlan}, ExecConfig{})
		rewrite := *update && !reference
		checkRows(t, "testdata/faultstorm.jsonl", jsonLines(t, verdicts[FaultReport](t, faultPlan)), rewrite)
		checkRows(t, "testdata/adversarial.jsonl", jsonLines(t, verdicts[ProgressReport](t, progressPlan)), rewrite)
	}
}

func jsonLines[R any](t *testing.T, rows []*R) string {
	var b strings.Builder
	for _, r := range rows {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(append(line, '\n'))
	}
	return b.String()
}

// checkRows compares got with the pin in file line by line, one line per
// cell, or rewrites the pin.
func checkRows(t *testing.T, file, got string, rewrite bool) {
	t.Helper()
	if rewrite {
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	want, lines := strings.Split(string(b), "\n"), strings.Split(got, "\n")
	for i := range max(len(want), len(lines)) {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(lines) {
			g = lines[i]
		}
		if w != g {
			t.Errorf("%s:%d:\n\twant %s\n\tgot  %s", file, i+1, w, g)
		}
	}
}
