package harness

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"testing"

	"hastm.dev/hastm/internal/faults"
	"hastm.dev/hastm/internal/telemetry"
)

// The golden tests assert shapes; this one pins bytes. Every deterministic
// output family of the harness — each figure and extension report, the
// faultstorm and adversarial verdict rows, the simulator service figure and
// the cross-scheme final-state hashes — is folded into an FNV-1a value and
// compared with the table below, under both schedulers. A change that moves
// any simulated result in its last digit fails here; a change that means to
// move one regenerates the table (run with -v: mismatches print the new
// value in table syntax).
var outputFingerprints = map[string]uint64{
	"fig11": 0x7ec51a15db67ab4d,
	"fig12": 0x2101e23e9c8daa21,
	"fig13": 0xeb103f86ca521b66,
	"fig15": 0x1c2a37282b2c63b6,
	"fig16": 0x9dad4fb25de88bde,
	"fig17": 0x485d2d26fbc32e07,
	"fig18": 0xd72fedf8fb374b26,
	"fig19": 0x11d53c81c76ed3f4,
	"fig20": 0x132b5e5830800842,
	"fig21": 0x44355bfa3af79486,
	"fig22": 0xbe5d74cef530ccc2,

	"ext-wfilter":     0xf347846ebdf9d537,
	"ext-interatomic": 0x732f76e0ebb88535,
	"ext-defaultisa":  0x1a9d91e091bff5b1,
	"ext-granularity": 0x4cdc0e7a05bd11d7,
	"ext-smt":         0xc84efaca83bf12d9,
	"ext-irrevocable": 0x30ab0c87ccc3e861,
	"ext-lazy":        0x928959237af4a10b,
	"ext-numa":        0x7606b0e157e7f980,

	"faultstorm":  0x4460dcf7adf4e80e,
	"adversarial": 0xbca742e22c97b1d7,
	"service":     0xe2f700cc662ff440,

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

// faultReportRow renders a FaultReport the way `%+v` did when the
// "faultstorm" fingerprint was recorded: with Totals as the name-keyed
// summary struct of the former stats store rather than a telemetry.Block,
// so the table keeps pinning the same simulated values.
func faultReportRow(r *FaultReport) string {
	named := func(n int, name func(int) string, val func(int) uint64) map[string]uint64 {
		var m map[string]uint64
		for i := 0; i < n; i++ {
			if v := val(i); v > 0 {
				if m == nil {
					m = map[string]uint64{}
				}
				m[name(i)] = v
			}
		}
		return m
	}
	t := r.Totals
	cats, causes := telemetry.Categories(), telemetry.AbortCauses()
	type totals struct {
		Cycles  map[string]uint64
		Commits uint64
		Aborts  map[string]uint64
		Retries uint64

		FilteredReads, UnfilteredReads, FastValidations, FullValidations uint64
		ReadsLogged, ReadLogsSkipped, FilteredWrites, UndoLogsSkipped    uint64
		AggressiveCommits, CautiousCommits, HTMFallbacks, WaitCycles     uint64
	}
	return fmt.Sprintf("%+v\n", struct {
		Scheme, Workload string
		Cores, Committed int
		Injected         map[string]uint64
		Skipped          uint64
		ScheduleLen      int
		ScheduleHash     uint64
		RunFingerprint   uint64
		Totals           totals
		Err              string
	}{r.Scheme, r.Workload, r.Cores, r.Committed, r.Injected, r.Skipped, r.ScheduleLen, r.ScheduleHash, r.RunFingerprint,
		totals{
			Cycles:  named(len(cats), func(i int) string { return cats[i].String() }, func(i int) uint64 { return t.Cycles(cats[i]) }),
			Commits: t.Count(telemetry.Commits),
			Aborts:  named(len(causes), func(i int) string { return causes[i].String() }, func(i int) uint64 { return t.Aborts(causes[i]) }),
			Retries: t.Count(telemetry.Retries),

			FilteredReads: t.Count(telemetry.FilteredReads), UnfilteredReads: t.Count(telemetry.UnfilteredReads),
			FastValidations: t.Count(telemetry.FastValidations), FullValidations: t.Count(telemetry.FullValidations),
			ReadsLogged: t.Count(telemetry.ReadsLogged), ReadLogsSkipped: t.Count(telemetry.ReadLogsSkipped),
			FilteredWrites: t.Count(telemetry.FilteredWrites), UndoLogsSkipped: t.Count(telemetry.UndoLogsSkipped),
			AggressiveCommits: t.Count(telemetry.AggressiveCommits), CautiousCommits: t.Count(telemetry.CautiousCommits),
			HTMFallbacks: t.Count(telemetry.HTMFallbacks), WaitCycles: t.Count(telemetry.WaitCycles),
		}, r.Err})
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

		// The lease-scheduler figure reports are the serial set the
		// equivalence tests already compute; only the reference scheduler
		// needs its own run of the figures.
		var plans []*Plan
		if reference {
			for _, s := range allSpecs() {
				plans = append(plans, s.Plan(o))
			}
		} else {
			for _, rep := range reportsAt(t, 1) {
				got[rep.ID] = fnvOf(renderString(rep))
			}
		}
		spec, err := faults.ParseSpec("suspend=900,evict=600,snoop=1100,htmabort=1700,seed=3")
		if err != nil {
			t.Fatal(err)
		}
		faultPlan, progressPlan := FaultPlan(spec, o, 4), ProgressPlan(o, 4, true, "")
		plans = append(plans, faultPlan, progressPlan, ServicePlan(o))
		reports := Execute(plans, ExecConfig{})
		for i, rep := range reports {
			if rep != nil {
				got[plans[i].ID] = fnvOf(renderString(rep))
			}
		}
		if failed := FailedCells(plans); len(failed) > 0 {
			t.Fatalf("cell %s/%s failed: %s", failed[0].Figure, failed[0].Label, failed[0].Err)
		}
		rows := ""
		for _, r := range verdicts[FaultReport](t, faultPlan) {
			rows += faultReportRow(r)
		}
		got["faultstorm"] = fnvOf(rows)
		rows = ""
		for _, r := range verdicts[ProgressReport](t, progressPlan) {
			rows += fmt.Sprintf("%+v\n", *r)
		}
		got["adversarial"] = fnvOf(rows)

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
