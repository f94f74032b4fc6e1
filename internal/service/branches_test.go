package service

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/tm"
	"hastm.dev/hastm/internal/workloads"
)

func TestBankRejectsAFullTable(t *testing.T) {
	mustPanic(t, "cannot hold 8 accounts with headroom", func() {
		NewBank(mem.New(), BankConfig{Keys: 8, Slots: 8})
	})
	if got := NewBank(mem.New(), BankConfig{Keys: 2, Slots: 4}).Name(); got != "bank" {
		t.Errorf("Name() = %q, want bank", got)
	}
	mustPanic(t, "empty key space", func() { NewZipf(0, 1) })
	m := mem.New()
	small := &Bank{cfg: BankConfig{Keys: 8}, ht: workloads.NewHashtable(m, 4)} // past NewBank's headroom check
	mustPanic(t, "service: populate: workloads: hashtable full", func() { small.Populate(m, nil) })
}

func smallBank() (*Bank, workloads.Direct) {
	m := mem.New()
	b := NewBank(m, BankConfig{Keys: 16, Slots: 64, ZipfS: 0.9})
	b.Populate(m, workloads.NewRand(1))
	return b, workloads.Direct{M: m}
}

// A missing account is a corrupt bank, never a request to decline: every
// request class that reaches one fails with the account named.
func TestBankOpsFailOnAMissingAccount(t *testing.T) {
	b, d := smallBank()
	b.ht.Delete(d, 0) // the hottest account
	var failures []string
	for seed := uint64(1); seed < 200; seed++ {
		for _, err := range []error{b.Op(d, workloads.NewRand(seed), false), b.WarmupOp(d, workloads.NewRand(seed))} {
			if err != nil {
				failures = append(failures, err.Error())
			}
		}
	}
	all := strings.Join(failures, "\n")
	for _, want := range []string{"bank: account 0 missing\n", "bank: account 0 missing in scan", "on missing account"} {
		if !strings.Contains(all+"\n", want) {
			t.Errorf("no request failed with %q", want)
		}
	}
}

func TestBankCheckerCatchesCorruption(t *testing.T) {
	for _, c := range []struct {
		name, want string
		corrupt    func(b *Bank, d workloads.Direct)
	}{
		{"broken table", "hashtable:", func(b *Bank, d workloads.Direct) {
			b.ht.Insert(d, 1000, 0) // a key outside the table's key space
		}},
		{"vanished account", "account 3 vanished", func(b *Bank, d workloads.Direct) { b.ht.Delete(d, 3) }},
		{"money created", "conservation violated", func(b *Bank, d workloads.Direct) { b.ht.Insert(d, 3, InitialBalance+1) }},
	} {
		b, d := smallBank()
		if err := b.CheckInvariants(d.M); err != nil {
			t.Fatalf("%s: intact bank: %v", c.name, err)
		}
		c.corrupt(b, d)
		if err := b.CheckInvariants(d.M); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// stepClock advances by step on every reading, so every sojourn is at
// least one step long; it records the causes the loop emits.
type stepClock struct {
	t, step uint64
	causes  *[]string
}

func (c *stepClock) now() uint64                 { c.t += c.step; return c.t }
func (c *stepClock) idleUntil(t uint64)          { c.t = max(c.t, t) }
func (c *stepClock) emit(_ int, _, cause string) { *c.causes = append(*c.causes, cause) }
func (c *stepClock) seen(cause string) bool      { return slices.Contains(*c.causes, cause) }
func (c *stepClock) run(th tm.Thread, b *Bank, cfg Config, cm *CellMetrics) error {
	return runCore(c, th, b, cfg, 0, cfg.Degrade.SLOCycles, cm, nil)
}

// abortingThread runs each atomic block on raw memory twice, as if the
// first attempt had aborted on a conflict, or fails it with err.
type abortingThread struct {
	tm.Thread
	d   workloads.Direct
	err error
}

func (a abortingThread) Atomic(body func(tm.Txn) error) error {
	if a.err != nil {
		return a.err
	}
	body(a.d)
	return body(a.d)
}

func (a abortingThread) AtomicSerialized(body func(tm.Txn) error) error { return a.Atomic(body) }

func (abortingThread) ID() int { return 0 }

// Under a sustained SLO breach the ladder climbs to shedding transfers,
// and while it is engaged a write to a key hot with conflicts is shed
// (the circuit is open) instead of serialized.
func TestDegradedLoopShedsTransfersAndHotKeys(t *testing.T) {
	b, d := smallBank()
	var causes []string
	clk := &stepClock{step: 100, causes: &causes}
	cfg := Config{Requests: 4000, Admission: AdmissionConfig{HotThreshold: 1}, Degrade: DegradeConfig{SLOCycles: 1}}
	var cm CellMetrics
	if err := clk.run(abortingThread{d: d}, b, cfg, &cm); err != nil {
		t.Fatal(err)
	}
	if cm.ShedTransfers == 0 || !clk.seen("slo-transfer") {
		t.Errorf("no transfer shed (ShedTransfers %d): the ladder never reached its top level", cm.ShedTransfers)
	}
	if !clk.seen("hot-key-open") || cm.Serialized == 0 {
		t.Errorf("serialized %d, hot-key-open seen %v: want hot keys serialized, then shed once degraded", cm.Serialized, clk.seen("hot-key-open"))
	}
	if cm.Committed+cm.Shed != cm.Offered {
		t.Errorf("committed %d + shed %d != offered %d", cm.Committed, cm.Shed, cm.Offered)
	}
}

// A failed transaction ends the request loop with the request named.
func TestRequestLoopsReturnAtomicErrors(t *testing.T) {
	b, _ := smallBank()
	boom := errors.New("boom")
	th := abortingThread{err: boom}
	var cm CellMetrics
	if err := (&stepClock{causes: new([]string)}).run(th, b, Config{Requests: 1}, &cm); !errors.Is(err, boom) || !strings.Contains(err.Error(), "request 0") {
		t.Errorf("runCore: err = %v, want request 0's %v", err, boom)
	}
	if err := RunWarmup(th, b, Config{Warmup: 1}); !errors.Is(err, boom) || !strings.Contains(err.Error(), "warmup 0") {
		t.Errorf("RunWarmup: err = %v, want warmup 0's %v", err, boom)
	}
}

// A quantile below 2^-75 has rank 1 at every total, and a sample in the
// last bucket is found there.
func TestPercentileExtremes(t *testing.T) {
	if got := percentileRank(1e-30, 1<<63); got != 1 {
		t.Errorf("percentileRank(1e-30, 2^63) = %d, want 1", got)
	}
	var h Histogram
	h.Record(^uint64(0))
	if got, want := h.Percentile(0.5), BucketUpper(NumBuckets-1); got != want {
		t.Errorf("Percentile of a max-value sample = %d, want the last bucket's %d", got, want)
	}
}
