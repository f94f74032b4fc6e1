package service

import (
	"fmt"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/tm"
	"hastm.dev/hastm/internal/workloads"
)

// InitialBalance is every account's starting balance. Transfers conserve
// the total, so the sum over all accounts equals Keys·InitialBalance at
// every serialization point — the bank's core invariant.
const InitialBalance = 1000

// BankConfig sizes the bank and its key popularity.
type BankConfig struct {
	// Keys is the number of accounts (key space 0..Keys-1, all present).
	Keys uint64
	// Slots sizes the backing hashtable; must exceed Keys for open
	// addressing to probe reasonably (the harness uses 4×).
	Slots uint64
	// ZipfS is the key-popularity skew exponent (0 = uniform).
	ZipfS float64
}

// The request mix: readPct % reads, transferPct % transfers, and the
// remainder range scans of scanLen consecutive accounts.
const (
	readPct     = 50
	transferPct = 40
	scanLen     = 8
)

// Bank is the service's data structure: accounts in the existing
// transactional hashtable, every key 0..Keys-1 mapped to a balance. It
// implements workloads.DataStructure — an Op derives its entire behaviour
// (class, keys, amount) from the per-op Rand — so committed-op logs replay
// through the sequential oracle exactly like every other workload.
type Bank struct {
	cfg  BankConfig
	ht   *workloads.Hashtable
	zipf *Zipf
}

var (
	_ workloads.DataStructure    = (*Bank)(nil)
	_ workloads.Lookuper         = (*Bank)(nil)
	_ workloads.InvariantChecker = (*Bank)(nil)
)

// NewBank allocates the backing hashtable in m. The Zipf table depends
// only on cfg, so an oracle rebuild with the same config decodes ops
// identically.
func NewBank(m *mem.Memory, cfg BankConfig) *Bank {
	if cfg.Keys == 0 {
		panic("service: bank with zero accounts")
	}
	if cfg.Keys < 2 {
		// A transfer needs a distinct counterparty: decode draws it with
		// Intn(Keys-1), which is Intn(0) — a division by zero — when only
		// one account exists. Reject the configuration up front.
		panic(fmt.Sprintf("service: %d account cannot host transfers; need Keys >= 2", cfg.Keys))
	}
	if cfg.Slots <= cfg.Keys {
		panic(fmt.Sprintf("service: %d slots cannot hold %d accounts with headroom", cfg.Slots, cfg.Keys))
	}
	return &Bank{cfg: cfg, ht: workloads.NewHashtable(m, cfg.Slots), zipf: NewZipf(cfg.Keys, cfg.ZipfS)}
}

// Name identifies the workload.
func (b *Bank) Name() string { return "bank" }

// KeySpace returns the number of accounts.
func (b *Bank) KeySpace() uint64 { return b.cfg.Keys }

// Populate opens every account with InitialBalance. Deterministic — the
// Rand is unused — so a fresh oracle memory populated with any seed
// matches the run's starting state.
func (b *Bank) Populate(m *mem.Memory, r *workloads.Rand) {
	d := workloads.Direct{M: m}
	for k := uint64(0); k < b.cfg.Keys; k++ {
		if _, err := b.ht.Insert(d, k, InitialBalance); err != nil {
			panic(fmt.Sprintf("service: populate: %v", err))
		}
	}
}

// Lookup returns an account's balance (for Fingerprint).
func (b *Bank) Lookup(tx tm.Txn, key uint64) (uint64, bool) { return b.ht.Lookup(tx, key) }

// Request classes.
type opClass int

const (
	// ClassRead looks up one account's balance.
	ClassRead opClass = iota
	// ClassTransfer moves an amount between two distinct accounts.
	ClassTransfer
	// ClassScan reads scanLen consecutive accounts (a statement run).
	ClassScan
)

// decode derives one request entirely from the per-op Rand — the single
// source of truth shared by execution, the admission controller's key
// preview and the sequential-oracle replay. The primary key is always a
// Zipf draw; a transfer's counterparty is uniform over the other accounts.
func (b *Bank) decode(r *workloads.Rand) (class opClass, key, key2, amount uint64) {
	c := r.Intn(100)
	key = b.zipf.Next(r)
	switch {
	case c < readPct:
		class = ClassRead
	case c < readPct+transferPct:
		class = ClassTransfer
		key2 = (key + 1 + r.Intn(b.cfg.Keys-1)) % b.cfg.Keys
		amount = 1 + r.Intn(64)
	default:
		class = ClassScan
	}
	return
}

// Classify previews the request a seed encodes without executing it: its
// primary key and whether it writes. The admission controller consults it
// before the transaction begins.
func (b *Bank) Classify(opSeed uint64) (key uint64, writes bool) {
	k, class := b.classify(opSeed)
	return k, class == ClassTransfer
}

// classify is Classify with the full request class, for the degradation
// ladder's class-aware shedding.
func (b *Bank) classify(opSeed uint64) (key uint64, class opClass) {
	class, k, _, _ := b.decode(workloads.NewRand(opSeed))
	return k, class
}

// Op performs one request inside the caller's transaction. The update
// flag is ignored: the class is decoded from the Rand so replays cannot
// drift from the live run.
func (b *Bank) Op(tx tm.Txn, r *workloads.Rand, update bool) error {
	class, key, key2, amount := b.decode(r)
	switch class {
	case ClassRead:
		if _, ok := b.ht.Lookup(tx, key); !ok {
			return fmt.Errorf("bank: account %d missing", key)
		}
	case ClassTransfer:
		from, okA := b.ht.Lookup(tx, key)
		to, okB := b.ht.Lookup(tx, key2)
		if !okA || !okB {
			return fmt.Errorf("bank: transfer %d→%d on missing account", key, key2)
		}
		// Transfers are unconditional — an overdraft wraps the balance
		// modulo 2^64 rather than declining. A state-dependent decline
		// would make the write decision depend on read state, and on the
		// native backend a read-only outcome can tie stamps with the writer
		// it observed, letting the oracle replay the decision differently.
		// Unconditional transfers keep every writer's write set
		// seed-determined; conservation holds in modular arithmetic.
		if _, err := b.ht.Insert(tx, key, from-amount); err != nil {
			return err
		}
		if _, err := b.ht.Insert(tx, key2, to+amount); err != nil {
			return err
		}
	case ClassScan:
		for i := 0; i < scanLen; i++ {
			k := (key + uint64(i)) % b.cfg.Keys
			if _, ok := b.ht.Lookup(tx, k); !ok {
				return fmt.Errorf("bank: account %d missing in scan", k)
			}
		}
	}
	return nil
}

// WarmupOp is a read-only request (lookup or scan, never a transfer) for
// the pre-measurement warmup phase: caches and the probe paths warm up
// without mutating balances, so the measured phase's committed-op log is
// the complete mutation history the oracle replays.
func (b *Bank) WarmupOp(tx tm.Txn, r *workloads.Rand) error {
	key := b.zipf.Next(r)
	if r.Percent(50) {
		if _, ok := b.ht.Lookup(tx, key); !ok {
			return fmt.Errorf("bank: account %d missing", key)
		}
		return nil
	}
	for i := 0; i < scanLen; i++ {
		if _, ok := b.ht.Lookup(tx, (key+uint64(i))%b.cfg.Keys); !ok {
			return fmt.Errorf("bank: account %d missing in scan", key+uint64(i))
		}
	}
	return nil
}

// CheckInvariants verifies the backing table's probe-chain invariants,
// that every account exists, and that transfers conserved the total
// balance (in modular uint64 arithmetic, matching the unconditional
// transfer semantics).
func (b *Bank) CheckInvariants(m *mem.Memory) error {
	if err := b.ht.CheckInvariants(m); err != nil {
		return err
	}
	d := workloads.Direct{M: m}
	var total uint64
	for k := uint64(0); k < b.cfg.Keys; k++ {
		v, ok := b.ht.Lookup(d, k)
		if !ok {
			return fmt.Errorf("bank: account %d vanished", k)
		}
		total += v
	}
	if want := b.cfg.Keys * InitialBalance; total != want {
		return fmt.Errorf("bank: total balance %d, want %d (conservation violated)", total, want)
	}
	return nil
}
