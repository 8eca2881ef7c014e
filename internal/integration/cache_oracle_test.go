// Oracle tests for the simulator's scanned caches. Each production structure
// — tlb.L1 (with its last-hit memo), tlb.L2, ptw.PWC, pmpt.WalkerCache — is
// driven in lockstep with an independent model through its public methods
// over seeded op sequences, a small key space, and capacities 0, 1, 2, 8 and
// 32. After every op the hit/miss outcome, the returned entry or value, and
// (for the TLBs) the hit/miss counters must agree. The models are plain maps
// with full scans; they share no code with the structures they check, and
// they are the L1 memo's standing reference.
package integration

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"hpmp/internal/addr"
	"hpmp/internal/perm"
	"hpmp/internal/pmpt"
	"hpmp/internal/ptw"
	"hpmp/internal/tlb"
)

var oracleCapacities = []int{0, 1, 2, 8, 32}

// lruModel is a fully associative, true-LRU store of cap keys: a map from
// key to value and last-use time. A fill into a full store evicts the key
// used longest ago.
type lruModel[V any] struct {
	cap          int
	clock        uint64
	slots        map[uint64]lruSlot[V]
	hits, misses uint64
}

type lruSlot[V any] struct {
	val  V
	used uint64
}

func newLRUModel[V any](capacity int) *lruModel[V] {
	return &lruModel[V]{cap: capacity, slots: make(map[uint64]lruSlot[V])}
}

func (m *lruModel[V]) lookup(key uint64) (V, bool) {
	s, ok := m.slots[key]
	if !ok {
		m.misses++
		var zero V
		return zero, false
	}
	m.hits++
	m.clock++
	s.used = m.clock
	m.slots[key] = s
	return s.val, true
}

func (m *lruModel[V]) insert(key uint64, val V) {
	if m.cap == 0 {
		return
	}
	m.clock++
	if _, ok := m.slots[key]; !ok && len(m.slots) == m.cap {
		victim, oldest := uint64(0), uint64(math.MaxUint64)
		for k, s := range m.slots {
			if s.used < oldest {
				victim, oldest = k, s.used
			}
		}
		delete(m.slots, victim)
	}
	m.slots[key] = lruSlot[V]{val: val, used: m.clock}
}

func (m *lruModel[V]) remove(key uint64) { delete(m.slots, key) }

func (m *lruModel[V]) clear() { clear(m.slots) }

// directModel is a direct-mapped store of n slots indexed by key mod n. A
// zero-slot store holds nothing and counts no probes (there is no structure
// to probe).
type directModel struct {
	n            uint64
	slots        map[uint64]tlb.Entry
	hits, misses uint64
}

func (m *directModel) lookup(vpn uint64) (tlb.Entry, bool) {
	if m.n == 0 {
		return tlb.Entry{}, false
	}
	e, ok := m.slots[vpn%m.n]
	if !ok || e.VPN != vpn {
		m.misses++
		return tlb.Entry{}, false
	}
	m.hits++
	return e, true
}

func (m *directModel) insert(e tlb.Entry) {
	if m.n != 0 {
		m.slots[e.VPN%m.n] = e
	}
}

func (m *directModel) remove(vpn uint64) {
	if m.n == 0 {
		return
	}
	if e, ok := m.slots[vpn%m.n]; ok && e.VPN == vpn {
		delete(m.slots, vpn%m.n)
	}
}

// oracleOp is one step of a seeded op sequence over a small key space.
type oracleOp struct {
	kind int // opLookup, opInsert, opFlushKey, opFlushAll
	key  uint64
	val  uint64
}

const (
	opLookup = iota
	opInsert
	opFlushKey
	opFlushAll
)

// oracleOps generates n ops. Lookups re-probe the previous key a third of
// the time, so same-key streaks (the memo's case) interleave with fills
// that evict the memoized slot. withFlushKey selects whether single-key
// flushes are part of the structure's interface.
func oracleOps(seed uint64, capacity, n int, withFlushKey bool) []oracleOp {
	rng := rand.New(rand.NewPCG(seed, uint64(capacity)))
	keys := uint64(2*capacity + 4)
	ops := make([]oracleOp, n)
	last := uint64(0)
	for i := range ops {
		key := rng.Uint64N(keys)
		r := rng.IntN(100)
		switch {
		case r < 50:
			if rng.IntN(3) == 0 {
				key = last
			}
			ops[i] = oracleOp{kind: opLookup, key: key}
		case r < 88:
			ops[i] = oracleOp{kind: opInsert, key: key, val: rng.Uint64()}
		case r < 97 && withFlushKey:
			ops[i] = oracleOp{kind: opFlushKey, key: key}
		case r < 97:
			ops[i] = oracleOp{kind: opLookup, key: key}
		default:
			ops[i] = oracleOp{kind: opFlushAll}
		}
		last = key
	}
	return ops
}

const oracleOpsPerRun = 4000

// tlbEntryFor builds the entry an insert op fills: the VPN is the key
// spread over a realistic range, the rest derives from the op's value so a
// refill of the same VPN changes what a later hit must return.
func tlbEntryFor(op oracleOp) tlb.Entry {
	return tlb.Entry{
		VPN:      0x4_0000 + op.key*0x101,
		PFN:      op.val >> 20,
		Perm:     perm.Perm(op.val & 7),
		User:     op.val&8 != 0,
		PhysPerm: perm.Perm((op.val >> 4) & 7),
	}
}

func tlbVPN(key uint64) uint64 { return 0x4_0000 + key*0x101 }

// sameEntry compares the architectural fields of two TLB entries.
func sameEntry(a, b tlb.Entry) bool {
	return a.VPN == b.VPN && a.PFN == b.PFN && a.Perm == b.Perm && a.User == b.User && a.PhysPerm == b.PhysPerm
}

func TestOracleL1TLB(t *testing.T) {
	for _, capacity := range oracleCapacities {
		t.Run(fmt.Sprintf("cap%d", capacity), func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				l1 := tlb.NewL1("l1", capacity)
				model := newLRUModel[tlb.Entry](capacity)
				for i, op := range oracleOps(seed, capacity, oracleOpsPerRun, true) {
					vpn := tlbVPN(op.key)
					switch op.kind {
					case opLookup:
						got, gotOK := l1.Lookup(vpn)
						want, wantOK := model.lookup(vpn)
						if gotOK != wantOK || (gotOK && !sameEntry(*got, want)) {
							t.Fatalf("seed %d op %d Lookup(%#x): got %v %+v, model %v %+v", seed, i, vpn, gotOK, got, wantOK, want)
						}
					case opInsert:
						e := tlbEntryFor(op)
						l1.Insert(e)
						model.insert(vpn, e)
					case opFlushKey:
						l1.FlushVPN(vpn)
						model.remove(vpn)
					case opFlushAll:
						l1.FlushAll()
						model.clear()
					}
					if h, m := l1.Counters.Get("l1.hit"), l1.Counters.Get("l1.miss"); h != model.hits || m != model.misses {
						t.Fatalf("seed %d op %d: counters hit=%d miss=%d, model %d/%d", seed, i, h, m, model.hits, model.misses)
					}
				}
				if capacity > 0 && model.hits == 0 {
					t.Fatalf("seed %d: sequence never hit", seed)
				}
			}
		})
	}
}

func TestOracleL2TLB(t *testing.T) {
	for _, capacity := range oracleCapacities {
		t.Run(fmt.Sprintf("cap%d", capacity), func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				l2 := tlb.NewL2("l2", capacity, 4)
				model := &directModel{n: uint64(capacity), slots: make(map[uint64]tlb.Entry)}
				for i, op := range oracleOps(seed, capacity, oracleOpsPerRun, true) {
					vpn := tlbVPN(op.key)
					switch op.kind {
					case opLookup:
						got, gotOK := l2.Lookup(vpn)
						want, wantOK := model.lookup(vpn)
						if gotOK != wantOK || (gotOK && !sameEntry(*got, want)) {
							t.Fatalf("seed %d op %d Lookup(%#x): got %v %+v, model %v %+v", seed, i, vpn, gotOK, got, wantOK, want)
						}
					case opInsert:
						e := tlbEntryFor(op)
						l2.Insert(e)
						model.insert(e)
					case opFlushKey:
						l2.FlushVPN(vpn)
						model.remove(vpn)
					case opFlushAll:
						l2.FlushAll()
						clear(model.slots)
					}
					if h, m := l2.Counters.Get("l2.hit"), l2.Counters.Get("l2.miss"); h != model.hits || m != model.misses {
						t.Fatalf("seed %d op %d: counters hit=%d miss=%d, model %d/%d", seed, i, h, m, model.hits, model.misses)
					}
				}
				if capacity > 0 && model.hits == 0 {
					t.Fatalf("seed %d: sequence never hit", seed)
				}
			}
		})
	}
}

// pteCache is the interface ptw.PWC and pmpt.WalkerCache share.
type pteCache interface {
	Lookup(pa addr.PA) (uint64, bool)
	Insert(pa addr.PA, val uint64)
	Invalidate()
}

// checkPTECache drives c and an LRU model with the same sequence. The
// caches keep no counters of their own, so hit/miss and the value are the
// whole observable.
func checkPTECache(t *testing.T, newCache func(capacity int) pteCache) {
	for _, capacity := range oracleCapacities {
		t.Run(fmt.Sprintf("cap%d", capacity), func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				c := newCache(capacity)
				model := newLRUModel[uint64](capacity)
				for i, op := range oracleOps(seed, capacity, oracleOpsPerRun, false) {
					pa := addr.PA(0x8000_0000 + op.key*8)
					switch op.kind {
					case opLookup:
						got, gotOK := c.Lookup(pa)
						want, wantOK := model.lookup(uint64(pa))
						if gotOK != wantOK || got != want {
							t.Fatalf("seed %d op %d Lookup(%v): got %#x %v, model %#x %v", seed, i, pa, got, gotOK, want, wantOK)
						}
					case opInsert:
						c.Insert(pa, op.val)
						model.insert(uint64(pa), op.val)
					case opFlushAll:
						c.Invalidate()
						model.clear()
					}
				}
				if capacity > 0 && model.hits == 0 {
					t.Fatalf("seed %d: sequence never hit", seed)
				}
			}
		})
	}
}

func TestOraclePWC(t *testing.T) {
	checkPTECache(t, func(n int) pteCache { return ptw.NewPWC(n) })
}

func TestOracleWalkerCache(t *testing.T) {
	checkPTECache(t, func(n int) pteCache {
		c := pmpt.NewWalkerCache(n)
		c.Enabled = true
		return c
	})
}
