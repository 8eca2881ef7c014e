// Package tlb models the translation lookaside buffers of Table 1: 32-entry
// fully-associative L1 I/D TLBs and a 1024-entry direct-mapped L2 TLB.
//
// Entries implement the paper's "TLB inlining" optimization (§2.2): when the
// MMU fills a translation it also stores the physical-memory permission
// obtained from the HPMP/PMP-Table check, so a TLB hit requires no checker
// access at all — "the permission table is only required for TLB miss
// cases". Both the baselines and HPMP get this optimization, as in the
// paper's implementation (§7).
//
// The L1 additionally keeps a one-entry last-hit memo in front of the
// associative search (same-page access streaks are the common case, so the
// memo hits far more often than it misses). The memo is a pure
// simulator-speed device: the slot is revalidated (valid bit + VPN match)
// before use, and a memo hit makes the same LRU update and hit-counter bump
// the full search would, so the modeled hardware is bit-for-bit unaffected.
// The full-scan model in internal/integration (cache_oracle_test.go) is its
// standing reference. Counters are bumped through pre-resolved handles
// (stats.Counters.Handle).
package tlb

import (
	"hpmp/internal/addr"
	"hpmp/internal/perm"
	"hpmp/internal/stats"
)

// Entry is one cached translation.
type Entry struct {
	VPN  uint64    // virtual page number
	PFN  uint64    // physical frame number
	Perm perm.Perm // page-table permission (R/W/X of the leaf PTE)
	User bool      // PTE U bit
	// PhysPerm is the inlined physical-memory-isolation permission fetched
	// from HPMP at fill time.
	PhysPerm perm.Perm
	valid    bool
	lru      uint64
}

// L1 is a fully-associative TLB with true-LRU replacement.
type L1 struct {
	entries []Entry
	tick    uint64
	// memo is the index of the slot the last hit came from, or -1. It is
	// only a hint: the entry is revalidated (valid bit + VPN match) before
	// use, so it never needs clearing for correctness; the flushes reset it
	// anyway.
	memo int

	hHit, hMiss *uint64

	Counters stats.Counters
}

// NewL1 builds a fully-associative TLB with n entries.
func NewL1(name string, n int) *L1 {
	t := &L1{entries: make([]Entry, n), memo: -1}
	t.hHit = t.Counters.Handle(name + ".hit")
	t.hMiss = t.Counters.Handle(name + ".miss")
	return t
}

// Lookup returns the entry translating vpn. The returned pointer aliases
// the TLB's backing store — callers must treat it as read-only and must not
// hold it across an Insert or Flush (the MMU copies what it needs before
// filling). Returning a pointer instead of an Entry value keeps the 48-byte
// struct copy off the L1-hit path, the simulator's hottest.
func (t *L1) Lookup(vpn uint64) (*Entry, bool) {
	if i := t.memo; i >= 0 {
		e := &t.entries[i]
		if e.valid && e.VPN == vpn {
			// Memo hit: VPNs are unique among valid entries, so this is
			// exactly the entry the full search would return; the LRU and
			// counter updates below are the same ones it would make.
			t.tick++
			e.lru = t.tick
			*t.hHit++
			return e, true
		}
	}
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.VPN == vpn {
			t.tick++
			e.lru = t.tick
			t.memo = i
			*t.hHit++
			return e, true
		}
	}
	*t.hMiss++
	return nil, false
}

// Insert fills an entry, evicting true-LRU. One pass finds the duplicate,
// the first free slot, and the LRU victim together (same scan as
// PWC.Insert / WalkerCache.Insert); a zero-capacity TLB no-ops.
func (t *L1) Insert(e Entry) {
	if len(t.entries) == 0 {
		return
	}
	t.tick++
	e.valid = true
	e.lru = t.tick
	free, victim := -1, -1
	for i := range t.entries {
		cur := &t.entries[i]
		if !cur.valid {
			if free < 0 {
				free = i
			}
			continue
		}
		if cur.VPN == e.VPN {
			*cur = e
			return
		}
		if victim < 0 || cur.lru < t.entries[victim].lru {
			victim = i
		}
	}
	slot := free
	if slot < 0 {
		slot = victim
	}
	t.entries[slot] = e
}

// FlushAll invalidates every entry (sfence.vma with no arguments, and the
// monitor's mandatory flush after HPMP updates, §5).
func (t *L1) FlushAll() {
	for i := range t.entries {
		t.entries[i] = Entry{}
	}
	t.memo = -1
}

// FlushVPN invalidates the entry for one page (sfence.vma with an address).
func (t *L1) FlushVPN(vpn uint64) {
	for i := range t.entries {
		if t.entries[i].valid && t.entries[i].VPN == vpn {
			t.entries[i] = Entry{}
		}
	}
	t.memo = -1
}

// Len returns the capacity.
func (t *L1) Len() int { return len(t.entries) }

// L2 is a direct-mapped second-level TLB.
type L2 struct {
	entries []Entry
	Latency uint64 // extra cycles to consult the L2 TLB

	hHit, hMiss *uint64

	Counters stats.Counters
}

// NewL2 builds a direct-mapped TLB with n entries (n must be a power of
// two) and the given access latency. n = 0 is legal and models a machine
// without a second TLB level: the structure stores nothing, and the MMU
// skips the probe (and its latency charge) entirely.
func NewL2(name string, n int, latency uint64) *L2 {
	if n != 0 && !addr.IsPow2(uint64(n)) {
		panic("tlb: L2 size must be a power of two")
	}
	t := &L2{entries: make([]Entry, n), Latency: latency}
	t.hHit = t.Counters.Handle(name + ".hit")
	t.hMiss = t.Counters.Handle(name + ".miss")
	return t
}

func (t *L2) slot(vpn uint64) *Entry { return &t.entries[vpn%uint64(len(t.entries))] }

// Lookup probes the direct-mapped array. As with L1.Lookup, the returned
// pointer aliases the slot and is read-only for the caller. A zero-capacity
// L2 misses without bumping counters: an absent structure performs no probe,
// and the MMU never calls Lookup on one — the guard here keeps a direct
// caller from dividing by zero in slot().
func (t *L2) Lookup(vpn uint64) (*Entry, bool) {
	if len(t.entries) == 0 {
		return nil, false
	}
	e := t.slot(vpn)
	if e.valid && e.VPN == vpn {
		*t.hHit++
		return e, true
	}
	*t.hMiss++
	return nil, false
}

// Insert fills the slot for e.VPN (direct-mapped: unconditional replace).
// A zero-capacity L2 no-ops, like L1.Insert.
func (t *L2) Insert(e Entry) {
	if len(t.entries) == 0 {
		return
	}
	e.valid = true
	*t.slot(e.VPN) = e
}

// FlushAll invalidates every entry.
func (t *L2) FlushAll() {
	for i := range t.entries {
		t.entries[i] = Entry{}
	}
}

// FlushVPN invalidates the slot if it holds vpn.
func (t *L2) FlushVPN(vpn uint64) {
	if len(t.entries) == 0 {
		return
	}
	e := t.slot(vpn)
	if e.valid && e.VPN == vpn {
		*e = Entry{}
	}
}

// Len returns the capacity.
func (t *L2) Len() int { return len(t.entries) }
