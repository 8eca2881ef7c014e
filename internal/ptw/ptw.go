// Package ptw implements the hardware page-table walker (PTW) with its page
// walk cache (PWC, "PTECache" in Table 1). On every PTE fetch that misses
// the PWC, the walker first validates the PT page's physical address through
// the attached physical-memory checker — this is precisely the "extra
// dimension" the paper measures: with a permission table, each of the three
// Sv39 PT-page references costs two additional pmpte references (Fig. 2-c),
// while HPMP's segment mode validates them for free (Fig. 4).
package ptw

import (
	"fmt"

	"hpmp/internal/addr"
	"hpmp/internal/hpmp"
	"hpmp/internal/memport"
	"hpmp/internal/obs"
	"hpmp/internal/perm"
	"hpmp/internal/pt"
	"hpmp/internal/stats"
)

// Checker validates physical addresses; *hpmp.Checker implements it. A nil
// checker means physical memory isolation is disabled (Fig. 2-a).
type Checker interface {
	Check(pa addr.PA, size uint64, k perm.Access, priv perm.Priv, now uint64) (hpmp.Result, error)
}

// Result reports one hardware walk.
type Result struct {
	Translation pt.Translation
	PageFault   bool // invalid/missing mapping (kernel must handle)
	AccessFault bool // a PT-page reference failed the physical checker
	FaultLevel  int  // level at which the walk stopped

	Latency     uint64 // total core cycles: PTE fetches + PT-page checks
	PTRefs      int    // PTE fetches that reached the memory system
	PTCheckRefs int    // permission-table references spent validating PT pages
	PWCHits     int    // PTE fetches served by the PWC
}

// TotalRefs returns all memory references the walk performed.
func (r Result) TotalRefs() int { return r.PTRefs + r.PTCheckRefs }

// Walker is the PTW attached to one hart.
type Walker struct {
	Mode    addr.Mode
	Port    memport.Port
	Checker Checker // may be nil
	PWC     *PWC    // may be nil
	// Priv is the privilege the walker's own PT accesses are checked at.
	// Page tables are kernel data structures, so S.
	Priv perm.Priv

	// Trace, when set, receives one obs.KindPTEFetch event per PTE lookup
	// (walk level, PWC outcome, fetch cost). Nil costs one pointer compare
	// per level — the PWC-hit zero-alloc pin covers it.
	Trace *obs.Tracer

	// Hot-path counter handles, resolved once in New.
	hPWCHit, hPTEFetch, hWalkOK, hPageFault, hAccessFault *uint64

	// Hist is the native-walk latency histogram ("ptw.walk_latency" in
	// metrics snapshots): one observation per completed walk, faulted or
	// not. Allocated once in New and written in place, so recording stays
	// allocation-free (TestPTWWalkPWCHitZeroAllocs pins it).
	Hist *stats.Histogram

	Counters stats.Counters
}

// New builds a walker for the given translation mode with an n-entry PWC
// (n=0 disables the PWC).
func New(mode addr.Mode, port memport.Port, checker Checker, pwcEntries int) *Walker {
	w := &Walker{Mode: mode, Port: port, Checker: checker, Priv: perm.S,
		Hist: stats.DefaultLatencyHistogram()}
	if pwcEntries > 0 {
		w.PWC = NewPWC(pwcEntries)
	}
	w.hPWCHit = w.Counters.Handle("ptw.pwc_hit")
	w.hPTEFetch = w.Counters.Handle("ptw.pte_fetch")
	w.hWalkOK = w.Counters.Handle("ptw.walk_ok")
	w.hPageFault = w.Counters.Handle("ptw.page_fault")
	w.hAccessFault = w.Counters.Handle("ptw.access_fault")
	return w
}

// traceFetch emits one KindPTEFetch event. It lives outside the walk loop
// so the event construction never competes for registers with the untraced
// case; the prev* values are the counters captured before the fetch, so the
// event carries per-fetch deltas.
func (w *Walker) traceFetch(va addr.VA, pteAddr addr.PA, level int, hit bool, res *Result, prevLat uint64, prevPT, prevChk int) {
	ev := obs.Event{
		Kind:    obs.KindPTEFetch,
		Access:  perm.Read,
		VA:      va,
		PA:      pteAddr,
		Level:   int8(level),
		Hit:     hit,
		Refs:    uint16(res.PTRefs - prevPT + res.PTCheckRefs - prevChk),
		ChkRefs: uint16(res.PTCheckRefs - prevChk),
		Cycles:  res.Latency - prevLat,
	}
	if res.AccessFault {
		ev.Fault = obs.FaultAccess
	}
	w.Trace.Emit(ev)
}

// leafTranslation maps a leaf PTE at the given level onto the translated
// address; superpage leaves align the frame to the superpage boundary.
func leafTranslation(e pt.PTE, va addr.VA, level int) pt.Translation {
	if level != 0 {
		span := uint64(1) << (addr.PageShift + 9*level)
		frameBase := uint64(e.Target()) &^ (span - 1)
		off := uint64(va) & (span - 1) &^ uint64(addr.PageMask)
		return pt.Translation{
			PA:   addr.PA(frameBase+off) + addr.PA(va.Offset()),
			Perm: e.Perm(),
			User: e.User(),
		}
	}
	return pt.Translation{
		PA:   e.Target() + addr.PA(va.Offset()),
		Perm: e.Perm(),
		User: e.User(),
	}
}

// Walk translates va starting from the page table rooted at root, issuing
// memory references at core-cycle now.
func (w *Walker) Walk(root addr.PA, va addr.VA, now uint64) (Result, error) {
	var res Result
	err := w.WalkInto(root, va, now, &res)
	return res, err
}

// WalkInto is Walk writing into a caller-provided Result. The MMU's access
// path uses it to build the walk sub-result in place inside mmu.Result —
// returning the 64-byte struct by value through Walk costs a duffcopy per
// TLB miss that this form avoids. *out is reset before the walk.
func (w *Walker) WalkInto(root addr.PA, va addr.VA, now uint64, out *Result) error {
	*out = Result{}
	err := w.walk(root, va, now, out)
	if err == nil && w.Hist != nil {
		w.Hist.Observe(out.Latency)
	}
	return err
}

// WalkBookkeeping is WalkInto minus the walk-latency histogram observation.
// Software-initiated translations (mmu.Translate: monitor and kernel
// bookkeeping) run at now=0 outside any timed instruction stream; recording
// them would pollute ptw.walk_latency with time-zero samples that no
// hardware walk produced. Walk counters (ptw.walk_ok, ptw.pte_fetch, ...)
// still advance — the references are real — only the latency distribution
// is reserved for hardware-initiated walks.
func (w *Walker) WalkBookkeeping(root addr.PA, va addr.VA, now uint64, out *Result) error {
	*out = Result{}
	return w.walk(root, va, now, out)
}

// walk is the walk loop. With a tracer attached it emits one KindPTEFetch
// event per PTE lookup; without one the trace costs a pointer compare per
// level (BenchmarkPTWWalkPWCHit pins the budget).
func (w *Walker) walk(root addr.PA, va addr.VA, now uint64, res *Result) error {
	if !w.Mode.Canonical(va) {
		res.PageFault = true
		res.FaultLevel = w.Mode.Levels() - 1
		*w.hPageFault++
		return nil
	}
	base := root
	for level := w.Mode.Levels() - 1; level >= 0; level-- {
		pteAddr := base + addr.PA(w.Mode.VPN(va, level)*8)
		prevLat, prevPT, prevChk := res.Latency, res.PTRefs, res.PTCheckRefs
		raw, hit, err := w.fetchPTE(pteAddr, now, res)
		if err != nil {
			return err
		}
		if w.Trace != nil {
			w.traceFetch(va, pteAddr, level, hit, res, prevLat, prevPT, prevChk)
		}
		if !hit && res.AccessFault {
			res.FaultLevel = level
			*w.hAccessFault++
			return nil
		}
		e := pt.PTE(raw)
		if !e.Valid() {
			res.PageFault = true
			res.FaultLevel = level
			*w.hPageFault++
			return nil
		}
		if e.Leaf() {
			res.Translation = leafTranslation(e, va, level)
			*w.hWalkOK++
			return nil
		}
		if level == 0 {
			// A pointer entry where only leaves are legal: malformed table.
			res.PageFault = true
			res.FaultLevel = 0
			*w.hPageFault++
			return nil
		}
		base = e.Target()
	}
	return fmt.Errorf("ptw: walk fell through for %v", va)
}

// fetchPTE returns the PTE word at pteAddr. PWC hits cost nothing and skip
// the physical check (the entry was validated at fill time). On a PWC miss
// the PT-page address is validated through the checker before the fetch;
// res.AccessFault is set when the check denies.
func (w *Walker) fetchPTE(pteAddr addr.PA, now uint64, res *Result) (raw uint64, pwcHit bool, err error) {
	if w.PWC != nil {
		if v, ok := w.PWC.Lookup(pteAddr); ok {
			res.PWCHits++
			*w.hPWCHit++
			return v, true, nil
		}
	}
	if w.Checker != nil {
		chk, err := w.Checker.Check(pteAddr, 8, perm.Read, w.Priv, now+res.Latency)
		if err != nil {
			return 0, false, err
		}
		res.Latency += chk.Latency
		res.PTCheckRefs += chk.MemRefs
		if !chk.Allowed {
			res.AccessFault = true
			return 0, false, nil
		}
	}
	v, lat, err := w.Port.Read64(pteAddr, now+res.Latency)
	if err != nil {
		return 0, false, err
	}
	res.Latency += lat
	res.PTRefs++
	*w.hPTEFetch++
	// Only valid entries are cached — a PWC never caches faults, or a
	// later mapping of the page would be invisible until a flush.
	if w.PWC != nil && pt.PTE(v).Valid() {
		w.PWC.Insert(pteAddr, v)
	}
	return v, false, nil
}

// FlushPWC empties the page walk cache (sfence.vma side effect).
func (w *Walker) FlushPWC() {
	if w.PWC != nil {
		w.PWC.Invalidate()
	}
}

// PWC is the page walk cache: a small fully-associative LRU cache of PTE
// words keyed by PTE physical address. Table 1's "PTECache" is 8 entries;
// Fig. 17 grows it to 32. A zero-capacity PWC is legal and stores nothing.
type PWC struct {
	entries []pwcEntry
	tick    uint64
}

type pwcEntry struct {
	pa   addr.PA
	val  uint64
	lru  uint64
	used bool
}

// NewPWC builds a PWC with n entries.
func NewPWC(n int) *PWC { return &PWC{entries: make([]pwcEntry, n)} }

// Len returns the capacity.
func (c *PWC) Len() int { return len(c.entries) }

// Lookup probes for the PTE at pa, updating LRU on a hit.
func (c *PWC) Lookup(pa addr.PA) (uint64, bool) {
	for i := range c.entries {
		e := &c.entries[i]
		if e.used && e.pa == pa {
			c.tick++
			e.lru = c.tick
			return e.val, true
		}
	}
	return 0, false
}

// Insert adds or refreshes the PTE at pa, evicting true-LRU. One pass
// finds the duplicate, the first free slot, and the LRU victim together;
// a duplicate always wins over placement, so a second copy of pa can
// never be stored. A zero-capacity cache no-ops.
func (c *PWC) Insert(pa addr.PA, val uint64) {
	if len(c.entries) == 0 {
		return
	}
	c.tick++
	free, victim := -1, -1
	for i := range c.entries {
		e := &c.entries[i]
		if !e.used {
			if free < 0 {
				free = i
			}
			continue
		}
		if e.pa == pa {
			e.val, e.lru = val, c.tick
			return
		}
		if victim < 0 || e.lru < c.entries[victim].lru {
			victim = i
		}
	}
	slot := free
	if slot < 0 {
		slot = victim
	}
	c.entries[slot] = pwcEntry{pa: pa, val: val, lru: c.tick, used: true}
}

// Invalidate clears the cache.
func (c *PWC) Invalidate() {
	for i := range c.entries {
		c.entries[i] = pwcEntry{}
	}
}

// Warm inserts a PTE without statistics, for Table 2 state priming.
func (c *PWC) Warm(pa addr.PA, val uint64) { c.Insert(pa, val) }
