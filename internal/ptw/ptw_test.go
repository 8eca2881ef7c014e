package ptw

import (
	"testing"

	"hpmp/internal/addr"
	"hpmp/internal/hpmp"
	"hpmp/internal/memport"
	"hpmp/internal/perm"
	"hpmp/internal/phys"
	"hpmp/internal/pmpt"
	"hpmp/internal/pt"
)

type env struct {
	mem   *phys.Memory
	alloc *phys.FrameAllocator
	tbl   *pt.Table
	port  memport.Port
}

func newEnv(t *testing.T) *env {
	t.Helper()
	mem := phys.New(512 * addr.MiB)
	// PT pages contiguous at 0x100000 — the HPMP "fast GMS" layout.
	ptAlloc := phys.NewFrameAllocator(addr.Range{Base: 0x40_0000, Size: 4 * addr.MiB}, false)
	tbl, err := pt.New(mem, ptAlloc, addr.Sv39)
	if err != nil {
		t.Fatal(err)
	}
	return &env{mem: mem, alloc: ptAlloc, tbl: tbl, port: &memport.Flat{Mem: mem, Latency: 10}}
}

func TestWalkMatchesOracle(t *testing.T) {
	e := newEnv(t)
	va, pa := addr.VA(0x4000_0000), addr.PA(0x800_0000)
	if err := e.tbl.Map(va, pa, perm.RW, true); err != nil {
		t.Fatal(err)
	}
	w := New(addr.Sv39, e.port, nil, 0)
	res, err := w.Walk(e.tbl.Root(), va+0x42, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.PageFault || res.AccessFault {
		t.Fatalf("unexpected fault: %+v", res)
	}
	want, _ := e.tbl.TranslateSW(va + 0x42)
	if res.Translation != want {
		t.Errorf("walk = %+v, oracle = %+v", res.Translation, want)
	}
	// Fig. 2-a: Sv39 walk with no isolation = 3 PT references, 0 checks.
	if res.PTRefs != 3 || res.PTCheckRefs != 0 {
		t.Errorf("refs = %d/%d, want 3/0", res.PTRefs, res.PTCheckRefs)
	}
	if res.Latency != 30 {
		t.Errorf("latency = %d, want 30 (3 × 10)", res.Latency)
	}
}

func TestPageFault(t *testing.T) {
	e := newEnv(t)
	w := New(addr.Sv39, e.port, nil, 0)
	res, err := w.Walk(e.tbl.Root(), 0x5000_0000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PageFault || res.FaultLevel != 2 {
		t.Errorf("cold walk should fault at root: %+v", res)
	}
	// Non-canonical VA also faults.
	res, _ = w.Walk(e.tbl.Root(), addr.VA(0x40_0000_0000), 0)
	if !res.PageFault {
		t.Error("non-canonical VA must page fault")
	}
}

func TestPWCSkipsLevels(t *testing.T) {
	e := newEnv(t)
	va := addr.VA(0x4000_0000)
	e.tbl.Map(va, 0x800_0000, perm.RW, true)
	e.tbl.Map(va+addr.PageSize, 0x801_0000, perm.RW, true)
	w := New(addr.Sv39, e.port, nil, 8)

	r1, _ := w.Walk(e.tbl.Root(), va, 0)
	if r1.PTRefs != 3 || r1.PWCHits != 0 {
		t.Fatalf("cold walk: %+v", r1)
	}
	// Adjacent page (TC3-style): shares L2 and L1 PTEs → 2 PWC hits, 1
	// fetch.
	r2, _ := w.Walk(e.tbl.Root(), va+addr.PageSize, 100)
	if r2.PTRefs != 1 || r2.PWCHits != 2 {
		t.Errorf("adjacent walk: refs=%d pwcHits=%d, want 1/2", r2.PTRefs, r2.PWCHits)
	}
	// Exact same page: all three PTEs cached.
	r3, _ := w.Walk(e.tbl.Root(), va, 200)
	if r3.PTRefs != 0 || r3.PWCHits != 3 {
		t.Errorf("repeat walk: refs=%d pwcHits=%d, want 0/3", r3.PTRefs, r3.PWCHits)
	}
	w.FlushPWC()
	r4, _ := w.Walk(e.tbl.Root(), va, 300)
	if r4.PTRefs != 3 {
		t.Errorf("after flush: %+v", r4)
	}
}

// buildChecker wires an HPMP checker whose table mode protects all of
// memory and returns it plus the pmpt table for permission edits.
func buildChecker(t *testing.T, e *env, region addr.Range) (*hpmp.Checker, *pmpt.Table) {
	t.Helper()
	ptbl, err := pmpt.NewTable(e.mem, e.alloc, region)
	if err != nil {
		t.Fatal(err)
	}
	chk := hpmp.New(&pmpt.Walker{Port: e.port})
	if err := chk.SetTable(1, region, ptbl.RootBase()); err != nil {
		t.Fatal(err)
	}
	return chk, ptbl
}

func TestWalkWithPermissionTable(t *testing.T) {
	// Fig. 2-c: each of the 3 PT-page references costs 2 pmpte references.
	e := newEnv(t)
	region := addr.Range{Base: 0, Size: 256 * addr.MiB}
	chk, ptbl := buildChecker(t, e, region)
	// Grant the PT region read permission in the permission table.
	if err := ptbl.SetRangePerm(addr.Range{Base: 0x40_0000, Size: 4 * addr.MiB}, perm.RW); err != nil {
		t.Fatal(err)
	}
	va := addr.VA(0x4000_0000)
	e.tbl.Map(va, 0x800_0000, perm.RW, true)

	w := New(addr.Sv39, e.port, chk, 0)
	res, err := w.Walk(e.tbl.Root(), va, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.PageFault || res.AccessFault {
		t.Fatalf("fault: %+v", res)
	}
	if res.PTRefs != 3 || res.PTCheckRefs != 6 {
		t.Errorf("refs = %d PT + %d check, want 3 + 6 (Fig. 2-c)", res.PTRefs, res.PTCheckRefs)
	}
	if res.TotalRefs() != 9 {
		t.Errorf("TotalRefs = %d, want 9", res.TotalRefs())
	}
}

func TestWalkWithSegmentProtectedPTPages(t *testing.T) {
	// Fig. 4: PT pages covered by a segment → 3 PT refs, 0 check refs.
	e := newEnv(t)
	region := addr.Range{Base: 0, Size: 256 * addr.MiB}
	chk, _ := buildChecker(t, e, region)
	// Entry 0 (higher priority than the table in entry 1): segment over the
	// contiguous PT region.
	if err := chk.SetSegment(0, addr.Range{Base: 0x40_0000, Size: 4 * addr.MiB}, perm.RW, false); err != nil {
		t.Fatal(err)
	}
	va := addr.VA(0x4000_0000)
	e.tbl.Map(va, 0x800_0000, perm.RW, true)

	w := New(addr.Sv39, e.port, chk, 0)
	res, err := w.Walk(e.tbl.Root(), va, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.PageFault || res.AccessFault {
		t.Fatalf("fault: %+v", res)
	}
	if res.PTRefs != 3 || res.PTCheckRefs != 0 {
		t.Errorf("refs = %d PT + %d check, want 3 + 0 (Fig. 4)", res.PTRefs, res.PTCheckRefs)
	}
}

func TestAccessFaultWhenPTPageDenied(t *testing.T) {
	e := newEnv(t)
	region := addr.Range{Base: 0, Size: 256 * addr.MiB}
	chk, _ := buildChecker(t, e, region)
	// Permission table left all-invalid: the root PT page check must fail.
	va := addr.VA(0x4000_0000)
	e.tbl.Map(va, 0x800_0000, perm.RW, true)

	w := New(addr.Sv39, e.port, chk, 0)
	res, err := w.Walk(e.tbl.Root(), va, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AccessFault || res.FaultLevel != 2 {
		t.Errorf("want access fault at level 2: %+v", res)
	}
	if res.PTRefs != 0 {
		t.Error("denied PTE fetch must not read memory")
	}
}

func TestSuperpageWalk(t *testing.T) {
	e := newEnv(t)
	// Hand-install a 2 MiB superpage at L1: map VA 0x4000_0000 → PA
	// 0x1000_0000 (2 MiB aligned).
	root := e.tbl.Root()
	// L2 entry → fresh L1 table.
	l1page, _ := e.alloc.Alloc()
	e.mem.ZeroPage(l1page)
	va := addr.VA(0x4000_0000)
	vpn2 := addr.Sv39.VPN(va, 2)
	e.mem.Write64(root+addr.PA(vpn2*8), uint64(pt.MakePointer(l1page)))
	vpn1 := addr.Sv39.VPN(va, 1)
	e.mem.Write64(l1page+addr.PA(vpn1*8), uint64(pt.MakeLeaf(0x1000_0000, perm.RX, false)))

	w := New(addr.Sv39, e.port, nil, 0)
	res, err := w.Walk(root, va+0x12_3456, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.PageFault {
		t.Fatalf("fault: %+v", res)
	}
	if res.Translation.PA != 0x1012_3456 {
		t.Errorf("superpage PA = %#x, want 0x10123456", uint64(res.Translation.PA))
	}
	if res.PTRefs != 2 {
		t.Errorf("superpage walk refs = %d, want 2", res.PTRefs)
	}
}

// TestPageFaultCounterNonCanonical: a non-canonical VA must both set
// PageFault and bump ptw.page_fault — the counter used to skew low here.
func TestPageFaultCounterNonCanonical(t *testing.T) {
	e := newEnv(t)
	w := New(addr.Sv39, e.port, nil, 0)
	res, err := w.Walk(e.tbl.Root(), addr.VA(0x40_0000_0000), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PageFault || res.FaultLevel != 2 {
		t.Fatalf("non-canonical VA must fault at the root level: %+v", res)
	}
	if got := w.Counters.Get("ptw.page_fault"); got != 1 {
		t.Errorf("ptw.page_fault = %d, want 1", got)
	}
}

// TestPageFaultCounterPointerAtLevel0: a level-0 entry that is valid but
// not a leaf (a pointer where only leaves are legal) must fault AND count.
func TestPageFaultCounterPointerAtLevel0(t *testing.T) {
	e := newEnv(t)
	root := e.tbl.Root()
	va := addr.VA(0x4000_0000)
	l1page, _ := e.alloc.Alloc()
	e.mem.ZeroPage(l1page)
	l0page, _ := e.alloc.Alloc()
	e.mem.ZeroPage(l0page)
	bogus, _ := e.alloc.Alloc()
	e.mem.Write64(root+addr.PA(addr.Sv39.VPN(va, 2)*8), uint64(pt.MakePointer(l1page)))
	e.mem.Write64(l1page+addr.PA(addr.Sv39.VPN(va, 1)*8), uint64(pt.MakePointer(l0page)))
	// The malformed part: the leaf-level entry is itself a pointer.
	e.mem.Write64(l0page+addr.PA(addr.Sv39.VPN(va, 0)*8), uint64(pt.MakePointer(bogus)))

	w := New(addr.Sv39, e.port, nil, 0)
	res, err := w.Walk(root, va, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PageFault || res.FaultLevel != 0 {
		t.Fatalf("pointer at level 0 must page-fault at level 0: %+v", res)
	}
	if got := w.Counters.Get("ptw.page_fault"); got != 1 {
		t.Errorf("ptw.page_fault = %d, want 1", got)
	}
}

// TestPageFaultCounterMatchesResults: across every fault shape the walker
// can produce, the counter must equal the number of PageFault results.
func TestPageFaultCounterMatchesResults(t *testing.T) {
	e := newEnv(t)
	va := addr.VA(0x4000_0000)
	e.tbl.Map(va, 0x800_0000, perm.RW, true)
	w := New(addr.Sv39, e.port, nil, 0)

	faults := 0
	for _, probe := range []addr.VA{
		va,                     // ok
		0x5000_0000,            // invalid root entry
		addr.VA(0x40_0000_000), // unmapped but canonical
		addr.VA(0x7f_ffff_f000),
	} {
		res, err := w.Walk(e.tbl.Root(), probe, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.PageFault {
			faults++
		}
	}
	// Non-canonical probes too.
	for _, probe := range []addr.VA{0x40_0000_0000, addr.VA(1) << 62} {
		res, err := w.Walk(e.tbl.Root(), probe, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.PageFault {
			t.Fatalf("probe %v should fault", probe)
		}
		faults++
	}
	if got := w.Counters.Get("ptw.page_fault"); got != uint64(faults) {
		t.Errorf("ptw.page_fault = %d, want %d (one per PageFault result)", got, faults)
	}
}

func TestPWCLRU(t *testing.T) {
	c := NewPWC(2)
	c.Insert(0x10, 1)
	c.Insert(0x20, 2)
	c.Lookup(0x10)
	c.Insert(0x30, 3) // evict 0x20
	if _, ok := c.Lookup(0x20); ok {
		t.Error("LRU victim should be gone")
	}
	if v, ok := c.Lookup(0x10); !ok || v != 1 {
		t.Error("MRU should survive")
	}
	c.Insert(0x10, 99)
	if v, _ := c.Lookup(0x10); v != 99 {
		t.Error("reinsert must update in place")
	}
}

// TestPWCEvictionOrder fills the cache, touches entries in a known order,
// and asserts that successive inserts evict exactly in LRU order.
func TestPWCEvictionOrder(t *testing.T) {
	c := NewPWC(3)
	c.Insert(0x10, 1)
	c.Insert(0x20, 2)
	c.Insert(0x30, 3)
	// Recency order (old→new): 0x10, 0x20, 0x30. Touch 0x10: now 0x20 is LRU.
	c.Lookup(0x10)
	c.Insert(0x40, 4) // evicts 0x20
	if _, ok := c.Lookup(0x20); ok {
		t.Fatal("0x20 should have been evicted first")
	}
	// Recency: 0x30, 0x10, 0x40 (lookup misses don't touch).
	c.Insert(0x50, 5) // evicts 0x30
	if _, ok := c.Lookup(0x30); ok {
		t.Fatal("0x30 should have been evicted second")
	}
	for _, pa := range []addr.PA{0x10, 0x40, 0x50} {
		if _, ok := c.Lookup(pa); !ok {
			t.Errorf("%#x should still be cached", uint64(pa))
		}
	}
}

// TestPWCDuplicateInsertRefreshes: re-inserting a present PA must refresh
// its value and recency in place — never store a second copy whose later
// eviction would resurrect a stale value.
func TestPWCDuplicateInsertRefreshes(t *testing.T) {
	c := NewPWC(2)
	c.Insert(0x10, 1)
	c.Insert(0x20, 2)
	c.Insert(0x10, 11) // refresh: 0x20 becomes LRU
	c.Insert(0x30, 3)  // must evict 0x20, not a duplicate slot of 0x10
	if _, ok := c.Lookup(0x20); ok {
		t.Fatal("0x20 should have been the eviction victim")
	}
	if v, ok := c.Lookup(0x10); !ok || v != 11 {
		t.Errorf("0x10 = %d,%v; want refreshed value 11", v, ok)
	}
	// Evict 0x10 and make sure no shadow copy with the old value remains.
	c.Lookup(0x30)
	c.Insert(0x40, 4)
	if v, ok := c.Lookup(0x10); ok {
		t.Errorf("0x10 resurrected with value %d: duplicate slot was stored", v)
	}
}

// TestPWCInvalidateClearsMemo: after a hit primes the cache, Invalidate
// must empty it — a probe of the same PA right after a flush must miss —
// and leave the slot reusable.
func TestPWCInvalidateClearsMemo(t *testing.T) {
	c := NewPWC(4)
	c.Insert(0x10, 1)
	if _, ok := c.Lookup(0x10); !ok {
		t.Fatal("prime lookup should hit")
	}
	c.Invalidate()
	if _, ok := c.Lookup(0x10); ok {
		t.Fatal("lookup after Invalidate must miss")
	}
	// And the slot is genuinely reusable.
	c.Insert(0x10, 2)
	if v, ok := c.Lookup(0x10); !ok || v != 2 {
		t.Errorf("refill = %d,%v; want 2", v, ok)
	}
}

// TestPWCZeroCapacity: a 0-entry PWC is reachable from configuration and
// must no-op on Insert/Lookup instead of panicking (entries[0] on an empty
// slice, the pre-PR-3 behaviour).
func TestPWCZeroCapacity(t *testing.T) {
	c := NewPWC(0)
	c.Insert(0x10, 1) // must not panic
	if _, ok := c.Lookup(0x10); ok {
		t.Error("zero-capacity PWC must never hit")
	}
	c.Invalidate() // must not panic
	if c.Len() != 0 {
		t.Errorf("Len = %d, want 0", c.Len())
	}
	c.Warm(0x20, 2)
	if _, ok := c.Lookup(0x20); ok {
		t.Error("zero-capacity PWC must ignore Warm")
	}
}
