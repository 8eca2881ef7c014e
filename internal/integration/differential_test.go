// Differential tests for the simulator's hot structures. Each drives a
// fixed, seeded workload through the whole stack — TLBs with the L1 last-hit
// memo, page walker and PWC, HPMP checker and PMPTW cache, cache hierarchy —
// and requires every observable (per-access Results, merged counters, cycle
// total) to match the committed expectation in testdata/differential. Those
// expectations were captured from the optimized and the reference
// implementations when both still existed and agreed byte for byte (see
// expectations_test.go), so they are the reference these tests compare
// against.
package integration

import (
	"context"
	"strings"
	"testing"

	"hpmp/internal/addr"
	"hpmp/internal/bench"
	"hpmp/internal/cpu"
	"hpmp/internal/kernel"
	"hpmp/internal/memport"
	"hpmp/internal/mmu"
	"hpmp/internal/monitor"
	"hpmp/internal/perm"
	"hpmp/internal/phys"
	"hpmp/internal/pmpt"
	"hpmp/internal/stats"
	"hpmp/internal/virt"
)

// mmuAccess adapts the out-param MMU.Access to the value-returning shape the
// tests were written against.
func mmuAccess(m *mmu.MMU, va addr.VA, k perm.Access, priv perm.Priv, now uint64) (mmu.Result, error) {
	var res mmu.Result
	err := m.Access(va, k, priv, now, &res)
	return res, err
}

// diffRun captures everything observable about one workload run.
type diffRun struct {
	results  []mmu.Result
	counters string
	cycles   uint64
}

// allCounters merges every counter the stack keeps — core, MMU, TLBs, page
// walker, caches, DRAM, checker, permission-table walker, monitor, kernel —
// into one deterministic "name=value" string.
func allCounters(mach *cpu.Machine, mon *monitor.Monitor, k *kernel.Kernel) string {
	var all stats.Counters
	for _, c := range []*stats.Counters{
		&mach.Core.Counters,
		&mach.MMU.Counters,
		&mach.MMU.ITLB.Counters,
		&mach.MMU.DTLB.Counters,
		&mach.MMU.STLB.Counters,
		&mach.MMU.Walker.Counters,
		&mach.Hier.L1.Counters,
		&mach.Hier.L2.Counters,
		&mach.Hier.LLC.Counters,
		&mach.Hier.Counters,
		&mach.Hier.Mem.Counters,
		&mach.Checker.Counters,
		&mach.Checker.Walker.Counters,
		&mon.Counters,
		&k.Counters,
	} {
		all.Merge(c)
	}
	return all.String()
}

// runDifferentialWorkload boots a fresh stack and drives a fixed mixed
// workload through it: demand-faulted heap traffic with same-page streaks
// (memo hits) and strided page changes (associative hits and misses),
// instruction fetches, TLB shootdowns, and the three fault flavours.
// Everything is seeded deterministically, so two runs differ only in which
// counter/TLB path the simulator took internally.
func runDifferentialWorkload(t *testing.T, mode monitor.Mode) diffRun {
	t.Helper()
	mach, mon, k := bootStack(t, mode)
	p, err := k.Spawn(kernel.Image{Name: "diff", TextPages: 8, DataPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	env, err := k.NewEnv(p)
	if err != nil {
		t.Fatal(err)
	}

	const heapPages = 64
	heap := env.Alloc(heapPages * addr.PageSize)

	var results []mmu.Result
	record := func(res mmu.Result, err error) {
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}

	// Deterministic LCG (Knuth MMIX constants); no package-level rand.
	lcg := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return lcg >> 33
	}

	// A read-only alias of the first heap page: writes through it must
	// prot-fault after a successful translation.
	if err := env.Touch(heap, addr.PageSize); err != nil {
		t.Fatal(err)
	}
	res, err := mmuAccess(mach.MMU, heap, perm.Read, perm.U, mach.Core.Now)
	if err != nil {
		t.Fatal(err)
	}
	roVA := addr.VA(0x7300_0000)
	p.AddVMAAt(roVA, 1, perm.R)
	if err := p.Table.Map(roVA, res.PA.PageBase(), perm.R, true); err != nil {
		t.Fatal(err)
	}
	// A forged mapping at monitor-owned memory: translation succeeds, the
	// physical-memory check must deny it (access fault).
	evilVA := addr.VA(0x7400_0000)
	p.AddVMAAt(evilVA, 1, perm.RW)
	if err := p.Table.Map(evilVA, 0x10_0000, perm.RW, true); err != nil {
		t.Fatal(err)
	}
	// An address in no VMA at all: page fault.
	unmappedVA := addr.VA(0x7f00_0000)

	for i := 0; i < 2500; i++ {
		r := next() % 100
		switch {
		case r < 45:
			// Same-page streak: the memo's bread and butter.
			page := heap + addr.VA(next()%heapPages)*addr.PageSize
			for j := uint64(0); j < 1+next()%6; j++ {
				off := addr.VA((next() % 500) * 8)
				if next()%3 == 0 {
					if err := env.Store64(page+off, next()); err != nil {
						t.Fatal(err)
					}
				} else if _, err := env.Load64(page + off); err != nil {
					t.Fatal(err)
				}
			}
		case r < 70:
			// Page-hopping stride: exercises the associative search and
			// L2-TLB/walk refills behind a memo miss.
			stride := addr.VA(1+next()%7) * addr.PageSize
			va := heap + addr.VA(next()%heapPages)*addr.PageSize
			for j := 0; j < 4; j++ {
				record(mmuAccess(mach.MMU, va, perm.Read, perm.U, mach.Core.Now))
				va = heap + (va-heap+stride)%(heapPages*addr.PageSize)
			}
		case r < 80:
			// Instruction fetches through the ITLB.
			if err := env.FetchAt(p.Code() + addr.VA(next()%8)*addr.PageSize); err != nil {
				t.Fatal(err)
			}
		case r < 87:
			// Faults: translation outcomes must match bit for bit.
			switch next() % 3 {
			case 0:
				record(mmuAccess(mach.MMU, roVA, perm.Write, perm.U, mach.Core.Now))
			case 1:
				record(mmuAccess(mach.MMU, evilVA, perm.Read, perm.U, mach.Core.Now))
			default:
				record(mmuAccess(mach.MMU, unmappedVA, perm.Read, perm.U, mach.Core.Now))
			}
		case r < 94:
			// TLB shootdowns reset the memo; a single-page flush then
			// re-touch re-establishes it.
			if next()%4 == 0 {
				mach.MMU.FlushTLB()
			} else {
				va := heap + addr.VA(next()%heapPages)*addr.PageSize
				mach.MMU.FlushVA(va)
				record(mmuAccess(mach.MMU, va, perm.Read, perm.U, mach.Core.Now))
			}
		default:
			env.Compute(1 + next()%40)
		}
	}

	return diffRun{
		results:  results,
		counters: allCounters(mach, mon, k),
		cycles:   mach.Core.Now,
	}
}

// TestDifferentialFastVsReference: for each isolation mode, the mixed
// native workload must reproduce the reference's per-access Results,
// counters, and cycle total exactly.
func TestDifferentialFastVsReference(t *testing.T) {
	for _, mode := range []monitor.Mode{monitor.ModePMP, monitor.ModePMPT, monitor.ModeHPMP} {
		t.Run(mode.String(), func(t *testing.T) {
			r := runDifferentialWorkload(t, mode)
			if r.cycles == 0 || len(r.results) == 0 {
				t.Fatalf("workload did no work (cycles=%d, results=%d)", r.cycles, len(r.results))
			}
			checkExpectation(t, "native-"+strings.ToLower(mode.String()), fingerprint(r.results, r.cycles, r.counters))
		})
	}
}

// virtDiffRun captures everything observable about one two-stage (virt)
// workload run.
type virtDiffRun struct {
	results  []virt.Result
	counters string
	cycles   uint64
}

// runDifferentialVirtWorkload boots a guest under an Sv39x4 nested table
// with an HPMP checker (segment over the NPT pool, permission table over
// everything else, PMPTW cache enabled) and drives a deterministic mix of
// guest accesses: same-page streaks (GTLB memo), page hops (PWC probes
// behind GTLB misses), page and access faults, and both hfence flavours
// (which clear the PWC/GTLB/NPTLB and the TLB memos).
func runDifferentialVirtWorkload(t *testing.T) virtDiffRun {
	t.Helper()
	mach := cpu.NewMachine(cpu.RocketPlatform(), memSize)
	nptRegion := addr.Range{Base: 0x0100_0000, Size: 4 * addr.MiB}
	gptRegion := addr.Range{Base: 0x0180_0000, Size: 4 * addr.MiB}
	dataRegion := addr.Range{Base: 0x0800_0000, Size: 64 * addr.MiB}
	tblRegion := addr.Range{Base: 0x0400_0000, Size: 16 * addr.MiB}
	// A hole the permission table never grants: mapping it translates fine
	// but must access-fault at the physical check.
	forbidden := addr.Range{Base: 0x1800_0000, Size: addr.MiB}

	nptAlloc := phys.NewFrameAllocator(nptRegion, false)
	gptAlloc := phys.NewFrameAllocator(gptRegion, false)
	dataAlloc := phys.NewFrameAllocator(dataRegion, false)
	tblAlloc := phys.NewFrameAllocator(tblRegion, false)

	npt, err := virt.NewNestedTable(mach.Mem, nptAlloc)
	if err != nil {
		t.Fatal(err)
	}
	guest, err := virt.NewGuestTable(mach.Mem, npt, 0x4000_0000, 256, gptAlloc)
	if err != nil {
		t.Fatal(err)
	}
	all := addr.Range{Base: 0, Size: memSize}
	ptab, err := pmpt.NewTable(mach.Mem, tblAlloc, all)
	if err != nil {
		t.Fatal(err)
	}
	if err := ptab.SetRangePermPaged(gptRegion, perm.RW); err != nil {
		t.Fatal(err)
	}
	if err := ptab.SetRangePermPaged(dataRegion, perm.RWX); err != nil {
		t.Fatal(err)
	}
	if err := mach.Checker.SetSegment(0, nptRegion, perm.RW, false); err != nil {
		t.Fatal(err)
	}
	if err := mach.Checker.SetTable(1, all, ptab.RootBase()); err != nil {
		t.Fatal(err)
	}
	// The PMPTW cache is disabled by default (§7); enable it here so the
	// differential run exercises the WalkerCache probe path.
	mach.PMPTWCache.Enabled = true

	hyp := virt.NewHypervisor(mach, mach.Checker, npt, guest)

	// Guest heap: 32 pages mapped up front (the builder side is untimed and
	// identical across runs).
	const heapPages = 32
	heapGVA := addr.VA(0x1000_0000)
	for i := 0; i < heapPages; i++ {
		gpa := addr.GPA(0x8000_0000) + addr.GPA(i)*addr.PageSize
		pa, err := dataAlloc.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := npt.Map(gpa, pa, perm.RW); err != nil {
			t.Fatal(err)
		}
		if err := guest.Map(heapGVA+addr.VA(i)*addr.PageSize, gpa, perm.RW); err != nil {
			t.Fatal(err)
		}
	}
	// The forged mapping: translates, then must fail the physical check.
	evilGVA := addr.VA(0x2000_0000)
	evilGPA := addr.GPA(0x9000_0000)
	if err := npt.Map(evilGPA, forbidden.Base, perm.RW); err != nil {
		t.Fatal(err)
	}
	if err := guest.Map(evilGVA, evilGPA, perm.RW); err != nil {
		t.Fatal(err)
	}
	unmappedGVA := addr.VA(0x3000_0000)

	var results []virt.Result
	now := uint64(0)
	record := func(res virt.Result, err error) {
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
		now += res.Latency + 1
	}

	lcg := uint64(0xda3e39cb94b95bdb)
	next := func() uint64 {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return lcg >> 33
	}

	for i := 0; i < 1500; i++ {
		switch r := next() % 100; {
		case r < 40:
			// Same-page streak.
			gva := heapGVA + addr.VA(next()%heapPages)*addr.PageSize
			for j := uint64(0); j < 1+next()%5; j++ {
				k := perm.Access(perm.Read)
				if next()%3 == 0 {
					k = perm.Write
				}
				record(hyp.AccessGuest(gva+addr.VA((next()%500)*8), k, now))
			}
		case r < 70:
			// Page-hopping stride: GTLB misses drive full 3-D walks through
			// the PWC and the PMPTW cache.
			stride := addr.VA(1+next()%5) * addr.PageSize
			gva := heapGVA + addr.VA(next()%heapPages)*addr.PageSize
			for j := 0; j < 3; j++ {
				record(hyp.AccessGuest(gva, perm.Read, now))
				gva = heapGVA + (gva-heapGVA+stride)%(heapPages*addr.PageSize)
			}
		case r < 82:
			// Faults must match bit for bit.
			if next()%2 == 0 {
				record(hyp.AccessGuest(unmappedGVA, perm.Read, now))
			} else {
				record(hyp.AccessGuest(evilGVA, perm.Read, now))
			}
		case r < 90:
			// Fences: reset the combined translations, the PWC and the TLB
			// memos.
			if next()%3 == 0 {
				hyp.HFenceGVMA()
			} else {
				hyp.HFenceVVMA()
			}
		default:
			// Re-touch after a single-page GTLB-relevant pause.
			record(hyp.AccessGuest(heapGVA+addr.VA(next()%heapPages)*addr.PageSize, perm.Read, now))
		}
	}

	var all2 stats.Counters
	for _, c := range []*stats.Counters{
		&hyp.Counters,
		&hyp.GTLB.Counters,
		&hyp.NPTLB.Counters,
		&mach.Hier.L1.Counters,
		&mach.Hier.L2.Counters,
		&mach.Hier.LLC.Counters,
		&mach.Hier.Counters,
		&mach.Hier.Mem.Counters,
		&mach.Checker.Counters,
		&mach.Checker.Walker.Counters,
	} {
		all2.Merge(c)
	}
	return virtDiffRun{results: results, counters: all2.String(), cycles: now}
}

// TestDifferentialVirtFastVsReference extends the gate to the two-stage
// (virt) pipeline: the guest TLBs, the hypervisor PWC, and the PMPTW cache
// must reproduce the reference's per-access Results, merged counters, and
// cycle total exactly.
func TestDifferentialVirtFastVsReference(t *testing.T) {
	r := runDifferentialVirtWorkload(t)
	if r.cycles == 0 || len(r.results) == 0 {
		t.Fatalf("workload did no work (cycles=%d, results=%d)", r.cycles, len(r.results))
	}
	// The gate is only meaningful if the workload actually drove the cached
	// probe loops and both fault flavours.
	for _, want := range []string{"gtlb.hit=", "pmptw.cache_hit=", "pmptw.walk="} {
		if !strings.Contains(r.counters+" ", want) || strings.Contains(r.counters+" ", want+"0 ") {
			t.Errorf("workload never exercised %q (counters: %s)", want, r.counters)
		}
	}
	var faults, denies bool
	for _, res := range r.results {
		faults = faults || res.PageFault
		denies = denies || res.AccessFault
	}
	if !faults || !denies {
		t.Errorf("workload must produce both fault flavours (page=%v access=%v)", faults, denies)
	}
	checkExpectation(t, "virt", fingerprint(r.results, r.cycles, r.counters))
}

// deepDiffRun captures everything observable about one deep-walker run.
type deepDiffRun struct {
	results  []pmpt.WalkResult
	counters string
	cycles   uint64
}

// runDifferentialDeepWalkWorkload drives the 3-level PMPT walker (Mode
// extension, 32 GiB region) through a deterministic probe mix — repeats
// that hit the enabled PMPTW cache, strides across huge/pointer/invalid
// spans, table edits followed by invalidations — and cross-checks every
// hardware walk against the software oracle.
func runDifferentialDeepWalkWorkload(t *testing.T) deepDiffRun {
	t.Helper()
	mem := phys.New(64 * addr.GiB) // sparse: only touched frames materialize
	alloc := phys.NewFrameAllocator(addr.Range{Base: 0x10_0000, Size: 64 * addr.MiB}, false)
	region := addr.Range{Base: 0, Size: 32 * addr.GiB}
	tbl, err := pmpt.NewDeepTable(mem, alloc, region, pmpt.Mode3Level)
	if err != nil {
		t.Fatal(err)
	}
	// A mixed-granularity permission landscape: a 32 MiB huge span, a paged
	// 1 MiB window beyond the 2-level reach, a leaf-entry span, and a single
	// read-only page.
	if err := tbl.SetRangePerm(addr.Range{Base: 0x1000_0000, Size: pmpt.RootEntrySpan}, perm.RWX); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SetRangePerm(addr.Range{Base: 20 * addr.GiB, Size: addr.MiB}, perm.RW); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SetRangePerm(addr.Range{Base: 24 * addr.GiB, Size: pmpt.LeafEntrySpan}, perm.R); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SetPagePerm(30*addr.GiB, perm.R); err != nil {
		t.Fatal(err)
	}

	cache := pmpt.NewWalkerCache(8)
	cache.Enabled = true
	w := &pmpt.Walker{Port: &memport.Flat{Mem: mem, Latency: 9}, Cache: cache}

	probeBases := []addr.PA{
		0x1000_0000,            // huge root span
		20 * addr.GiB,          // deep paged window
		24 * addr.GiB,          // leaf-entry span
		30 * addr.GiB,          // single page
		0x5000_0000,            // invalid
		31*addr.GiB + 0x12_000, // invalid, deep
	}

	var results []pmpt.WalkResult
	now := uint64(0)
	lcg := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return lcg >> 33
	}

	for i := 0; i < 4000; i++ {
		switch r := next() % 100; {
		case r < 55:
			// Streaks over one base: the cache's bread and butter —
			// repeated root/leaf pmpte probes.
			base := probeBases[next()%uint64(len(probeBases))]
			for j := uint64(0); j < 1+next()%4; j++ {
				pa := base + addr.PA((next()%256)*addr.PageSize)
				res, err := w.WalkDeep(tbl.RootBase(), region, pmpt.Mode3Level, pa, now)
				if err != nil {
					t.Fatal(err)
				}
				results = append(results, res)
				now += res.Latency + 1
				// Oracle check (Cheang et al.-style): the hardware walk must
				// agree with the software lookup in both validity and perm.
				swPerm, err := tbl.LookupSW(pa)
				if err != nil {
					t.Fatal(err)
				}
				hwPerm := perm.None
				if res.Valid {
					hwPerm = res.Perm
				}
				if hwPerm != swPerm {
					t.Fatalf("walk/oracle disagree at %v: hw %v (valid=%v) sw %v", pa, res.Perm, res.Valid, swPerm)
				}
			}
		case r < 90:
			// Stride across bases: LRU churn in the 8-entry cache.
			base := probeBases[next()%uint64(len(probeBases))]
			stride := addr.PA(1+next()%7) * pmpt.LeafEntrySpan
			pa := base
			for j := 0; j < 3; j++ {
				res, err := w.WalkDeep(tbl.RootBase(), region, pmpt.Mode3Level, pa, now)
				if err != nil {
					t.Fatal(err)
				}
				results = append(results, res)
				now += res.Latency + 1
				pa += stride
				if !region.Contains(pa) {
					pa = base
				}
			}
		case r < 96:
			// Table edit + mandatory invalidation (the §5 flush rule): no
			// stale pmpte may survive it.
			p := perm.R
			if next()%2 == 0 {
				p = perm.RW
			}
			pg := 20*addr.GiB + addr.PA((next()%256)*addr.PageSize)
			if err := tbl.SetPagePerm(pg, p); err != nil {
				t.Fatal(err)
			}
			cache.Invalidate()
		default:
			cache.Invalidate()
		}
	}

	return deepDiffRun{results: results, counters: w.Counters.String(), cycles: now}
}

// TestDifferentialDeepWalkerFastVsReference extends the gate to the deep
// (3-level) PMPT walker: every walk must agree with the software lookup
// (checked inside the workload), and the WalkResults, counters, and cycle
// total must match the reference exactly.
func TestDifferentialDeepWalkerFastVsReference(t *testing.T) {
	r := runDifferentialDeepWalkWorkload(t)
	if r.cycles == 0 || len(r.results) == 0 {
		t.Fatalf("workload did no work (cycles=%d, results=%d)", r.cycles, len(r.results))
	}
	for _, want := range []string{"pmptw.cache_hit=", "pmptw.mem_ref=", "pmptw.huge=", "pmptw.invalid=", "pmptw.walk="} {
		if !strings.Contains(r.counters+" ", want) || strings.Contains(r.counters+" ", want+"0 ") {
			t.Errorf("workload never exercised %q (counters: %s)", want, r.counters)
		}
	}
	checkExpectation(t, "deepwalk", fingerprint(r.results, r.cycles, r.counters))
}

// TestDifferentialExperimentOutput runs one real registered experiment
// through the parallel runner and compares the rendered tables and the
// counter CSV snapshot — the same artifacts `hpmpsim run` prints and `-csv`
// exports — with the reference byte for byte.
func TestDifferentialExperimentOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment run; skipped with -short")
	}
	exp, ok := bench.ByID("fig3a")
	if !ok {
		t.Fatal("experiment fig3a not registered")
	}
	cfg := bench.DefaultConfig()
	cfg.Quick = true
	outs := bench.RunAll(context.Background(), cfg, []bench.Experiment{exp}, bench.RunOptions{Parallel: 1}, nil)
	if len(outs) != 1 || !outs[0].OK() {
		t.Fatalf("experiment failed: %+v", outs)
	}
	checkExpectation(t, "experiment-fig3a", outs[0].Result.Render()+"\n"+bench.CountersCSV(outs[0].Result))
}

// firstDiff renders the first differing line of two multi-line strings.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return "line " + itoa(i+1) + ":\n  a: " + al[i] + "\n  b: " + bl[i]
		}
	}
	return "line counts differ: " + itoa(len(al)) + " vs " + itoa(len(bl))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
