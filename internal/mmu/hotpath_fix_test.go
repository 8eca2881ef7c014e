package mmu

import (
	"math"
	"testing"

	"hpmp/internal/addr"
	"hpmp/internal/perm"
	"hpmp/internal/ptw"
)

// TestAccessEventRefSaturation pins the uint16 conversion fix: a Result
// whose reference counts exceed 65535 (a pathological deep-PMPT walk, or a
// synthetic stress Result like this one) must saturate the obs.Event fields
// rather than silently wrap to a tiny count.
func TestAccessEventRefSaturation(t *testing.T) {
	res := Result{
		Walk:          ptw.Result{PTRefs: 80000, PTCheckRefs: 70000},
		DataCheckRefs: 3,
		DataRefs:      1,
	}
	if res.TotalRefs() <= math.MaxUint16 {
		t.Fatalf("test Result not pathological enough: %d refs", res.TotalRefs())
	}
	ev := AccessEvent(0x1000, perm.Read, &res)
	if ev.Refs != math.MaxUint16 {
		t.Errorf("Refs = %d, want saturated %d (TotalRefs %d)", ev.Refs, math.MaxUint16, res.TotalRefs())
	}
	if ev.ChkRefs != math.MaxUint16 {
		t.Errorf("ChkRefs = %d, want saturated %d", ev.ChkRefs, math.MaxUint16)
	}

	// Ordinary counts must pass through exactly.
	small := Result{Walk: ptw.Result{PTRefs: 4, PTCheckRefs: 2}, DataCheckRefs: 1, DataRefs: 1}
	ev = AccessEvent(0x1000, perm.Read, &small)
	if ev.Refs != 8 || ev.ChkRefs != 3 {
		t.Errorf("small counts distorted: Refs=%d ChkRefs=%d, want 8 and 3", ev.Refs, ev.ChkRefs)
	}
}

// TestFlushVACounter pins the FlushVA observability fix: per-address
// shootdowns bump mmu.tlb_flush_va, independent of the full-flush counter.
func TestFlushVACounter(t *testing.T) {
	r := newRig(t, isoHPMP)
	va := addr.VA(0x4000_0000)
	r.mapPage(t, va, perm.RW, true)
	if _, err := r.access(va, perm.Read, perm.U, 0); err != nil {
		t.Fatal(err)
	}
	if got := r.mmu.Counters.Get("mmu.tlb_flush_va"); got != 0 {
		t.Fatalf("tlb_flush_va = %d before any flush", got)
	}
	r.mmu.FlushVA(va)
	r.mmu.FlushVA(va + addr.PageSize)
	if got := r.mmu.Counters.Get("mmu.tlb_flush_va"); got != 2 {
		t.Errorf("tlb_flush_va = %d after 2 FlushVA calls, want 2", got)
	}
	r.mmu.FlushTLB()
	if got := r.mmu.Counters.Get("mmu.tlb_flush"); got != 1 {
		t.Errorf("tlb_flush = %d after 1 FlushTLB, want 1", got)
	}
	if got := r.mmu.Counters.Get("mmu.tlb_flush_va"); got != 2 {
		t.Errorf("FlushTLB leaked into tlb_flush_va: %d", got)
	}
}

// TestTranslateSkipsWalkLatencyHistogram pins the metrics-skew fix:
// bookkeeping translations run at now=0 outside any timed stream, so they
// must not contribute samples to the ptw.walk_latency histogram — while
// their PT references still advance the walk counters, and real demand
// walks still observe.
func TestTranslateSkipsWalkLatencyHistogram(t *testing.T) {
	r := newRig(t, isoHPMP)
	va := addr.VA(0x4000_0000)
	r.mapPage(t, va, perm.RW, true)

	histBefore := r.mmu.Walker.Hist.Count()
	walksBefore := r.mmu.Walker.Counters.Get("ptw.walk_ok")
	if _, err := r.mmu.Translate(va); err != nil {
		t.Fatal(err)
	}
	if got := r.mmu.Walker.Hist.Count(); got != histBefore {
		t.Errorf("Translate observed into walk-latency histogram: %d -> %d", histBefore, got)
	}
	if got := r.mmu.Walker.Counters.Get("ptw.walk_ok"); got != walksBefore+1 {
		t.Errorf("Translate must still count its walk: %d -> %d", walksBefore, got)
	}

	// A cold demand access's hardware walk does observe.
	if _, err := r.access(va, perm.Read, perm.U, 0); err != nil {
		t.Fatal(err)
	}
	if got := r.mmu.Walker.Hist.Count(); got != histBefore+1 {
		t.Errorf("demand walk must observe into the histogram: %d -> %d", histBefore, got)
	}
}

// TestAccessBatchShortOutPanics pins the AccessBatch contract: out must be
// at least as long as refs.
func TestAccessBatchShortOutPanics(t *testing.T) {
	r := newRig(t, isoNone)
	defer func() {
		if recover() == nil {
			t.Error("AccessBatch with short out slice must panic")
		}
	}()
	refs := make([]AccessReq, 2)
	out := make([]Result, 1)
	r.mmu.AccessBatch(refs, out, 0)
}
