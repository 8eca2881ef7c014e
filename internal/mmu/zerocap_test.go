package mmu

import (
	"testing"

	"hpmp/internal/addr"
	"hpmp/internal/perm"
)

// TestZeroCapacityPipelineRoundTrip extends the zero-capacity sweeps to the
// whole access path: a machine with no L2 TLB (and no PWC — the rig
// default) must translate, fill, hit, and flush exactly like any other.
func TestZeroCapacityPipelineRoundTrip(t *testing.T) {
	for _, mode := range []isoMode{isoNone, isoPMP, isoPMPT, isoHPMP} {
		r := newRigL2(t, mode, 0)
		if n := r.mmu.STLB.Len(); n != 0 {
			t.Fatalf("mode %v: STLB has %d entries, want 0", mode, n)
		}
		va := addr.VA(0x4000_0000)
		r.mapPage(t, va, perm.RW, true)

		res, err := r.access(va, perm.Read, perm.U, 0)
		if err != nil || res.Faulted() {
			t.Fatalf("mode %v: cold access: %+v, %v", mode, res, err)
		}
		if !res.Walked {
			t.Fatalf("mode %v: cold access must walk", mode)
		}
		res, err = r.access(va, perm.Read, perm.U, 0)
		if err != nil || res.Faulted() || res.TLBHit != TLBHitL1 {
			t.Fatalf("mode %v: warm access must hit L1: %+v, %v", mode, res, err)
		}
		// An absent L2 never serves hits: after an L1 flush the access walks
		// again instead of hitting L2.
		r.mmu.FlushTLB()
		res, err = r.access(va, perm.Read, perm.U, 0)
		if err != nil || res.Faulted() {
			t.Fatalf("mode %v: post-flush access: %+v, %v", mode, res, err)
		}
		if res.TLBHit != TLBMiss || !res.Walked {
			t.Fatalf("mode %v: post-flush access must miss and walk, got %+v", mode, res)
		}
	}
}
