// Package obs is the simulator's observability layer: a sampled,
// ring-buffered structured event trace of the translation path plus
// per-experiment metrics snapshots (JSON and Prometheus text).
//
// The translation-path models (mmu, ptw, pmpt, hpmp) each carry an optional
// `Trace *obs.Tracer` hook. A nil hook is the disabled state and costs one
// pointer compare per potential event — no allocation, no call — which is
// what keeps the pinned hot-path benchmarks (BenchmarkTLBHitAccess,
// BenchmarkPTWWalkPWCHit) at 0 allocs/op with observability compiled in.
// With a tracer attached, recording stays allocation-free too: events are
// fixed-size values copied into a preallocated ring.
//
// Concurrency follows the same ownership model as internal/stats: a Tracer
// is owned by the goroutine running the simulation that feeds it, and is
// read (Events, WriteTrace) only after that goroutine has finished. The
// experiment runner in internal/bench hands each experiment its own tracer
// and snapshots it post-completion.
//
// Determinism: sampling is stride-based on the event ordinal (no clocks, no
// PRNG), so the same workload produces the same trace bytes on every run —
// the property the golden-trace test pins.
package obs

import (
	"hpmp/internal/addr"
	"hpmp/internal/perm"
)

// Kind says which translation-path stage emitted an event.
type Kind uint8

const (
	// KindAccess is one completed MMU access (data or fetch): TLB outcome,
	// fault kind, total reference and cycle cost.
	KindAccess Kind = iota
	// KindPTEFetch is one page-table-walker PTE fetch: walk level and
	// whether the PWC served it.
	KindPTEFetch
	// KindPMPTFetch is one permission-table-walker pmpte fetch: whether the
	// PMPTW cache served it.
	KindPMPTFetch
	// KindCheck is one HPMP permission-check outcome: matching entry,
	// allow/deny, and the table-walk cost if the entry was in table mode.
	KindCheck

	numKinds
)

var kindNames = [numKinds]string{"access", "pte_fetch", "pmpt_fetch", "check"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind?"
}

// KindFromString inverts Kind.String (the trace-file decoder uses it).
func KindFromString(s string) (Kind, bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	return 0, false
}

// Fault classifies how an event's access stopped, if it did.
type Fault uint8

const (
	FaultNone Fault = iota
	// FaultPage: invalid/missing page-table mapping.
	FaultPage
	// FaultProt: the mapping exists but PTE permission/privilege denied.
	FaultProt
	// FaultAccess: physical memory isolation (PMP/PMPT/HPMP) denied.
	FaultAccess

	numFaults
)

var faultNames = [numFaults]string{"", "page", "prot", "access"}

func (f Fault) String() string {
	if int(f) < len(faultNames) {
		return faultNames[f]
	}
	return "fault?"
}

// FaultFromString inverts Fault.String.
func FaultFromString(s string) (Fault, bool) {
	for i, n := range faultNames {
		if n == s {
			return Fault(i), true
		}
	}
	return 0, false
}

// TLBPath says where a KindAccess event's translation came from.
type TLBPath uint8

const (
	// TLBNone: not applicable (non-access events).
	TLBNone TLBPath = iota
	TLBL1
	TLBL2
	// TLBMiss: both TLB levels missed and a hardware walk ran.
	TLBMiss

	numTLBPaths
)

var tlbNames = [numTLBPaths]string{"", "L1", "L2", "miss"}

func (p TLBPath) String() string {
	if int(p) < len(tlbNames) {
		return tlbNames[p]
	}
	return "tlb?"
}

// TLBPathFromString inverts TLBPath.String.
func TLBPathFromString(s string) (TLBPath, bool) {
	for i, n := range tlbNames {
		if n == s {
			return TLBPath(i), true
		}
	}
	return 0, false
}

// Event is one sampled translation-path event — the single record
// definition shared by the live tracer, the trace-file format, and
// cmd/hpmptrace's recorder and reader. It is a fixed-size
// value so recording one never allocates.
//
// Field meaning varies slightly by Kind:
//
//	KindAccess:    VA+PA of the access, TLB outcome, fault kind, Refs =
//	               every memory reference the access performed, ChkRefs =
//	               the permission-table share of them, Cycles = total
//	               latency.
//	KindPTEFetch:  PA of the PTE word, Level = walk level (2..0 for Sv39),
//	               Hit = PWC hit, Refs/Cycles = cost of this fetch.
//	KindPMPTFetch: PA of the pmpte word, Hit = PMPTW-cache hit.
//	KindCheck:     PA of the checked address, Level = matching PMP entry
//	               (-1 = no match), Hit = allowed, Fault = FaultAccess on
//	               deny, Refs/Cycles = table-walk cost.
type Event struct {
	// Seq is the event's ordinal among all events the tracer saw (not just
	// the sampled ones), so gaps reveal the sampling stride.
	Seq    uint64
	Kind   Kind
	Access perm.Access
	TLB    TLBPath
	// Level is the page-walk level or PMP entry index; -1 when not
	// applicable.
	Level int8
	// Hit is the probe outcome: PWC/PMPTW-cache hit, or check allowed.
	Hit     bool
	Fault   Fault
	VA      addr.VA
	PA      addr.PA
	Refs    uint16
	ChkRefs uint16
	Cycles  uint64
}
