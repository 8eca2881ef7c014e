// The access recorder behind hpmptrace: it records per-access events from
// the MMU for offline analysis — where each access hit (TLB level / walk),
// how many memory references it cost by category, and its latency. A
// bounded ring keeps the most recent events while running summaries cover
// the whole run.
//
// The event record is obs.Event, the same structure the simulator's inline
// tracing hooks emit and the JSONL trace files carry, so hpmptrace and
// hpmpsim artifacts are read by the same tools. The recorder emits
// KindAccess events only: one per completed MMU access, never the
// intermediate PTE/PMPT fetches.
package main

import (
	"fmt"
	"strings"

	"hpmp/internal/addr"
	"hpmp/internal/mmu"
	"hpmp/internal/obs"
	"hpmp/internal/perm"
	"hpmp/internal/stats"
)

// Recorder accumulates events and summaries. Attach it to an MMU with
// Attach; the zero value is not usable — call newRecorder.
type Recorder struct {
	ring  []obs.Event
	next  int
	total uint64

	latHist  *stats.Histogram
	Counters stats.Counters
}

// newRecorder builds a recorder keeping the last `keep` events.
func newRecorder(keep int) *Recorder {
	if keep <= 0 {
		keep = 1
	}
	return &Recorder{
		ring:    make([]obs.Event, 0, keep),
		latHist: stats.DefaultLatencyHistogram(),
	}
}

// Attach subscribes the recorder to an MMU (replacing any prior observer)
// and returns a detach func.
func (r *Recorder) Attach(m *mmu.MMU) func() {
	prev := m.Observer
	m.Observer = func(va addr.VA, k perm.Access, res mmu.Result) {
		r.Record(va, k, res)
		if prev != nil {
			prev(va, k, res)
		}
	}
	return func() { m.Observer = prev }
}

// Record ingests one MMU result.
func (r *Recorder) Record(va addr.VA, k perm.Access, res mmu.Result) {
	ev := mmu.AccessEvent(va, k, &res)
	ev.Seq = r.total
	r.total++
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, ev)
	} else {
		r.ring[r.next] = ev
		r.next = (r.next + 1) % cap(r.ring)
	}
	r.latHist.Observe(res.Latency)
	// Constant counter names per TLB outcome: recording must not allocate
	// per observed access (the recorder rides the MMU's hot path).
	switch ev.TLB {
	case obs.TLBL1:
		r.Counters.Inc("trace.tlb_L1")
	case obs.TLBL2:
		r.Counters.Inc("trace.tlb_L2")
	default:
		r.Counters.Inc("trace.tlb_miss")
	}
	r.Counters.Add("trace.pt_refs", uint64(res.Walk.PTRefs))
	r.Counters.Add("trace.chk_refs", uint64(res.Walk.PTCheckRefs+res.DataCheckRefs))
	r.Counters.Add("trace.data_refs", uint64(res.DataRefs))
	if res.Faulted() {
		r.Counters.Inc("trace.faults")
	}
	switch k {
	case perm.Read:
		r.Counters.Inc("trace.reads")
	case perm.Write:
		r.Counters.Inc("trace.writes")
	case perm.Fetch:
		r.Counters.Inc("trace.fetches")
	}
}

// Total returns how many accesses were recorded (including evicted ones).
func (r *Recorder) Total() uint64 { return r.total }

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []obs.Event {
	out := make([]obs.Event, 0, len(r.ring))
	if len(r.ring) < cap(r.ring) {
		return append(out, r.ring...)
	}
	out = append(out, r.ring[r.next:]...)
	return append(out, r.ring[:r.next]...)
}

// Tracer replays the retained ring into an unsampled obs.Tracer so the
// recorder can be exported as a JSONL trace file via obs.WriteTrace.
func (r *Recorder) Tracer() *obs.Tracer {
	t := obs.NewTracer(cap(r.ring), 1)
	for _, ev := range r.Events() {
		t.Emit(ev)
	}
	return t
}

// Summary renders the aggregate statistics.
func (r *Recorder) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "accesses: %d (reads %d, writes %d, fetches %d, faults %d)\n",
		r.total,
		r.Counters.Get("trace.reads"), r.Counters.Get("trace.writes"),
		r.Counters.Get("trace.fetches"), r.Counters.Get("trace.faults"))
	l1 := r.Counters.Get("trace.tlb_L1")
	l2 := r.Counters.Get("trace.tlb_L2")
	miss := r.Counters.Get("trace.tlb_miss")
	if r.total > 0 {
		fmt.Fprintf(&b, "TLB: L1 %.1f%%, L2 %.1f%%, miss %.1f%%\n",
			100*float64(l1)/float64(r.total),
			100*float64(l2)/float64(r.total),
			100*float64(miss)/float64(r.total))
	}
	fmt.Fprintf(&b, "memory references: %d PTE fetches, %d permission-table, %d data\n",
		r.Counters.Get("trace.pt_refs"), r.Counters.Get("trace.chk_refs"),
		r.Counters.Get("trace.data_refs"))
	fmt.Fprintf(&b, "latency cycles: mean %.1f, p50 ≤%d, p99 ≤%d, max %d\n",
		r.latHist.Mean(), r.latHist.Quantile(0.5), r.latHist.Quantile(0.99), r.latHist.Max())
	return b.String()
}

// CSV renders the retained events.
func (r *Recorder) CSV() string {
	var b strings.Builder
	b.WriteString("seq,va,pa,access,tlb,refs,chk_refs,cycles,fault\n")
	for _, ev := range r.Events() {
		fmt.Fprintf(&b, "%d,%#x,%#x,%s,%s,%d,%d,%d,%v\n",
			ev.Seq, uint64(ev.VA), uint64(ev.PA), ev.Access, ev.TLB,
			ev.Refs, ev.ChkRefs, ev.Cycles, ev.Fault != obs.FaultNone)
	}
	return b.String()
}
