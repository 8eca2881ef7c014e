package main

import (
	"strings"
	"testing"

	"hpmp/internal/addr"
	"hpmp/internal/cpu"
	"hpmp/internal/kernel"
	"hpmp/internal/monitor"
	"hpmp/internal/obs"
	"hpmp/internal/perm"
)

func tracedEnv(t *testing.T) (*Recorder, *kernel.Env) {
	t.Helper()
	mach := cpu.NewMachine(cpu.RocketPlatform(), 512*addr.MiB)
	mon, err := monitor.Boot(mach, monitor.DefaultConfig(monitor.ModeHPMP))
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernel.New(mach, mon, kernel.DefaultConfig(512*addr.MiB))
	if err != nil {
		t.Fatal(err)
	}
	p, err := k.Spawn(kernel.Image{Name: "traced", TextPages: 8, DataPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	e, err := k.NewEnv(p)
	if err != nil {
		t.Fatal(err)
	}
	r := newRecorder(64)
	r.Attach(mach.MMU)
	return r, e
}

func TestRecordThroughMMU(t *testing.T) {
	r, e := tracedEnv(t)
	va := e.P.Heap()
	if err := e.Store64(va, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Load64(va); err != nil {
		t.Fatal(err)
	}
	if r.Total() == 0 {
		t.Fatal("no events recorded")
	}
	evs := r.Events()
	last := evs[len(evs)-1]
	if last.Kind != obs.KindAccess || last.Access != perm.Read || last.TLB != obs.TLBL1 {
		t.Errorf("last event should be the warm read: %+v", last)
	}
	if r.Counters.Get("trace.reads") == 0 || r.Counters.Get("trace.writes") == 0 {
		t.Error("kind counters missing")
	}
}

func TestRingEviction(t *testing.T) {
	r, e := tracedEnv(t)
	va := e.P.Heap()
	e.Store64(va, 0)
	for i := 0; i < 200; i++ {
		e.Load64(va)
	}
	if got := len(r.Events()); got != 64 {
		t.Errorf("ring keeps %d events, want 64", got)
	}
	// Events are ordered oldest→newest with consecutive sequence numbers.
	evs := r.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("ring order broken at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
	if r.Total() < 200 {
		t.Errorf("Total = %d, want ≥ 200", r.Total())
	}
}

func TestSummaryAndCSV(t *testing.T) {
	r, e := tracedEnv(t)
	e.Store64(e.P.Heap(), 7)
	e.Load64(e.P.Heap())
	sum := r.Summary()
	for _, want := range []string{"accesses:", "TLB:", "memory references:", "latency cycles:"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
	csv := r.CSV()
	if !strings.HasPrefix(csv, "seq,va,pa,access,tlb,") {
		t.Errorf("CSV header wrong: %q", csv[:40])
	}
	if strings.Count(csv, "\n") < 3 {
		t.Error("CSV should contain the recorded events")
	}
}

func TestDetach(t *testing.T) {
	r, e := tracedEnv(t)
	// Attach returned the detach func inside tracedEnv; attach a second
	// recorder and verify detach restores the first.
	r2 := newRecorder(8)
	detach := r2.Attach(e.K.Mach.MMU)
	e.Store64(e.P.Heap(), 1)
	if r2.Total() == 0 || r.Total() == 0 {
		t.Fatal("chained observers must both record")
	}
	before := r2.Total()
	detach()
	e.Load64(e.P.Heap())
	if r2.Total() != before {
		t.Error("detached recorder must stop recording")
	}
	if r.Total() <= before {
		t.Error("original recorder must keep recording")
	}
}
