// Record-then-replay property gate: every light-tier experiment's
// translation-path trace, captured unsampled (TraceEvery=1), must replay
// deterministically — two fresh replays of the captured stream on the same
// canonical replay config produce byte-identical counter snapshots and
// Prometheus text — and must be a fixpoint: re-capturing the replay's own
// stream and replaying it reproduces the machine counters and latency
// histograms exactly. It is the differential tests' sibling: they pin the
// MMU against the reference expectations, this pins the replay engine
// against the recorder.
package integration

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"hpmp/internal/bench"
	"hpmp/internal/obs"
	"hpmp/internal/replay"
)

// recordExperiment runs one experiment at quick sizes with unsampled
// tracing and returns its retained event window, round-tripped through the
// trace-file serializer so the hardened reader sees every real trace shape.
func recordExperiment(t *testing.T, exp bench.Experiment) []obs.Event {
	t.Helper()
	cfg := bench.DefaultConfig()
	cfg.Quick = true
	outcomes := bench.RunAll(context.Background(), cfg, []bench.Experiment{exp},
		bench.RunOptions{Parallel: 1, TraceEvery: 1, TraceKeep: 1 << 15}, nil)
	o := outcomes[0]
	if !o.OK() {
		t.Fatalf("%s: %v", exp.ID, o.Err)
	}
	if o.Trace == nil || o.Trace.Kept() == 0 {
		// Analytical/monitor-only experiments (hardware cost accounting, TEE
		// operation timing) never drive the traced translation path; there is
		// nothing to replay.
		t.Skipf("%s: no translation events captured (analytical or monitor-only experiment)", exp.ID)
	}
	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf, exp.ID, o.Trace); err != nil {
		t.Fatal(err)
	}
	h, events, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatalf("%s: captured trace does not re-parse: %v", exp.ID, err)
	}
	if h.Source != exp.ID || len(events) != o.Trace.Kept() {
		t.Fatalf("%s: trace round-trip lost events: header %+v, %d events", exp.ID, h, len(events))
	}
	return events
}

// replayOnce replays a recorded stream on the canonical replay config,
// optionally capturing the replay's own unsampled trace.
func replayOnce(t *testing.T, events []obs.Event, tr *obs.Tracer) *replay.Engine {
	t.Helper()
	e, err := replay.New(replay.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tr != nil {
		e.SetTracer(tr)
	}
	if err := e.Run(events); err != nil {
		t.Fatal(err)
	}
	return e
}

// machineOnly strips the replay.* bookkeeping keys, leaving the simulated
// machine's counters. The bookkeeping legitimately differs across the
// fixpoint boundary: the second replay sees the first's regenerated
// pte-fetch/check events as skipped kinds.
func machineOnly(snap map[string]uint64) map[string]uint64 {
	for k := range snap {
		if strings.HasPrefix(k, "replay.") {
			delete(snap, k)
		}
	}
	return snap
}

func TestRecordThenReplayEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("replays every light-tier experiment")
	}
	ran := 0
	for _, exp := range bench.All() {
		if exp.Cost != bench.CostLight {
			continue
		}
		ran++
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			events := recordExperiment(t, exp)

			// Determinism: two fresh replays of the same stream on the same
			// config are byte-identical — counters and Prometheus text.
			e1 := replayOnce(t, events, nil)
			e2 := replayOnce(t, events, nil)
			if e1.Stats.Divergences != 0 {
				t.Fatalf("replay diverged from the recording: %s", e1.Stats.First)
			}
			if !reflect.DeepEqual(e1.Counters(), e2.Counters()) {
				t.Error("counter snapshots differ between identical replays")
			}
			var p1, p2 bytes.Buffer
			if err := e1.Metrics(exp.ID).WritePrometheus(&p1); err != nil {
				t.Fatal(err)
			}
			if err := e2.Metrics(exp.ID).WritePrometheus(&p2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(p1.Bytes(), p2.Bytes()) {
				t.Error("Prometheus text differs between identical replays")
			}

			// Fixpoint: capture the replay's own unsampled stream and replay
			// it on the same config; the machine counters and histograms must
			// reproduce exactly. Replaying N accesses regenerates a bounded
			// number of pte/pmpt/check events per access, so a generous
			// multiple of the input keeps the ring from wrapping.
			tr := obs.NewTracer(16*len(events)+4096, 1)
			e3 := replayOnce(t, events, tr)
			if tr.Seen() > uint64(tr.Kept()) {
				t.Fatalf("fixpoint tracer ring overflowed (%d seen, %d kept)", tr.Seen(), tr.Kept())
			}
			e4 := replayOnce(t, tr.Events(), nil)
			if e4.Stats.Divergences != 0 {
				t.Fatalf("fixpoint replay diverged: %s", e4.Stats.First)
			}
			c3, c4 := machineOnly(e3.Counters()), machineOnly(e4.Counters())
			if !reflect.DeepEqual(c3, c4) {
				for k, v := range c3 {
					if c4[k] != v {
						t.Errorf("counter %s: original %d, fixpoint %d", k, v, c4[k])
					}
				}
			}
			if !reflect.DeepEqual(e3.Histograms(), e4.Histograms()) {
				t.Error("latency histograms differ across the fixpoint boundary")
			}
		})
	}
	if ran == 0 {
		t.Fatal("no light-tier experiments registered")
	}
}
