// Differential matrix over machine configurations: one recorded
// light-experiment trace replays through every isolation mode, permission-
// table depths 3 and 4, the degenerate no-cache geometry, and an enabled
// PMPTW cache, on both the batched and the scalar entry point. Each replay
// must have 0 divergences, and its machine counters, final clock and
// latency histograms must match the committed expectation (captured when
// the config-specialized pipelines and the generic reference pipeline
// still coexisted and agreed byte for byte). The replay engine's
// equivalence machinery is the oracle; the trace is recorded once and
// shared across the matrix.
package integration

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"hpmp/internal/bench"
	"hpmp/internal/obs"
	"hpmp/internal/replay"
)

// recordMatrixTrace records the first light experiment that actually drives
// the traced translation path, at quick sizes. The recorded stream is a set
// of mapping proofs, so it replays with 0 divergences on any machine
// config — exactly what lets one trace sweep the whole matrix.
func recordMatrixTrace(t *testing.T) []obs.Event {
	t.Helper()
	for _, exp := range bench.All() {
		if exp.Cost != bench.CostLight {
			continue
		}
		cfg := bench.DefaultConfig()
		cfg.Quick = true
		outcomes := bench.RunAll(context.Background(), cfg, []bench.Experiment{exp},
			bench.RunOptions{Parallel: 1, TraceEvery: 1, TraceKeep: 1 << 15}, nil)
		o := outcomes[0]
		if !o.OK() {
			t.Fatalf("%s: %v", exp.ID, o.Err)
		}
		if o.Trace == nil {
			continue
		}
		// Some light experiments trace only permission-table fetches; the
		// matrix needs accesses to replay.
		events := o.Trace.Events()
		for _, ev := range events {
			if ev.Kind == obs.KindAccess {
				return events
			}
		}
	}
	t.Fatal("no light-tier experiment produced translation events")
	return nil
}

func matrixVariants() []replay.Config {
	base := replay.DefaultConfig()
	var out []replay.Config
	// Every isolation mode on the default geometry (depth 2 where a table
	// exists).
	for _, mode := range []replay.Mode{replay.ModeNone, replay.ModePMP, replay.ModePMPT, replay.ModeHPMP} {
		c := base
		c.Mode = mode
		out = append(out, c)
	}
	// Deep permission tables: depths 3 and 4 for both table-walking modes.
	for _, mode := range []replay.Mode{replay.ModePMPT, replay.ModeHPMP} {
		for _, depth := range []int{3, 4} {
			c := base
			c.Mode = mode
			c.TableDepth = depth
			out = append(out, c)
		}
	}
	// Degenerate geometry: every cache structure absent (no L2 TLB, no PWC,
	// zero-capacity PMPTW cache) on a table-walking mode.
	deg := base
	deg.Mode = replay.ModePMPT
	deg.L2TLBEntries = -1
	deg.PWCEntries = -1
	deg.PMPTWCache = -1
	out = append(out, deg)
	// PMPTW cache enabled (the §7 sensitivity config).
	wc := base
	wc.Mode = replay.ModeHPMP
	wc.PMPTWCache = 8
	out = append(out, wc)
	return out
}

// matrixName is the expectation file of one matrix config; the batched and
// scalar entry points share it.
func matrixName(c replay.Config) string {
	c.Scalar = false
	return "matrix-" + strings.NewReplacer("/", "-", "=", "", " ", "_").Replace(c.String())
}

func replayMatrixOnce(t *testing.T, cfg replay.Config, events []obs.Event) *replay.Engine {
	t.Helper()
	e, err := replay.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(events); err != nil {
		t.Fatal(err)
	}
	if e.Stats.Divergences != 0 {
		t.Fatalf("config %s diverged %d times; first: %s", cfg, e.Stats.Divergences, e.Stats.First)
	}
	if e.Stats.Accesses == 0 {
		t.Fatalf("config %s replayed no accesses (%+v)", cfg, e.Stats)
	}
	return e
}

func TestPipelineDifferentialMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a recorded trace through every machine config")
	}
	events := recordMatrixTrace(t)
	for _, cfg := range matrixVariants() {
		for _, scalar := range []bool{false, true} {
			cfg := cfg
			cfg.Scalar = scalar
			t.Run(cfg.String(), func(t *testing.T) {
				e := replayMatrixOnce(t, cfg, events)
				checkExpectation(t, matrixName(cfg), replayFingerprint(machineOnly(e.Counters()), e.Now(), e.Histograms()))
			})
		}
	}
}

// TestPipelineScalarBatchEquivalence proves the two entry points identical
// on the same machine: the scalar drain of the same stream lands
// on the same machine counters, clock, and histograms as the batched one.
func TestPipelineScalarBatchEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a recorded trace twice per isolation mode")
	}
	events := recordMatrixTrace(t)
	base := replay.DefaultConfig()
	for _, mode := range []replay.Mode{replay.ModeNone, replay.ModePMP, replay.ModePMPT, replay.ModeHPMP} {
		cfg := base
		cfg.Mode = mode
		t.Run(string(mode), func(t *testing.T) {
			batched := replayMatrixOnce(t, cfg, events)
			cfg.Scalar = true
			scalar := replayMatrixOnce(t, cfg, events)
			if !reflect.DeepEqual(machineOnly(batched.Counters()), machineOnly(scalar.Counters())) {
				t.Error("machine counters differ between batch and scalar entry points")
			}
			if batched.Now() != scalar.Now() {
				t.Errorf("final clock: batch %d, scalar %d", batched.Now(), scalar.Now())
			}
			if !reflect.DeepEqual(batched.Histograms(), scalar.Histograms()) {
				t.Error("latency histograms differ between batch and scalar entry points")
			}
		})
	}
}
