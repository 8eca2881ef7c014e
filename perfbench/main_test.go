package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime/pprof"
	"slices"
	"sort"
	"testing"
	"time"
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// fakeTraced is a traced phase with every field set, so layerMetrics
// emits its full metric set.
func fakeTraced() (setup, plain *phase, tp *traced) {
	setup, plain = newPhase(), newPhase()
	plain.units = []float64{1}
	plain.end = plain.start.Add(time.Second)
	tp = &traced{phase: newPhase(), prof: &attribution{seconds: map[string]float64{"cache": 1}, total: 1}}
	tp.units = []float64{1}
	return setup, plain, tp
}

// TestMetricNames checks BENCHMARK.json against the metrics the benchmark
// prints: the same names and units, each name unique and well formed.
func TestMetricNames(t *testing.T) {
	spec := readSpec(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, list := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("malformed metric %q (unit %q)", m.Name, m.Unit)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if seen[m.Name] {
				t.Errorf("metric %q listed twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}

	check := func(kind string, listed []metricSpec, printed map[string]string) {
		t.Helper()
		want := map[string]string{}
		for _, m := range listed {
			want[m.Name] = m.Unit
		}
		for name, unit := range printed {
			if want[name] != unit {
				t.Errorf("%s metric %s (%s) printed, BENCHMARK.json has unit %q", kind, name, unit, want[name])
			}
		}
		for name := range want {
			if _, ok := printed[name]; !ok {
				t.Errorf("%s metric %s listed but never printed", kind, name)
			}
		}
	}
	units := func(out map[string]metric) map[string]string {
		printed := map[string]string{}
		for name, m := range out {
			printed[name] = m.Unit
		}
		return printed
	}
	setup, plain, tp := fakeTraced()
	out := map[string]metric{}
	endToEnd(out, setup, plain)
	check("end-to-end", spec.EndToEnd, units(out))
	out = map[string]metric{}
	if err := layerMetrics(out, setup, plain, tp); err != nil {
		t.Fatal(err)
	}
	check("per-layer", spec.PerLayer, units(out))

	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := sortedKeys(workloadsByName); !slices.Equal(got, names) {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", got, names)
	}
}

// TestDaemonDigests runs the daemon workload against the committed
// digests, which must all pass on this code, and again with one digest
// perturbed before set-up, as a changed expected.json would be: set-up
// must still succeed and that experiment's jobs count as failed
// operations.
func TestDaemonDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the daemon and runs simulations")
	}
	for _, perturb := range []bool{false, true} {
		r := &runner{seed: 3, expected: expectedDigests(), log: t.Logf}
		if perturb {
			r.expected["daemon.fig14bc"] = perturbed(r.expected["daemon.fig14bc"])
		}
		w := &daemonWorkload{}
		p := newPhase()
		if err := w.setup(r, newPhase()); err != nil {
			t.Fatal(err)
		}
		if err := w.measure(r, p, time.Now().Add(300*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		// Every deck of four jobs holds one fig14bc job, so a perturbed
		// run fails some jobs and passes the fig13 ones.
		switch {
		case p.attempted < len(daemonMix):
			t.Fatalf("only %d jobs ran", p.attempted)
		case !perturb && p.failed != 0:
			t.Errorf("%d of %d jobs failed their checks on unchanged code", p.failed, p.attempted)
		case perturb && (p.failed == 0 || p.failed == p.attempted):
			t.Errorf("perturbed fig14bc digest: %d of %d jobs failed, want the fig14bc ones only", p.failed, p.attempted)
		}
	}
}

// TestPerturbedExperimentDigest checks an experiment run against a
// perturbed digest: the run is reported as a failed operation.
func TestPerturbedExperimentDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	w := &experimentWorkload{id: "fig10"}
	o, err := w.runOnce(false)
	if err != nil || !o.OK() {
		t.Fatalf("fig10: %v %v", o.Status, err)
	}
	good := resultDigest(o.Result)
	for _, tc := range []struct {
		digest string
		failed int
	}{{good, 0}, {perturbed(good), 1}} {
		r := &runner{expected: map[string]string{"fig10": tc.digest}, log: t.Logf}
		p := newPhase()
		if err := w.measure(r, p, time.Now()); err != nil {
			t.Fatal(err)
		}
		if p.attempted != 1 || p.failed != tc.failed {
			t.Errorf("digest %s…: %d of %d failed, want %d of 1", tc.digest[:8], p.failed, p.attempted, tc.failed)
		}
	}
}

// perturbed changes the first hex digit of a digest.
func perturbed(digest string) string {
	if digest[0] == '0' {
		return "1" + digest[1:]
	}
	return "0" + digest[1:]
}

// TestAttribution profiles quick experiment runs and requires at least 95%
// of the samples to land in a named layer, including the hot simulator
// layers.
func TestAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles simulations")
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		for _, id := range []string{"fig12ab", "fig11bc"} {
			if _, err := (&experimentWorkload{id: id}).runOnce(true); err != nil {
				t.Fatal(err)
			}
		}
	}
	pprof.StopCPUProfile()
	a, err := profileLayers(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got := (a.total - a.unassigned) / a.total; got < 0.95 {
		t.Errorf("%.1f%% of samples attributed, want >= 95%%", 100*got)
	}
	for _, l := range []string{"cache", "phys", "mmu"} {
		if a.seconds[l] == 0 {
			t.Errorf("no samples charged to %s", l)
		}
	}
}

// TestLayerOf pins the attribution rules on representative frames.
func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		fn    string
		layer string
		skip  bool
	}{
		{"hpmp/internal/cache.(*Cache).Lookup", "cache", false},
		{"hpmp/internal/pt.(*Table).Map", "kernel", false},
		{"hpmp/internal/miniredis.(*DB).Get", "workloads", false},
		{"hpmp/internal/addr.VA.PageBase", "", true},
		{"hpmp/internal/memport.(*Timed).Read", "", true},
		{"hpmp/internal/serve.sortedKeys[...]", "serve", false},
		{"hpmp/internal/newpkg.F", "", false},
		{"main.(*daemonWorkload).roundTrip", "harness", false},
		{"runtime.mallocgc", "", true},
		{"encoding/json.(*decodeState).object", "", true},
	} {
		layer, skip := layerOf(tc.fn)
		if layer != tc.layer || skip != tc.skip {
			t.Errorf("layerOf(%s) = %q, %v; want %q, %v", tc.fn, layer, skip, tc.layer, tc.skip)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, pct, beyond, ok := tail(xs)
	if !ok || pct != 99 || v != 990 || beyond != 10 {
		t.Errorf("tail of 1..1000 = %v at p%v with %d beyond, want 990 at p99 with 10", v, pct, beyond)
	}
	if _, _, _, ok := tail(xs[:5]); ok {
		t.Error("tail of 5 samples should not exist")
	}
}
