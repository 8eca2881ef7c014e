// Command perfbench is the repository's benchmark: it drives the simulator,
// the trace replay engine and the hpmpsimd daemon core through their public
// Go APIs, checks every operation's output against committed digests, and
// prints one JSON result line. README.md explains the workloads and the
// metrics; run it through run.sh from the repository root.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// setupReps is how many times a run repeats its set-up phase; setup_s is
// the median, so one slow repetition does not move it.
const setupReps = 5

// maxProcs caps GOMAXPROCS, daemon workers and tenant clients: the
// benchmark never asks for more parallelism than a 2-vCPU host has.
var maxProcs = min(2, runtime.NumCPU())

// workload is one named traffic mix. setup is one repetition of the
// set-up phase (the last repetition's state is what measure uses);
// measure runs operations until the deadline and records them in p.
type workload interface {
	setup(r *runner, p *phase) error
	measure(r *runner, p *phase, deadline time.Time) error
}

var workloadsByName = map[string]func() workload{
	"gap":    func() workload { return &experimentWorkload{id: "fig11bc"} },
	"faas":   func() workload { return &experimentWorkload{id: "fig12ab"} },
	"replay": func() workload { return &replayWorkload{} },
	"daemon": func() workload { return &daemonWorkload{} },
}

// runner carries what every workload needs: the seed, the expected
// digests, and a log for diagnostics (standard error).
type runner struct {
	seed     int64
	expected map[string]string
	log      func(format string, args ...any)
}

// check compares a computed digest with the committed one and reports a
// mismatch. It returns false on mismatch or when no digest is committed.
func (r *runner) check(key, got string) bool {
	want, ok := r.expected[key]
	if !ok {
		r.log("check %s: no expected digest committed (got %s)", key, got)
		return false
	}
	if got != want {
		r.log("check %s: got %s, want %s", key, got, want)
		return false
	}
	return true
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: gap, faas, replay or daemon")
	seed := flag.Int64("seed", 1, "seed for the inputs the benchmark generates")
	seconds := flag.Int("seconds", 15, "how long the measured phase runs")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	mk, ok := workloadsByName[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(maxProcs)
	r := &runner{seed: *seed, expected: expectedDigests(), log: func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}}
	res, err := run(r, mk(), time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark run: the set-up phase setupReps times, then
// the measured phase. A traced run measures twice — untraced, then with
// the CPU profiler on — and adds the layer probes.
func run(r *runner, w workload, d time.Duration, traced bool) (*result, error) {
	if c, ok := w.(interface{ close() error }); ok {
		defer func() {
			if err := c.close(); err != nil {
				r.log("stopping the workload: %v", err)
			}
		}()
	}
	setup := newPhase()
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		if err := w.setup(r, setup); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	plain := newPhase()
	runtime.GC()
	if err := w.measure(r, plain, time.Now().Add(d)); err != nil {
		return nil, err
	}
	plain.end = time.Now()
	if len(plain.units) == 0 {
		return nil, errors.New("measured phase completed no operation")
	}
	res := &result{Attempted: plain.attempted, Failed: plain.failed, Metrics: map[string]metric{}}
	if !traced {
		endToEnd(res.Metrics, setup, plain)
	} else {
		tp, err := tracedPhase(r, w, d)
		if err != nil {
			return nil, err
		}
		res.Attempted += tp.attempted
		res.Failed += tp.failed
		if err := layerMetrics(res.Metrics, setup, plain, tp); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// sortedKeys returns m's keys in order, for deterministic digests.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
