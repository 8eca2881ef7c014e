package main

import (
	"math"
	"sort"
	"sync"
	"syscall"
	"time"
)

// phase collects what one phase of a run measured: set-up repetitions,
// measured units, operation outcomes, simulated counters, work counts per
// layer and the benchmark's own spans. Daemon clients record into one
// phase concurrently, hence the mutex.
type phase struct {
	mu    sync.Mutex
	start time.Time
	end   time.Time
	// setups holds the seconds of each set-up repetition.
	setups []float64
	// units holds the host seconds of each measured unit: one experiment
	// run (gap, faas), one decode plus four replays (replay), one tenant
	// job's round trip (daemon).
	units []float64
	// attempted and failed count operations and failed output checks.
	attempted, failed int
	// counters sums the simulator's own counters over the phase.
	counters map[string]uint64
	// work counts what the layers without simulator counters did: trace
	// events encoded or decoded (obs), events replayed (replay), HTTP
	// requests served (serve).
	work map[string]float64
	// samples holds per-operation observations beyond units, such as job
	// latencies, keyed by name.
	samples map[string][]float64
	spans   []span
}

// span is one timed call the benchmark made into the program. Spans with
// parent 0 are roots; ids start at 1.
type span struct {
	name       string
	id, parent int
	start, end time.Time
}

func newPhase() *phase {
	return &phase{start: time.Now(), counters: map[string]uint64{}, work: map[string]float64{}, samples: map[string][]float64{}}
}

// begin opens a span and returns its id.
func (p *phase) begin(name string, parent int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.spans = append(p.spans, span{name: name, id: len(p.spans) + 1, parent: parent, start: time.Now()})
	return len(p.spans)
}

// finish closes span id and returns its duration in seconds.
func (p *phase) finish(id int) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := &p.spans[id-1]
	s.end = time.Now()
	return s.end.Sub(s.start).Seconds()
}

// record adds a span whose bounds were measured elsewhere, such as the
// daemon's job timeline.
func (p *phase) record(name string, parent int, start, end time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.spans = append(p.spans, span{name: name, id: len(p.spans) + 1, parent: parent, start: start, end: end})
}

// spanMedian is the median duration of the spans named name, 0 if none.
func (p *phase) spanMedian(name string) float64 {
	var ds []float64
	for _, s := range p.spans {
		if s.name == name && !s.end.IsZero() {
			ds = append(ds, s.end.Sub(s.start).Seconds())
		}
	}
	return median(ds)
}

// op records one operation's outcome.
func (p *phase) op(ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	if !ok {
		p.failed++
	}
}

func (p *phase) unit(seconds float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.units = append(p.units, seconds)
}

func (p *phase) sample(name string, v float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.samples[name] = append(p.samples[name], v)
}

func (p *phase) addCounters(c map[string]uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for k, v := range c {
		p.counters[k] += v
	}
}

func (p *phase) addWork(layer string, n float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.work[layer] += n
}

// another reports whether a measured loop should start another unit: yes
// for the first, then while the deadline leaves room for at least half of
// the median unit so far. That keeps a run's length close to the
// requested seconds even when one unit takes several seconds.
func (p *phase) another(deadline time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.units) == 0 {
		return true
	}
	left := time.Until(deadline).Seconds()
	return left > 0 && left >= median(p.units)/2
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles are the candidates for a tail latency, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest candidate percentile of xs that has at least
// ten samples above it, with that percentile and the number of samples
// above it. ok is false when xs is too small for even the median.
func tail(xs []float64) (value, pct float64, beyond int, ok bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range tailPercentiles {
		idx := int(math.Ceil(p/100*float64(n))) - 1
		if idx < 0 {
			idx = 0
		}
		if above := n - idx - 1; above >= 10 {
			return s[idx], p, above, true
		}
	}
	return 0, 0, 0, false
}

// peakRSSMiB is the process's peak resident set size. Each run is its own
// process, so the figure belongs to one workload.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
