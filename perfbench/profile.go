package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// layers are the program's packages a CPU sample can be charged to.
// runtime takes stacks with no repository frame (GC, scheduler, network
// polling); harness takes the benchmark's own code.
var layers = []string{
	"bench", "workloads", "kernel", "monitor", "cpu", "mmu", "tlb", "ptw",
	"pmpt", "hpmp", "cache", "dram", "phys", "replay", "obs", "serve",
	"runtime", "harness",
}

// foldedPackages charges small packages to the layer they serve.
var foldedPackages = map[string]string{
	"pt":        "kernel",
	"pmp":       "hpmp",
	"miniredis": "workloads",
	"virt":      "ptw", // the nested (two-stage) page walk
	"iopmp":     "hpmp",
	"merkle":    "monitor",
	"hwcost":    "bench",
	"trace":     "obs",
}

// skippedPackages hold shared value types and glue; a sample whose
// innermost repository frame is one of them goes to the next frame out.
var skippedPackages = map[string]bool{
	"addr": true, "perm": true, "stats": true, "fastpath": true, "simcfg": true, "memport": true,
}

const repoPrefix = "hpmp/internal/"

// layerOf maps one function name from a profile to its layer. skip is
// true for frames that are not the repository's or are skipped; layer ""
// with skip false means a repository package no layer claims.
func layerOf(fn string) (layer string, skip bool) {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation
	}
	if strings.HasPrefix(fn, "main.") {
		return "harness", false
	}
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return "", true
	}
	pkg, _, _ := strings.Cut(rest, ".")
	pkg, _, _ = strings.Cut(pkg, "/")
	switch {
	case skippedPackages[pkg]:
		return "", true
	case foldedPackages[pkg] != "":
		return foldedPackages[pkg], false
	}
	for _, l := range layers {
		if l == pkg {
			return l, false
		}
	}
	return "", false
}

// attribution is a CPU profile split by layer.
type attribution struct {
	seconds    map[string]float64
	total      float64
	unassigned float64
}

// attribute charges each sample of a `go tool pprof -raw` listing to the
// layer of its innermost repository frame.
func attribute(raw []byte) (*attribution, error) {
	a := &attribution{seconds: map[string]float64{}}
	// Location id -> function names, innermost (inlined) first.
	frames := map[string][]string{}
	type sample struct {
		nanos float64
		locs  []string
	}
	var samples []sample
	section, lastLoc := "", ""
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch strings.TrimSpace(line) {
		case "Samples:", "Locations", "Mappings":
			section = strings.TrimSpace(line)
			continue
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		switch section {
		case "Samples:":
			// "<count> <nanoseconds>: <loc> <loc> ..."
			if len(f) < 3 || !strings.HasSuffix(f[1], ":") {
				continue
			}
			ns, err := strconv.ParseFloat(strings.TrimSuffix(f[1], ":"), 64)
			if err != nil {
				continue
			}
			samples = append(samples, sample{ns, f[2:]})
		case "Locations":
			// "<id>: <addr> M=<n> <func> <file:line> s=<n>", then one
			// indented "<func> <file:line> s=<n>" line per inlined caller.
			if strings.HasSuffix(f[0], ":") {
				lastLoc = strings.TrimSuffix(f[0], ":")
				frames[lastLoc] = nil
				if len(f) >= 4 {
					frames[lastLoc] = append(frames[lastLoc], f[3])
				}
			} else if lastLoc != "" {
				frames[lastLoc] = append(frames[lastLoc], f[0])
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("profile has no samples")
	}
	for _, s := range samples {
		a.total += s.nanos
		layer, found := "runtime", false
	stack:
		for _, loc := range s.locs {
			for _, fn := range frames[loc] {
				l, skip := layerOf(fn)
				if skip {
					continue
				}
				layer, found = l, true
				break stack
			}
		}
		if found && layer == "" {
			a.unassigned += s.nanos
			continue
		}
		a.seconds[layer] += s.nanos
	}
	for l := range a.seconds {
		a.seconds[l] /= 1e9
	}
	a.total /= 1e9
	a.unassigned /= 1e9
	return a, nil
}

// workDir is where a traced run writes its profile: inside the checkout,
// under the build directory run.sh uses.
func workDir() (string, error) {
	dir := filepath.Join(".bench_build", "perfbench")
	return dir, os.MkdirAll(dir, 0o755)
}

// profileLayers reads a CPU profile through `go tool pprof -raw` and
// attributes it.
func profileLayers(prof []byte) (*attribution, error) {
	dir, err := workDir()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("cpu-%d.pprof", os.Getpid()))
	if err := os.WriteFile(path, prof, 0o644); err != nil {
		return nil, err
	}
	defer os.Remove(path)
	cmd := exec.Command("go", "tool", "pprof", "-raw", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	return attribute(raw)
}

// gcStats is a reading of the Go runtime's collector.
type gcStats struct {
	cycles, allocBytes, pauseSeconds float64
}

func readGC() gcStats {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcStats{
		cycles:       float64(s[0].Value.Uint64()),
		allocBytes:   float64(s[1].Value.Uint64()),
		pauseSeconds: float64(ms.PauseTotalNs) / 1e9,
	}
}

// traced is what a traced phase adds to an ordinary one.
type traced struct {
	*phase
	prof   *attribution
	gc     gcStats
	probes map[string]float64
}

// tracedPhase measures the workload again with the CPU profiler on, then
// runs the layer probes.
func tracedPhase(r *runner, w workload, d time.Duration) (*traced, error) {
	tp := &traced{phase: newPhase()}
	var prof bytes.Buffer
	runtime.GC()
	before := readGC()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	tp.start = time.Now()
	err := w.measure(r, tp.phase, tp.start.Add(d))
	tp.end = time.Now()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	after := readGC()
	tp.gc = gcStats{after.cycles - before.cycles, after.allocBytes - before.allocBytes, after.pauseSeconds - before.pauseSeconds}
	if tp.prof, err = profileLayers(prof.Bytes()); err != nil {
		return nil, err
	}
	if tp.probes, err = runProbes(); err != nil {
		return nil, err
	}
	return tp, nil
}
