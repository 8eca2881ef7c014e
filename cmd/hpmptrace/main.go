// Command hpmptrace runs one workload under a chosen isolation mode with
// full access tracing and prints the translation-behaviour summary (TLB
// hit rates, reference breakdown, latency distribution) — the tool for
// understanding *why* a workload reacts to the permission table.
//
// Traces are written in the shared hpmp-trace/v1 JSONL format (see
// internal/obs), the same format cmd/hpmpsim's -trace flag emits, and
// hpmptrace reads either tool's files back with -read.
//
// Usage:
//
//	hpmptrace -mode pmpt -workload pyaes
//	hpmptrace -mode hpmp -workload qsort -csv trace.csv
//	hpmptrace -mode hpmp -workload qsort -trace qsort.trace.jsonl
//	hpmptrace -read qsort.trace.jsonl        # pretty-print any v1 trace
//	hpmptrace -stats qsort.trace.jsonl       # per-kind summary of any v1 trace
//	hpmptrace -replay-check qsort.trace.jsonl # verify replay round-trip
//	hpmptrace -list
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"text/tabwriter"

	"hpmp/internal/kernel"
	"hpmp/internal/monitor"
	"hpmp/internal/obs"
	"hpmp/internal/replay"
	"hpmp/internal/simcfg"
	"hpmp/internal/workloads"
)

func catalog() map[string]workloads.Workload {
	out := map[string]workloads.Workload{}
	for _, w := range workloads.RV8Suite() {
		out[w.Name()] = w
	}
	for _, w := range workloads.GAPSuite(9) {
		out[w.Name()] = w
	}
	for _, w := range workloads.FuncBenchSuite() {
		out[w.Name()] = w
	}
	return out
}

func main() {
	mf := simcfg.AddFlags(flag.CommandLine, "")
	wlFlag := flag.String("workload", "qsort", "workload name (see -list)")
	csvPath := flag.String("csv", "", "write the retained event ring as CSV to this file")
	tracePath := flag.String("trace", "", "write the retained event ring as a JSONL trace (hpmp-trace/v1) to this file")
	readPath := flag.String("read", "", "pretty-print a JSONL trace file and exit (no simulation)")
	statsPath := flag.String("stats", "", "print a per-kind summary of a JSONL trace file and exit (no simulation)")
	checkPath := flag.String("replay-check", "", "round-trip a JSONL trace through the replay engine twice and verify the replays agree byte-for-byte (no simulation)")
	keep := flag.Int("keep", 4096, "events retained in the ring")
	list := flag.Bool("list", false, "list workloads and exit")
	flag.Parse()

	if *readPath != "" {
		if err := readTrace(*readPath); err != nil {
			fatal(err)
		}
		return
	}
	if *statsPath != "" {
		if err := statsTrace(os.Stdout, *statsPath); err != nil {
			fatal(err)
		}
		return
	}
	if *checkPath != "" {
		if err := replayCheck(*checkPath); err != nil {
			fatal(err)
		}
		return
	}

	cat := catalog()
	if *list {
		for name := range cat {
			fmt.Println(name)
		}
		return
	}
	w, ok := cat[*wlFlag]
	if !ok {
		fmt.Fprintf(os.Stderr, "hpmptrace: unknown workload %q (try -list)\n", *wlFlag)
		os.Exit(2)
	}
	m := mf.Machine()
	if err := m.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "hpmptrace: %v\n", err)
		os.Exit(2)
	}
	mode, ok := m.Mode.MonitorMode()
	if !ok {
		fmt.Fprintf(os.Stderr, "hpmptrace: unknown mode %q\n", m.Mode)
		os.Exit(2)
	}

	mach := m.Assemble()
	plat := mach.Plat
	mon, err := monitor.Boot(mach, monitor.DefaultConfig(mode))
	if err != nil {
		fatal(err)
	}
	k, err := kernel.New(mach, mon, kernel.DefaultConfig(m.MemSize))
	if err != nil {
		fatal(err)
	}
	p, err := k.Spawn(kernel.Image{Name: w.Name(), TextPages: 32, DataPages: 32, HeapPages: 96 * 1024})
	if err != nil {
		fatal(err)
	}
	env, err := k.NewEnv(p)
	if err != nil {
		fatal(err)
	}

	rec := newRecorder(*keep)
	rec.Attach(mach.MMU)

	start := mach.Core.Now
	sum, err := w.Run(env)
	if err != nil {
		fatal(err)
	}
	cycles := mach.Core.Now - start

	fmt.Printf("workload %s under Penglai-%s on %s\n", w.Name(), mode, plat.Core.Name)
	fmt.Printf("result checksum %#x, %d cycles (%.3f ms simulated)\n\n",
		sum, cycles, float64(cycles)/(plat.Core.ClockGHz*1e6))
	fmt.Print(rec.Summary())

	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(rec.CSV()), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %d events to %s\n", len(rec.Events()), *csvPath)
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		source := fmt.Sprintf("%s/%s/%s", w.Name(), mode, plat.Core.Name)
		if err := obs.WriteTrace(f, source, rec.Tracer()); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %d events to %s\n", len(rec.Events()), *tracePath)
	}
}

// readTrace decodes a hpmp-trace/v1 file (from this tool or hpmpsim
// -trace) and pretty-prints it.
func readTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	h, events, err := obs.ReadTrace(f)
	if err != nil {
		return err
	}
	fmt.Printf("trace %s: source=%s sample-every=%d ring=%d seen=%d sampled=%d kept=%d\n",
		path, h.Source, h.SampleEvery, h.Ring, h.Seen, h.Sampled, h.Kept)
	for _, ev := range events {
		fmt.Println(obs.FormatEvent(ev))
	}
	return nil
}

// statsTrace summarizes a hpmp-trace/v1 file: per-kind event counts,
// total reference and cycle costs, and the min/median/max cycle latency.
// Output is deterministic for a given file (fixed kind order, integer
// cycles), so it golden-tests cleanly.
func statsTrace(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	h, events, err := obs.ReadTrace(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "trace %s: source=%s sample-every=%d seen=%d sampled=%d kept=%d\n",
		path, h.Source, h.SampleEvery, h.Seen, h.Sampled, h.Kept)

	type kindStats struct {
		count  int
		refs   uint64
		cycles []uint64
	}
	kinds := []obs.Kind{obs.KindAccess, obs.KindPTEFetch, obs.KindPMPTFetch, obs.KindCheck}
	byKind := map[obs.Kind]*kindStats{}
	for _, k := range kinds {
		byKind[k] = &kindStats{}
	}
	var totalRefs, totalCycles uint64
	for _, ev := range events {
		ks, ok := byKind[ev.Kind]
		if !ok { // future kinds degrade to the totals line, not a crash
			continue
		}
		ks.count++
		ks.refs += uint64(ev.Refs)
		ks.cycles = append(ks.cycles, ev.Cycles)
		totalRefs += uint64(ev.Refs)
		totalCycles += ev.Cycles
	}

	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "kind\tcount\trefs\tcycles\tmin\tmedian\tmax")
	for _, k := range kinds {
		ks := byKind[k]
		if ks.count == 0 {
			fmt.Fprintf(tw, "%s\t0\t0\t0\t-\t-\t-\n", k)
			continue
		}
		sort.Slice(ks.cycles, func(i, j int) bool { return ks.cycles[i] < ks.cycles[j] })
		var sum uint64
		for _, c := range ks.cycles {
			sum += c
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\n", k, ks.count, ks.refs, sum,
			ks.cycles[0], ks.cycles[(len(ks.cycles)-1)/2], ks.cycles[len(ks.cycles)-1])
	}
	fmt.Fprintf(tw, "total\t%d\t%d\t%d\t\t\t\n", len(events), totalRefs, totalCycles)
	return tw.Flush()
}

// replayCheck is the round-trip gate: parse the trace, replay it twice on
// the canonical replay config, and require the two replays to agree
// byte-for-byte (counters and Prometheus text) with zero divergences from
// the recorded outcomes. This is the CLI form of the replay-equivalence
// property the integration tier pins.
func replayCheck(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	h, events, err := obs.ReadTrace(f)
	f.Close()
	if err != nil {
		return err
	}
	run := func() (*replay.Engine, []byte, error) {
		e, err := replay.New(replay.DefaultConfig())
		if err != nil {
			return nil, nil, err
		}
		if err := e.Run(events); err != nil {
			return nil, nil, err
		}
		var prom bytes.Buffer
		if err := e.Metrics(h.Source).WritePrometheus(&prom); err != nil {
			return nil, nil, err
		}
		return e, prom.Bytes(), nil
	}
	e1, p1, err := run()
	if err != nil {
		return err
	}
	e2, p2, err := run()
	if err != nil {
		return err
	}
	if e1.Stats.Divergences > 0 {
		return fmt.Errorf("replay-check %s: replay diverged %d times; first: %s",
			path, e1.Stats.Divergences, e1.Stats.First)
	}
	if !reflect.DeepEqual(e1.Counters(), e2.Counters()) || !bytes.Equal(p1, p2) {
		return fmt.Errorf("replay-check %s: two replays of the same trace disagree", path)
	}
	s := e1.Stats
	fmt.Printf("replay-check %s: OK\n", path)
	fmt.Printf("  source %s, %d events; replayed %d accesses (%d skipped), %d maps, byte-identical twice\n",
		h.Source, s.Events, s.Accesses, s.Skipped(), s.Maps)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hpmptrace:", err)
	os.Exit(1)
}
