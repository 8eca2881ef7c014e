package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// expected.json holds the digest of every checked output: experiment
// results, replay counters per mode, the daemon's reference metrics, and
// the replay trace's event count.
//
//go:embed expected.json
var expectedJSON []byte

func expectedDigests() map[string]string {
	var m map[string]string
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		panic(fmt.Sprintf("expected.json: %v", err))
	}
	return m
}

// endToEnd fills the metrics of an untraced run.
func endToEnd(out map[string]metric, setup, plain *phase) {
	out["setup_s"] = metric{median(setup.setups), "s"}
	out["wall_s"] = metric{median(plain.units), "s"}
	out["peak_rss_mib"] = metric{peakRSSMiB(), "MiB"}
}

// spanNames are the benchmark's spans reported as span.<name>_s.
var spanNames = []string{
	"warmup", "run", "record", "encode", "decode", "replay_new", "replay_run",
	"submit", "queue_wait", "job_run", "result", "trace_download", "scrape",
}

// counterMetrics derive per-layer counts from the simulator's counters.
// Counts are per unit; ratios are hits over lookups.
var counterMetrics = []struct {
	name  string
	value func(c map[string]uint64) float64
	ratio bool
}{
	{"sim.refs", simRefs, false},
	{"tlb.l1_hit_ratio", func(c map[string]uint64) float64 {
		return ratio(c["dtlb.hit"]+c["itlb.hit"], c["dtlb.hit"]+c["itlb.hit"]+c["dtlb.miss"]+c["itlb.miss"])
	}, true},
	{"tlb.l2_hit_ratio", func(c map[string]uint64) float64 { return ratio(c["stlb.hit"], c["stlb.hit"]+c["stlb.miss"]) }, true},
	{"ptw.walks", ptwWalks, false},
	{"ptw.pwc_hit_ratio", func(c map[string]uint64) float64 { return ratio(c["ptw.pwc_hit"], c["ptw.pwc_hit"]+c["ptw.pte_fetch"]) }, true},
	{"pmpt.walks", func(c map[string]uint64) float64 { return float64(c["pmptw.walk"]) }, false},
	{"pmpt.cache_hit_ratio", func(c map[string]uint64) float64 {
		return ratio(c["pmptw.cache_hit"], c["pmptw.cache_hit"]+c["pmptw.mem_ref"])
	}, true},
	{"hpmp.checks", func(c map[string]uint64) float64 { return float64(c["hpmp.segment_check"] + c["hpmp.table_check"]) }, false},
	{"cache.accesses", cacheAccesses, false},
	{"cache.l1_hit_ratio", func(c map[string]uint64) float64 { return ratio(c["mem.l1_hit"], uint64(cacheAccesses(c))) }, true},
	{"dram.accesses", func(c map[string]uint64) float64 { return float64(c["mem.dram_access"]) }, false},
	{"kernel.page_faults", func(c map[string]uint64) float64 { return float64(c["kernel.page_fault"]) }, false},
	{"kernel.spawns", func(c map[string]uint64) float64 { return float64(c["kernel.spawn"]) }, false},
	{"mmu.tlb_flushes", func(c map[string]uint64) float64 { return float64(c["mmu.tlb_flush"] + c["mmu.tlb_flush_va"]) }, false},
}

func simRefs(c map[string]uint64) float64 {
	return float64(c["dtlb.hit"] + c["dtlb.miss"] + c["itlb.hit"] + c["itlb.miss"])
}

func ptwWalks(c map[string]uint64) float64 {
	return float64(c["ptw.walk_ok"] + c["ptw.page_fault"] + c["ptw.access_fault"])
}

func cacheAccesses(c map[string]uint64) float64 {
	return float64(c["mem.l1_hit"] + c["mem.l2_hit"] + c["mem.llc_hit"] + c["mem.dram_access"])
}

func ratio(hits, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// nsPerOpLayers divide a layer's profiled self time by its work count.
var nsPerOpLayers = []struct {
	layer string
	count func(p *phase) float64
}{
	{"cache", func(p *phase) float64 { return cacheAccesses(p.counters) }},
	{"ptw", func(p *phase) float64 { return ptwWalks(p.counters) }},
	{"pmpt", func(p *phase) float64 { return float64(p.counters["pmptw.walk"]) }},
	{"kernel", func(p *phase) float64 { return float64(p.counters["kernel.page_fault"]) }},
	{"obs", func(p *phase) float64 { return p.work["obs"] }},
	{"replay", func(p *phase) float64 { return p.work["replay"] }},
	{"serve", func(p *phase) float64 { return p.work["serve"] }},
}

// layerMetrics fills the per-layer metrics of a traced run. Per-unit
// figures divide by the traced phase's units; the throughput and latency
// figures come from the untraced phase of the same run. A metric whose
// layer the workload does not reach reads 0.
func layerMetrics(out map[string]metric, setup, plain *phase, tp *traced) error {
	units := float64(len(tp.units))
	if units == 0 {
		return fmt.Errorf("traced phase completed no unit")
	}
	for _, l := range layers {
		out[l+".self_s"] = metric{tp.prof.seconds[l] / units, "s"}
	}
	out["profile.attributed_ratio"] = metric{(tp.prof.total - tp.prof.unassigned) / tp.prof.total, "ratio"}
	out["trace.overhead_ratio"] = metric{median(tp.units) / median(plain.units), "ratio"}
	for _, c := range counterMetrics {
		v := c.value(tp.counters)
		unit := "ratio"
		if !c.ratio {
			v /= units
			unit = "count"
		}
		out[c.name] = metric{v, unit}
	}
	for _, l := range nsPerOpLayers {
		ns := 0.0
		if n := l.count(tp.phase); n > 0 {
			ns = tp.prof.seconds[l.layer] * 1e9 / n
		}
		out[l.layer+".ns_per_op"] = metric{ns, "ns"}
	}
	nsPerRef := 0.0
	if refs := simRefs(tp.counters); refs > 0 {
		nsPerRef = tp.end.Sub(tp.start).Seconds() * 1e9 / refs
	}
	out["sim.ns_per_ref"] = metric{nsPerRef, "ns"}
	for _, s := range spanNames {
		v := tp.spanMedian(s)
		if v == 0 {
			v = setup.spanMedian(s)
		}
		out["span."+s+"_s"] = metric{v, "s"}
	}
	out["gc.cycles"] = metric{tp.gc.cycles / units, "count"}
	out["gc.alloc_mib"] = metric{tp.gc.allocBytes / units / (1 << 20), "MiB"}
	out["gc.pause_s"] = metric{tp.gc.pauseSeconds / units, "s"}
	for _, p := range probes {
		out[p.name] = metric{tp.probes[p.name], "ns"}
	}
	out["replay.events_per_s"] = metric{median(plain.samples["events_per_s"]), "1/s"}
	jobs := 0.0
	if len(plain.samples["latency"]) > 0 {
		jobs = float64(plain.attempted) / plain.end.Sub(plain.start).Seconds()
	}
	out["daemon.jobs_per_s"] = metric{jobs, "1/s"}
	out["daemon.job_latency_p50_s"] = metric{median(plain.samples["latency"]), "s"}
	v, pct, beyond, _ := tail(plain.samples["latency"])
	out["daemon.job_latency_tail_s"] = metric{v, "s"}
	out["daemon.job_latency_tail_pct"] = metric{pct, "%"}
	out["daemon.job_latency_tail_beyond"] = metric{float64(beyond), "count"}
	return nil
}
