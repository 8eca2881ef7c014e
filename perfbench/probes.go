package main

import (
	"bytes"
	"fmt"
	"time"

	"hpmp/internal/addr"
	"hpmp/internal/cache"
	"hpmp/internal/cpu"
	"hpmp/internal/dram"
	"hpmp/internal/hpmp"
	"hpmp/internal/kernel"
	"hpmp/internal/memport"
	"hpmp/internal/mmu"
	"hpmp/internal/monitor"
	"hpmp/internal/obs"
	"hpmp/internal/perm"
	"hpmp/internal/phys"
	"hpmp/internal/pmpt"
	"hpmp/internal/pt"
	"hpmp/internal/ptw"
	"hpmp/internal/replay"
	"hpmp/internal/workloads"
)

// The layer probes time one public call of a layer in isolation, from
// outside the program, in the traced run only. They are not gated: they
// show which layer moved when an end-to-end number did.

// probeReps is how many timed repetitions each probe makes; it reports
// the median.
const probeReps = 5

// probeFn runs n iterations of one probed call.
type probeFn = func(n int) error

// timeProbe warms fn with a short call, then times probeReps calls of n
// iterations each and returns the median nanoseconds per iteration.
func timeProbe(n int, fn probeFn) (float64, error) {
	if err := fn(n/10 + 1); err != nil {
		return 0, err
	}
	var ns []float64
	for i := 0; i < probeReps; i++ {
		t := time.Now()
		if err := fn(n); err != nil {
			return 0, err
		}
		ns = append(ns, float64(time.Since(t).Nanoseconds())/float64(n))
	}
	return median(ns), nil
}

// probes lists every probe with its iteration count. Cyclic working sets
// just above each cache level's capacity (L1 32 KiB, L2 512 KiB, LLC
// 4 MiB) make every access miss there under LRU and hit one level out.
var probes = []struct {
	name string
	n    int
	mk   func(env *kernel.Env) (probeFn, error)
}{
	{"probe.cache_l1_ns", 200_000, func(*kernel.Env) (probeFn, error) { return cacheProbe(64, cache.LvlL1) }},
	{"probe.cache_l2_ns", 200_000, func(*kernel.Env) (probeFn, error) { return cacheProbe(64*addr.KiB, cache.LvlL2) }},
	{"probe.cache_llc_ns", 200_000, func(*kernel.Env) (probeFn, error) { return cacheProbe(addr.MiB, cache.LvlLLC) }},
	{"probe.cache_dram_ns", 200_000, func(*kernel.Env) (probeFn, error) { return cacheProbe(8*addr.MiB, cache.LvlDRAM) }},
	{"probe.phys_read64_ns", 200_000, func(*kernel.Env) (probeFn, error) { return physProbe() }},
	{"probe.kernel_demand_fault_ns", 2_000, demandFaultProbe},
	{"probe.workloads_u32_get_ns", 100_000, u32GetProbe},
	{"probe.obs_encode_event_ns", 20_000, func(*kernel.Env) (probeFn, error) { return encodeProbe() }},
	{"probe.obs_decode_event_ns", 20_000, func(*kernel.Env) (probeFn, error) { return decodeProbe() }},
	{"probe.obs_emit_ns", 1_000_000, func(*kernel.Env) (probeFn, error) { return emitProbe() }},
	{"probe.tlb_l1_hit_ns", 500_000, func(*kernel.Env) (probeFn, error) { return tlbHitProbe() }},
	{"probe.ptw_pwc_hit_ns", 500_000, func(*kernel.Env) (probeFn, error) { return pwcHitProbe() }},
	{"probe.pmpt_cache_hit_ns", 500_000, func(*kernel.Env) (probeFn, error) { return pmptCacheHitProbe() }},
	{"probe.replay_block_ns", 2_000, func(*kernel.Env) (probeFn, error) { return replayBlockProbe() }},
}

// runProbes runs every probe and returns nanoseconds per call keyed by
// metric name. The kernel probes share one booted process.
func runProbes() (map[string]float64, error) {
	env, err := probeEnv()
	if err != nil {
		return nil, fmt.Errorf("probe set-up: %w", err)
	}
	out := map[string]float64{}
	for _, p := range probes {
		fn, err := p.mk(env)
		if err == nil {
			out[p.name], err = timeProbe(p.n, fn)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return out, nil
}

// newHierarchy is the cache hierarchy the probes use: 32 KiB L1, 512 KiB
// L2 and 4 MiB LLC, all 8-way with 64-byte lines, over the default DRAM.
func newHierarchy() *cache.Hierarchy {
	return &cache.Hierarchy{
		L1:         cache.New(cache.Config{Name: "l1d", Size: 32 * addr.KiB, Ways: 8, LineSize: 64, Latency: 2}),
		L2:         cache.New(cache.Config{Name: "l2", Size: 512 * addr.KiB, Ways: 8, LineSize: 64, Latency: 12}),
		LLC:        cache.New(cache.Config{Name: "llc", Size: 4 * addr.MiB, Ways: 8, LineSize: 64, Latency: 26}),
		Mem:        dram.New(dram.Default()),
		ClockRatio: 1.0,
	}
}

// cacheProbe times Hierarchy.Access cycling over a working set of the
// given size, and fails if any access is satisfied at another level.
func cacheProbe(size uint64, want cache.Level) (probeFn, error) {
	h := newHierarchy()
	lines := size / 64
	for i := uint64(0); i < lines; i++ {
		h.Access(addr.PA(i*64), 0, false)
	}
	next, now := uint64(0), uint64(0)
	return func(n int) error {
		for i := 0; i < n; i++ {
			r := h.Access(addr.PA(next*64), now, false)
			if r.Level != want {
				return fmt.Errorf("access hit %v, want %v", r.Level, want)
			}
			now += r.Latency
			if next++; next == lines {
				next = 0
			}
		}
		return nil
	}, nil
}

func physProbe() (probeFn, error) {
	const frames = 4096
	mem := phys.New(64 * addr.MiB)
	for f := uint64(0); f < frames; f++ {
		if err := mem.Write64(addr.PA(f*addr.PageSize), f); err != nil {
			return nil, err
		}
	}
	next := uint64(0)
	return func(n int) error {
		for i := 0; i < n; i++ {
			v, err := mem.Read64(addr.PA(next * addr.PageSize))
			if err != nil || v != next {
				return fmt.Errorf("Read64 frame %d = %d, %v", next, v, err)
			}
			if next++; next == frames {
				next = 0
			}
		}
		return nil
	}, nil
}

// probeEnv boots a Rocket machine under the HPMP monitor and a kernel, and
// returns the environment of one spawned process.
func probeEnv() (*kernel.Env, error) {
	const memSize = 512 * addr.MiB
	mach := cpu.NewMachine(cpu.RocketPlatform(), memSize)
	mon, err := monitor.Boot(mach, monitor.DefaultConfig(monitor.ModeHPMP))
	if err != nil {
		return nil, err
	}
	k, err := kernel.New(mach, mon, kernel.DefaultConfig(memSize))
	if err != nil {
		return nil, err
	}
	p, err := k.Spawn(kernel.Image{Name: "probe", TextPages: 4, DataPages: 4})
	if err != nil {
		return nil, err
	}
	return k.NewEnv(p)
}

// demandFaultProbe loads from pages nothing has touched, so every load
// takes the kernel's demand-fault path. Each call maps fresh pages.
func demandFaultProbe(env *kernel.Env) (probeFn, error) {
	return func(n int) error {
		base := env.Alloc(uint64(n) * addr.PageSize)
		for i := 0; i < n; i++ {
			v, err := env.Load64(base + addr.VA(i)*addr.PageSize)
			if err != nil || v != 0 {
				return fmt.Errorf("Load64 on a fresh page = %d, %v", v, err)
			}
		}
		return nil
	}, nil
}

func u32GetProbe(env *kernel.Env) (probeFn, error) {
	const elems = 16384
	a := workloads.NewU32Array(env, elems)
	if err := a.Fill(7); err != nil {
		return nil, err
	}
	next := 0
	return func(n int) error {
		for i := 0; i < n; i++ {
			v, err := a.Get(next)
			if err != nil || v != 7 {
				return fmt.Errorf("Get(%d) = %d, %v", next, v, err)
			}
			if next++; next == elems {
				next = 0
			}
		}
		return nil
	}, nil
}

// syntheticTracer holds n access events with varied addresses and
// outcomes, shaped like a recorded trace.
func syntheticTracer(n int) *obs.Tracer {
	tr := obs.NewTracer(n, 1)
	paths := []obs.TLBPath{obs.TLBL1, obs.TLBL2, obs.TLBMiss}
	for i := 0; i < n; i++ {
		tr.Emit(obs.Event{
			Kind:   obs.KindAccess,
			Access: perm.Access(i % 3),
			TLB:    paths[i%3],
			Level:  -1,
			VA:     addr.VA(0x4000_0000 + uint64(i)*72),
			PA:     addr.PA(0x80_0000 + uint64(i)*72),
			Refs:   uint16(1 + i%12),
			Cycles: uint64(20 + i%300),
		})
	}
	return tr
}

// encodeProbe times obs.WriteTrace; n is the number of events encoded.
func encodeProbe() (probeFn, error) {
	var buf bytes.Buffer
	return func(n int) error {
		tr := syntheticTracer(n)
		buf.Reset()
		return obs.WriteTrace(&buf, "probe", tr)
	}, nil
}

// decodeProbe times obs.ReadTrace; n is the number of events decoded.
func decodeProbe() (probeFn, error) {
	encoded := map[int][]byte{}
	return func(n int) error {
		data, ok := encoded[n]
		if !ok {
			var buf bytes.Buffer
			if err := obs.WriteTrace(&buf, "probe", syntheticTracer(n)); err != nil {
				return err
			}
			data = buf.Bytes()
			encoded[n] = data
		}
		_, evs, err := obs.ReadTrace(bytes.NewReader(data))
		if err == nil && len(evs) != n {
			err = fmt.Errorf("decoded %d events, want %d", len(evs), n)
		}
		return err
	}, nil
}

func emitProbe() (probeFn, error) {
	tr := obs.NewTracer(obs.DefaultRing, 1)
	ev := obs.Event{Kind: obs.KindAccess, Access: perm.Read, TLB: obs.TLBL1, VA: 0x1000, PA: 0x2000, Level: -1}
	return func(n int) error {
		for i := 0; i < n; i++ {
			tr.Emit(ev)
		}
		return nil
	}, nil
}

// tlbHitProbe times mmu.Access on a page whose translation sits in the L1
// TLB, under an HPMP checker with one segment covering memory.
func tlbHitProbe() (probeFn, error) {
	const memSize = 256 * addr.MiB
	mem := phys.New(memSize)
	hier := newHierarchy()
	tbl, err := pt.New(mem, phys.NewFrameAllocator(addr.Range{Base: 0x40_0000, Size: 4 * addr.MiB}, false), addr.Sv39)
	if err != nil {
		return nil, err
	}
	checker := hpmp.New(&pmpt.Walker{Port: &memport.Timed{Hier: hier, Mem: mem}})
	if err := checker.SetSegment(0, addr.Range{Base: 0, Size: memSize}, perm.RWX, false); err != nil {
		return nil, err
	}
	m := mmu.New(mmu.DefaultConfig(addr.Sv39), hier, mem, checker)
	m.SetRoot(tbl.Root())
	va := addr.VA(0x1000_0000)
	if err := tbl.Map(va, 0x800_0000, perm.RW, true); err != nil {
		return nil, err
	}
	var res mmu.Result
	now := uint64(0)
	return func(n int) error {
		for i := 0; i < n; i++ {
			if err := m.Access(va, perm.Read, perm.U, now, &res); err != nil || res.Faulted() {
				return fmt.Errorf("access faulted: %+v, %v", res, err)
			}
			now += res.Latency
		}
		return nil
	}, nil
}

// pwcHitProbe times a page walk whose three PTE fetches all hit the page
// walk cache.
func pwcHitProbe() (probeFn, error) {
	mem := phys.New(64 * addr.MiB)
	tbl, err := pt.New(mem, phys.NewFrameAllocator(addr.Range{Base: 0x40_0000, Size: 4 * addr.MiB}, false), addr.Sv39)
	if err != nil {
		return nil, err
	}
	va := addr.VA(0x1000_0000)
	if err := tbl.Map(va, 0x80_0000, perm.RW, true); err != nil {
		return nil, err
	}
	w := ptw.New(addr.Sv39, &memport.Flat{Mem: mem, Latency: 10}, nil, 8)
	now := uint64(0)
	return func(n int) error {
		for i := 0; i < n; i++ {
			res, err := w.Walk(tbl.Root(), va, now)
			if err != nil || res.PageFault {
				return fmt.Errorf("walk failed: %+v, %v", res, err)
			}
			now += res.Latency + 1
		}
		return nil
	}, nil
}

// pmptCacheHitProbe times a 2-level permission-table walk whose pmpte
// fetches hit the PMPT walker cache.
func pmptCacheHitProbe() (probeFn, error) {
	mem := phys.New(256 * addr.MiB)
	region := addr.Range{Base: 0, Size: 256 * addr.MiB}
	tbl, err := pmpt.NewTable(mem, phys.NewFrameAllocator(addr.Range{Base: 0x10_0000, Size: 16 * addr.MiB}, false), region)
	if err != nil {
		return nil, err
	}
	pa := addr.PA(0x800_0000)
	if err := tbl.SetRangePerm(addr.Range{Base: pa, Size: addr.MiB}, perm.RW); err != nil {
		return nil, err
	}
	wc := pmpt.NewWalkerCache(8)
	wc.Enabled = true
	w := &pmpt.Walker{Port: &memport.Flat{Mem: mem, Latency: 10}, Cache: wc}
	now := uint64(0)
	return func(n int) error {
		for i := 0; i < n; i++ {
			res, err := w.Walk(tbl.RootBase(), region, pa, now)
			if err != nil || !res.Valid {
				return fmt.Errorf("walk failed: %+v, %v", res, err)
			}
			now += res.Latency + 1
		}
		return nil
	}, nil
}

// replayBlockProbe times replaying one block (replay.BlockMax events) of
// re-touches of 64 already mapped pages, flush included; n counts blocks.
func replayBlockProbe() (probeFn, error) {
	cfg := replay.DefaultConfig()
	cfg.MemSize = 64 * addr.MiB
	e, err := replay.New(cfg)
	if err != nil {
		return nil, err
	}
	var warm []obs.Event
	for i := 0; i < 64; i++ {
		warm = append(warm, obs.Event{
			Kind:   obs.KindAccess,
			Access: perm.Access(i % 3),
			TLB:    obs.TLBMiss,
			VA:     addr.VA(0x4000_0000+i*addr.PageSize) + 8,
			PA:     addr.PA(0x80_0000+i*addr.PageSize) + 8,
		})
	}
	if err := e.Run(warm); err != nil {
		return nil, err
	}
	block := make([]obs.Event, replay.BlockMax)
	for i := range block {
		block[i] = warm[i%len(warm)]
	}
	return func(n int) error {
		for i := 0; i < n; i++ {
			for j := range block {
				if err := e.Step(block[j]); err != nil {
					return err
				}
			}
			if err := e.Flush(); err != nil {
				return err
			}
		}
		if e.Stats.Divergences != 0 {
			return fmt.Errorf("replay diverged: %s", e.Stats.First)
		}
		return nil
	}, nil
}
