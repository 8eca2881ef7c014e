package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"hpmp/internal/bench"
	"hpmp/internal/obs"
	"hpmp/internal/replay"
)

// traceExperiment is the experiment whose full-sampled trace the replay
// workload decodes and replays; recordKeep must exceed its event count so
// the ring keeps every event.
const (
	traceExperiment = "fig12c"
	recordKeep      = 1 << 21
)

// replayWorkload is the replay user's path: decode an hpmp-trace/v1 JSONL
// trace held in memory, then replay it under each isolation mode. The
// seed orders the modes of every pass.
type replayWorkload struct {
	trace []byte
	rng   *rand.Rand
}

// setup records the trace with every event sampled and encodes it to
// in-memory JSONL, so no disk is touched later.
func (w *replayWorkload) setup(r *runner, p *phase) error {
	w.trace = nil
	exp, ok := bench.ByID(traceExperiment)
	if !ok {
		return fmt.Errorf("experiment %q is not registered", traceExperiment)
	}
	root := p.begin("setup", 0)
	id := p.begin("record", root)
	opts := bench.RunOptions{Parallel: 1, TraceEvery: 1, TraceKeep: recordKeep}
	o := bench.RunAll(context.Background(), bench.DefaultConfig(), []bench.Experiment{exp}, opts, nil)[0]
	p.finish(id)
	if !o.OK() {
		return fmt.Errorf("recording %s: %s: %v", traceExperiment, o.Status, o.Err)
	}
	if o.Trace.Seen() != uint64(o.Trace.Kept()) {
		return fmt.Errorf("recording %s: ring kept %d of %d events", traceExperiment, o.Trace.Kept(), o.Trace.Seen())
	}
	id = p.begin("encode", root)
	var buf bytes.Buffer
	err := obs.WriteTrace(&buf, traceExperiment, o.Trace)
	p.finish(id)
	p.setups = append(p.setups, p.finish(root))
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	w.trace = buf.Bytes()
	w.rng = rand.New(rand.NewSource(r.seed))
	return nil
}

// measure runs passes of one decode plus one replay per mode. Each is an
// operation; a pass is one unit.
func (w *replayWorkload) measure(r *runner, p *phase, deadline time.Time) error {
	for p.another(deadline) {
		runtime.GC()
		id := p.begin("decode", 0)
		h, events, err := obs.ReadTrace(bytes.NewReader(w.trace))
		unit := p.finish(id)
		if err != nil {
			r.log("decode: %v", err)
		}
		p.op(err == nil && len(events) == h.Kept && r.check("replay.events", strconv.Itoa(len(events))))
		p.addWork("obs", float64(len(events)))
		modes := append([]replay.Mode(nil), replay.Modes...)
		w.rng.Shuffle(len(modes), func(i, j int) { modes[i], modes[j] = modes[j], modes[i] })
		for _, mode := range modes {
			runtime.GC()
			secs, ok := w.replayOnce(r, p, mode, events)
			unit += secs
			p.op(ok)
		}
		p.unit(unit)
		p.sample("events_per_s", float64(len(events))/unit)
	}
	return nil
}

// replayOnce replays events on a fresh engine for mode and checks the
// engine's counters, which include its divergence count.
func (w *replayWorkload) replayOnce(r *runner, p *phase, mode replay.Mode, events []obs.Event) (float64, bool) {
	cfg := replay.DefaultConfig()
	cfg.Mode = mode
	id := p.begin("replay_new", 0)
	eng, err := replay.New(cfg)
	secs := p.finish(id)
	if err != nil {
		r.log("replay.New(%s): %v", mode, err)
		return secs, false
	}
	id = p.begin("replay_run", 0)
	err = eng.Run(events)
	secs += p.finish(id)
	if err != nil {
		r.log("replay %s: %v", mode, err)
		return secs, false
	}
	c := eng.Counters()
	p.addCounters(c)
	p.addWork("replay", float64(eng.Stats.Events))
	return secs, r.check("replay."+string(mode), countersDigest(c))
}

// countersDigest hashes a counter snapshot in name order.
func countersDigest(c map[string]uint64) string {
	h := sha256.New()
	for _, k := range sortedKeys(c) {
		fmt.Fprintf(h, "%s %d\n", k, c[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}
