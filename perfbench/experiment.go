package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"hpmp/internal/bench"
)

// experimentWorkload regenerates one paper figure at full size through
// bench.RunAll, one experiment run per operation. The experiments are
// fixed paper set-ups with no seed of their own, so the seed changes
// nothing here.
type experimentWorkload struct {
	id string
}

// runOnce runs the experiment once and returns its outcome.
func (w *experimentWorkload) runOnce(quick bool) (bench.Outcome, error) {
	exp, ok := bench.ByID(w.id)
	if !ok {
		return bench.Outcome{}, fmt.Errorf("experiment %q is not registered", w.id)
	}
	cfg := bench.DefaultConfig()
	cfg.Quick = quick
	outs := bench.RunAll(context.Background(), cfg, []bench.Experiment{exp}, bench.RunOptions{Parallel: 1}, nil)
	return outs[0], nil
}

// setup is a quick-size run of the same experiment: it warms the code
// paths and the allocator the way a user's first small run would.
func (w *experimentWorkload) setup(r *runner, p *phase) error {
	id := p.begin("warmup", 0)
	o, err := w.runOnce(true)
	p.setups = append(p.setups, p.finish(id))
	if err != nil {
		return err
	}
	if !o.OK() {
		return fmt.Errorf("quick %s: %s: %v", w.id, o.Status, o.Err)
	}
	return nil
}

func (w *experimentWorkload) measure(r *runner, p *phase, deadline time.Time) error {
	for p.another(deadline) {
		runtime.GC()
		id := p.begin("run", 0)
		o, err := w.runOnce(false)
		p.unit(p.finish(id))
		if err != nil {
			return err
		}
		if !o.OK() {
			r.log("%s: %s: %v", w.id, o.Status, o.Err)
			p.op(false)
			continue
		}
		p.op(r.check(w.id, resultDigest(o.Result)))
		p.addCounters(o.Result.Counters.Snapshot())
	}
	return nil
}

// resultDigest hashes what a user of the figure sees: the rendered tables
// and notes, then the sorted counter snapshot.
func resultDigest(res *bench.Result) string {
	h := sha256.New()
	h.Write([]byte(res.Render()))
	h.Write([]byte(bench.CountersCSV(res)))
	return hex.EncodeToString(h.Sum(nil))
}
