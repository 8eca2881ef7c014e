package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpmp/internal/bench"
	"hpmp/internal/obs"
	"hpmp/internal/serve"
)

const (
	// scrapeEvery is how many of its own jobs the first tenant runs
	// between Prometheus scrapes.
	scrapeEvery = 25
	// jobsPerSecond sets the measured phase's length in jobs: it ends
	// after jobsPerSecond jobs per requested second, or at the deadline if
	// that comes first. The daemon keeps every job, so a phase bounded by
	// time alone would hold more jobs, and more memory, the faster the
	// daemon got.
	jobsPerSecond = 60
	// traceKeep bounds each job's trace ring; the quick experiments of the
	// mix emit fewer events than this, so every trace is complete.
	traceKeep = 1024
)

// errCheck marks a job whose output failed its check, as opposed to one
// the daemon could not serve. Set-up tolerates the first kind, so a
// mismatch is reported by the measured phase as failed operations.
var errCheck = errors.New("output check failed")

// daemonMix is the job deck: three fig13 jobs to one fig14bc job, shuffled
// by the seed.
var daemonMix = []string{"fig13", "fig13", "fig13", "fig14bc"}

// daemonWorkload runs hpmpsimd's server core in process behind a loopback
// listener. Closed-loop tenants each submit a quick traced run job, wait
// for its terminal event on the SSE stream, fetch its metrics JSON and
// stream-download its trace, then submit the next.
type daemonWorkload struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client

	// ref holds the metrics JSON of each experiment run in process, which
	// every job's metrics must match byte for byte; refOK records whether
	// the reference itself matched its committed digest.
	ref      map[string][]byte
	refOK    map[string]bool
	refCount map[string]map[string]uint64
}

// references runs each experiment of the mix in process exactly as a
// traced quick run job does, and renders the metrics JSON the daemon
// serves for it.
func (w *daemonWorkload) references(r *runner) error {
	w.ref, w.refOK, w.refCount = map[string][]byte{}, map[string]bool{}, map[string]map[string]uint64{}
	for _, id := range daemonMix {
		if w.ref[id] != nil {
			continue
		}
		exp, ok := bench.ByID(id)
		if !ok {
			return fmt.Errorf("experiment %q is not registered", id)
		}
		cfg := bench.DefaultConfig()
		cfg.Quick = true
		o := bench.RunAll(context.Background(), cfg, []bench.Experiment{exp}, bench.RunOptions{Parallel: 1, TraceEvery: 1, TraceKeep: traceKeep}, nil)[0]
		if !o.OK() {
			return fmt.Errorf("in-process %s: %s: %v", id, o.Status, o.Err)
		}
		m := bench.MetricsFor(o, true)
		m.WallSeconds = 0
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(m); err != nil {
			return err
		}
		sum := sha256.Sum256(buf.Bytes())
		w.ref[id] = buf.Bytes()
		w.refOK[id] = r.check("daemon."+id, hex.EncodeToString(sum[:]))
		w.refCount[id] = m.Counters
	}
	return nil
}

// setup starts a fresh daemon (stopping the previous repetition's),
// probes it until ready and has each tenant run one warm-up job of each
// experiment in the mix. A warm-up job fails set-up only if the daemon
// could not serve it; output checks are left to the measured phase.
func (w *daemonWorkload) setup(r *runner, p *phase) error {
	if w.ref == nil {
		if err := w.references(r); err != nil {
			return err
		}
	}
	if err := w.close(); err != nil {
		return err
	}
	root := p.begin("setup", 0)
	defer func() { p.setups = append(p.setups, p.finish(root)) }()
	w.srv = serve.New(serve.Options{Workers: maxProcs})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxProcs,
		MaxIdleConnsPerHost: maxProcs,
		DisableCompression:  true,
	}}
	if err := w.ready(); err != nil {
		return err
	}
	warm := newPhase()
	errs := make([]error, maxProcs)
	var wg sync.WaitGroup
	for c := 0; c < maxProcs; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, exp := range []string{"fig13", "fig14bc"} {
				if err := w.roundTrip(warm, exp, false); err != nil && !errors.Is(err, errCheck) {
					errs[c] = errors.Join(errs[c], fmt.Errorf("warm-up %s job: %w", exp, err))
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// ready polls /healthz until the daemon answers 200.
func (w *daemonWorkload) ready() error {
	var last error
	for i := 0; i < 100; i++ {
		resp, err := w.client.Get(w.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
		last = err
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("daemon not ready: %w", last)
}

// close drains the daemon and stops its listener; a no-op before setup.
func (w *daemonWorkload) close() error {
	if w.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drainErr := w.srv.Drain(ctx)
	shutErr := w.hs.Shutdown(ctx)
	if err := <-w.served; !errors.Is(err, http.ErrServerClosed) {
		shutErr = errors.Join(shutErr, err)
	}
	w.client.CloseIdleConnections()
	w.srv = nil
	return errors.Join(drainErr, shutErr)
}

// measure runs one closed-loop tenant per CPU until the job budget is
// spent or the deadline passes. Each job is one operation and one unit
// (its round trip).
func (w *daemonWorkload) measure(r *runner, p *phase, deadline time.Time) error {
	budget := int64(jobsPerSecond * time.Until(deadline).Seconds())
	var started atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < maxProcs; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.seed*1000 + int64(c)))
			var deck []string
			for n := 1; time.Now().Before(deadline) && started.Add(1) <= budget; n++ {
				if len(deck) == 0 {
					deck = append(deck, daemonMix...)
					rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
				}
				id := deck[0]
				deck = deck[1:]
				w.job(r, p, id, c == 0 && n%scrapeEvery == 0)
			}
		}(c)
	}
	wg.Wait()
	return nil
}

// job runs one tenant job end to end and records it as one operation.
func (w *daemonWorkload) job(r *runner, p *phase, exp string, scrape bool) {
	err := w.roundTrip(p, exp, scrape)
	if err != nil {
		r.log("daemon %s job: %v", exp, err)
	} else if !w.refOK[exp] {
		err = fmt.Errorf("%w: reference metrics digest mismatch", errCheck)
	}
	p.op(err == nil)
	if err == nil {
		p.addCounters(w.refCount[exp])
	}
}

func (w *daemonWorkload) roundTrip(p *phase, exp string, scrape bool) error {
	root := p.begin("job", 0)
	t0 := time.Now()
	requests := 0
	defer func() {
		p.finish(root)
		p.unit(time.Since(t0).Seconds())
		p.addWork("serve", float64(requests))
	}()

	id := p.begin("submit", root)
	body := fmt.Sprintf(`{"kind":"run","experiments":[%q],"quick":true,"trace":true,"trace_keep":%d}`, exp, traceKeep)
	var st serve.Status
	requests++
	err := w.call("POST", "/v1/jobs", strings.NewReader(body), http.StatusAccepted, func(b io.Reader) error {
		return json.NewDecoder(b).Decode(&st)
	})
	p.finish(id)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}

	requests++
	var evs map[string]serve.TimelineEvent
	err = w.call("GET", "/v1/jobs/"+st.ID+"/events", nil, http.StatusOK, func(b io.Reader) (err error) {
		evs, err = readSSE(b)
		return err
	})
	if err != nil {
		return fmt.Errorf("events: %w", err)
	}
	p.sample("latency", time.Since(t0).Seconds())
	fin, ok := evs["finished"]
	if !ok {
		return errors.New("event stream ended without a finished event")
	}
	if fin.State != serve.StateDone {
		return fmt.Errorf("job %s ended %s", st.ID, fin.State)
	}
	if s, ok := evs["started"]; ok {
		p.record("queue_wait", root, evs["submitted"].Wall, s.Wall)
		p.record("job_run", root, s.Wall, fin.Wall)
	}

	id = p.begin("result", root)
	requests++
	err = w.call("GET", "/v1/jobs/"+st.ID+"/metrics", nil, http.StatusOK, func(b io.Reader) error {
		got, err := io.ReadAll(b)
		if err == nil && !bytes.Equal(got, w.ref[exp]) {
			err = fmt.Errorf("%w: metrics JSON differs from the in-process run", errCheck)
		}
		return err
	})
	p.finish(id)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}

	id = p.begin("trace_download", root)
	requests++
	err = w.call("GET", "/v1/jobs/"+st.ID+"/trace", nil, http.StatusOK, func(b io.Reader) error {
		_, events, err := obs.ReadTrace(b)
		p.addWork("obs", 2*float64(len(events))) // encoded by the daemon, decoded here
		if err != nil {
			err = fmt.Errorf("%w: %v", errCheck, err)
		}
		return err
	})
	p.finish(id)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}

	if scrape {
		id = p.begin("scrape", root)
		requests++
		err = w.call("GET", "/metrics", nil, http.StatusOK, func(b io.Reader) error {
			text, err := io.ReadAll(b)
			if err == nil && !bytes.Contains(text, []byte("hpmpsimd_jobs{")) {
				err = errors.New("exposition lacks hpmpsimd_jobs")
			}
			return err
		})
		p.finish(id)
		if err != nil {
			return fmt.Errorf("scrape: %w", err)
		}
	}
	return nil
}

// call makes one request, requires the status code want, hands the body
// to read and drains the rest so the connection is reused.
func (w *daemonWorkload) call(method, path string, body io.Reader, want int, read func(io.Reader) error) error {
	req, err := http.NewRequest(method, w.base+path, body)
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	err = read(resp.Body)
	io.Copy(io.Discard, resp.Body)
	return err
}

// readSSE reads a job's event stream to its end and returns the last
// event of each name.
func readSSE(r io.Reader) (map[string]serve.TimelineEvent, error) {
	evs := map[string]serve.TimelineEvent{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev serve.TimelineEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return nil, fmt.Errorf("event data: %w", err)
		}
		evs[ev.Event] = ev
	}
	return evs, sc.Err()
}
