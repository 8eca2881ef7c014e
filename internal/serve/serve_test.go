package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"hpmp/internal/bench"
	"hpmp/internal/obs"
)

// testServer boots a daemon with its HTTP front end and registers
// cleanup. Options default small so tests stay fast.
func testServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := ctxWithTimeout(10 * time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (Status, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding accepted job: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return st, resp
}

func getStatus(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: HTTP %d", id, resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	return st
}

// waitTerminal polls until the job leaves queued/running.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if st.State != StateQueued && st.State != StateRunning {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return Status{}
}

func getBody(t *testing.T, ts *httptest.Server, path string, wantCode int) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: HTTP %d, want %d (%s)", path, resp.StatusCode, wantCode, data)
	}
	return data
}

// lightJob is the cheapest real run request: one light-tier scenario at
// quick sizes (a few milliseconds of simulation).
const lightJob = `{"kind":"run","experiments":["scen-shootdown"],"quick":true}`

func TestJobLifecycle(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 2, QueueDepth: 4})
	st, resp := postJob(t, ts, lightJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if st.ID != "job-1" || st.Kind != "run" {
		t.Fatalf("unexpected accept document: %+v", st)
	}
	if st.Machine.Platform != "rocket" || st.Machine.MemSize == 0 {
		t.Fatalf("defaults not applied to machine: %+v", st.Machine)
	}

	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", fin.State, fin.Error)
	}
	if fin.Started == nil || fin.Finished == nil {
		t.Fatalf("terminal job must carry timestamps: %+v", fin)
	}
	if len(fin.Results) != 1 {
		t.Fatalf("want 1 result, got %d", len(fin.Results))
	}
	m := fin.Results[0]
	if m.Schema != obs.MetricsSchema || m.Experiment != "scen-shootdown" || m.Status != "ok" {
		t.Fatalf("bad result metrics: %+v", m)
	}
	if m.WallSeconds != 0 {
		t.Fatal("result metrics must zero wall time (it lives in the status envelope)")
	}
	if len(m.Counters) == 0 {
		t.Fatal("result metrics carry no counters")
	}

	// The raw metrics endpoint serves a single readable snapshot.
	raw := getBody(t, ts, "/v1/jobs/"+st.ID+"/metrics", http.StatusOK)
	got, err := obs.ReadMetrics(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("metrics endpoint not hpmp-metrics/v1: %v", err)
	}
	if got.Experiment != "scen-shootdown" {
		t.Fatalf("metrics endpoint experiment %q", got.Experiment)
	}
}

func TestSubmitRejectsInvalid(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1, QueueDepth: 2})
	cases := []struct {
		name, body string
	}{
		{"bad-kind", `{"kind":"benchmark"}`},
		{"no-experiments", `{"kind":"run"}`},
		{"unknown-experiment", `{"kind":"run","experiments":["fig99"]}`},
		{"bad-machine-mem", `{"kind":"run","experiments":["fig10"],"machine":{"mem_mib":8}}`},
		{"bad-machine-mode", `{"kind":"run","experiments":["fig10"],"machine":{"mode":"sgx"}}`},
		{"bad-machine-depth", `{"kind":"run","experiments":["fig10"],"machine":{"mode":"pmp","table_depth":3}}`},
		{"huge-machine-pwc", `{"kind":"run","experiments":["fig10"],"machine":{"pwc":1099511627776}}`},
		{"unknown-field", `{"kind":"run","experiments":["fig10"],"machne":{}}`},
		{"unknown-machine-field", `{"kind":"run","experiments":["fig10"],"machine":{"l2tlb_entries":4}}`},
		{"negative-workload", `{"kind":"run","experiments":["fig10"],"workload":{"redis_keyspace":-1}}`},
		{"replay-no-trace", `{"kind":"replay"}`},
		{"replay-bad-trace", `{"kind":"replay","trace_jsonl":"not json"}`},
		{"not-json", `kind=run`},
	}
	for _, tc := range cases {
		_, resp := postJob(t, ts, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", tc.name, resp.StatusCode)
		}
	}
	// Nothing invalid may have consumed a job slot or an ID.
	st, resp := postJob(t, ts, lightJob)
	if resp.StatusCode != http.StatusAccepted || st.ID != "job-1" {
		t.Fatalf("first valid job got %q (HTTP %d), want job-1", st.ID, resp.StatusCode)
	}
}

func TestUnknownJobIs404(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1, QueueDepth: 1})
	for _, path := range []string{"/v1/jobs/job-9", "/v1/jobs/job-9/metrics", "/v1/jobs/job-9/trace"} {
		getBody(t, ts, path, http.StatusNotFound)
	}
}

// TestConcurrentJobsIsolated proves per-tenant isolation: eight identical
// jobs running concurrently each report exactly the counters a solo run
// reports — no tenant's stats bleed into another's.
func TestConcurrentJobsIsolated(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 8, QueueDepth: 16})

	solo, _ := postJob(t, ts, lightJob)
	ref := waitTerminal(t, ts, solo.ID)
	if ref.State != StateDone {
		t.Fatalf("reference job: %s (%s)", ref.State, ref.Error)
	}

	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, resp := postJob(t, ts, lightJob)
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("job %d: HTTP %d", i, resp.StatusCode)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	for i, id := range ids {
		if id == "" {
			continue
		}
		st := waitTerminal(t, ts, id)
		if st.State != StateDone {
			t.Errorf("job %d (%s): %s (%s)", i, id, st.State, st.Error)
			continue
		}
		if len(st.Results) != 1 {
			t.Errorf("job %d: %d results", i, len(st.Results))
			continue
		}
		if !reflect.DeepEqual(st.Results[0].Counters, ref.Results[0].Counters) {
			t.Errorf("job %d (%s): counters differ from the solo run — stats interleaved", i, id)
		}
	}
}

// TestDeterministicResults pins the acceptance criterion: identical
// submissions produce byte-identical hpmp-metrics/v1 documents.
func TestDeterministicResults(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 2, QueueDepth: 8})
	body := `{"kind":"run","experiments":["scen-shootdown","scen-aging"],"quick":true,"trace":true}`
	a, _ := postJob(t, ts, body)
	b, _ := postJob(t, ts, body)
	for _, id := range []string{a.ID, b.ID} {
		if st := waitTerminal(t, ts, id); st.State != StateDone {
			t.Fatalf("%s: %s (%s)", id, st.State, st.Error)
		}
	}
	ma := getBody(t, ts, "/v1/jobs/"+a.ID+"/metrics", http.StatusOK)
	mb := getBody(t, ts, "/v1/jobs/"+b.ID+"/metrics", http.StatusOK)
	if !bytes.Equal(ma, mb) {
		t.Fatalf("identical submissions produced different metrics:\n--- %s\n%s\n--- %s\n%s", a.ID, ma, b.ID, mb)
	}
}

// TestTraceRoundTrip: a traced run job's capture downloads as
// hpmp-trace/v1 and replays through a replay job submitted back to the
// same daemon — the serving loop the daemon exists for.
func TestTraceRoundTrip(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 2, QueueDepth: 8})
	st, _ := postJob(t, ts, `{"kind":"run","experiments":["scen-shootdown"],"quick":true,"trace":true}`)
	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("run job: %s (%s)", fin.State, fin.Error)
	}
	if len(fin.Traces) != 1 || fin.Traces[0] != "scen-shootdown" {
		t.Fatalf("trace listing: %v", fin.Traces)
	}

	raw := getBody(t, ts, "/v1/jobs/"+st.ID+"/trace", http.StatusOK)
	h, events, err := obs.ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("downloaded trace is not hpmp-trace/v1: %v", err)
	}
	if h.Source != st.ID+"/scen-shootdown" || len(events) == 0 {
		t.Fatalf("trace header/source wrong: %+v, %d events", h, len(events))
	}

	// Feed the capture back as a replay job, twice, and require
	// byte-identical replay metrics.
	req := map[string]any{"kind": "replay", "id": "rt", "trace_jsonl": string(raw)}
	body, _ := json.Marshal(req)
	r1, _ := postJob(t, ts, string(body))
	r2, _ := postJob(t, ts, string(body))
	for _, id := range []string{r1.ID, r2.ID} {
		if st := waitTerminal(t, ts, id); st.State != StateDone {
			t.Fatalf("replay %s: %s (%s)", id, st.State, st.Error)
		}
	}
	m1 := getBody(t, ts, "/v1/jobs/"+r1.ID+"/metrics", http.StatusOK)
	m2 := getBody(t, ts, "/v1/jobs/"+r2.ID+"/metrics", http.StatusOK)
	if !bytes.Equal(m1, m2) {
		t.Fatal("identical replay submissions produced different metrics")
	}
	got, err := obs.ReadMetrics(bytes.NewReader(m1))
	if err != nil {
		t.Fatalf("replay metrics: %v", err)
	}
	if got.Experiment != "rt" {
		t.Fatalf("replay metrics source %q, want rt", got.Experiment)
	}
}

func TestExperimentsRegistry(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1, QueueDepth: 1})
	raw := getBody(t, ts, "/v1/experiments", http.StatusOK)
	var got []experimentInfo
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("registry: %v", err)
	}
	all := bench.All()
	if len(got) != len(all) {
		t.Fatalf("registry serves %d experiments, bench has %d", len(got), len(all))
	}
	for i, e := range all {
		if got[i].ID != e.ID || got[i].Cost != string(e.Cost) {
			t.Fatalf("registry[%d] = %+v, want %s/%s", i, got[i], e.ID, e.Cost)
		}
	}
}

// TestPrometheusWhileRunning scrapes /metrics during an in-flight job and
// checks the page is well-formed exposition text with the daemon and
// tenant families present — including the counters of an experiment the
// running job has already committed.
func TestPrometheusWhileRunning(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 1, QueueDepth: 4})
	release := make(chan struct{})
	started := make(chan struct{})
	s.exec = func(ctx context.Context, j *Job) error {
		j.commit(obs.NewMetrics("stub-exp", map[string]uint64{"mmu.access": 42}))
		close(started)
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	st, _ := postJob(t, ts, lightJob)
	<-started

	page := string(getBody(t, ts, "/metrics", http.StatusOK))
	if err := checkPrometheus(page); err != nil {
		t.Fatalf("scrape invalid while job runs: %v\n%s", err, page)
	}
	for _, want := range []string{
		`hpmpsimd_jobs{state="running"} 1`,
		"hpmpsimd_queue_capacity 4",
		"hpmpsimd_workers 1",
		`hpmp_tenant_counter{job="job-1",experiment="stub-exp",counter="mmu.access"} 42`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	close(release)
	if fin := waitTerminal(t, ts, st.ID); fin.State != StateDone {
		t.Fatalf("stub job: %s", fin.State)
	}
	if err := checkPrometheus(string(getBody(t, ts, "/metrics", http.StatusOK))); err != nil {
		t.Fatalf("scrape invalid after completion: %v", err)
	}
}

// sampleLine matches one Prometheus exposition sample:
// name{labels} value — labels optional, value a float.
var sampleLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? [-+]?([0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?|Inf|NaN)$`)

// checkPrometheus validates exposition-format invariants: every line is a
// well-formed comment or sample, every sample's family has exactly one
// preceding # TYPE, and no family is declared twice.
func checkPrometheus(page string) error {
	typed := map[string]bool{}
	for ln, line := range strings.Split(strings.TrimRight(page, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(line)
			if len(parts) != 4 {
				return fmt.Errorf("line %d: malformed TYPE: %q", ln+1, line)
			}
			if typed[parts[2]] {
				return fmt.Errorf("line %d: family %s declared twice", ln+1, parts[2])
			}
			typed[parts[2]] = true
		case strings.HasPrefix(line, "# HELP "):
			if len(strings.Fields(line)) < 3 {
				return fmt.Errorf("line %d: malformed HELP: %q", ln+1, line)
			}
		case strings.HasPrefix(line, "#"):
			// free comment
		default:
			if !sampleLine.MatchString(line) {
				return fmt.Errorf("line %d: malformed sample: %q", ln+1, line)
			}
			name := line
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				name = line[:i]
			}
			// Histogram samples carry the family name plus a fixed suffix.
			base := name
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if strings.HasSuffix(name, suf) {
					base = strings.TrimSuffix(name, suf)
					break
				}
			}
			if !typed[name] && !typed[base] {
				return fmt.Errorf("line %d: sample %s precedes its # TYPE", ln+1, name)
			}
		}
	}
	return nil
}

func ctxWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}
