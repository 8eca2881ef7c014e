// Committed expectations for the differential workloads. Each workload's
// observables — per-access results, merged counters, cycle total — render
// into one text fingerprint that must match testdata/differential/<name>.txt
// byte for byte.
//
// The files were captured from two builds of the simulator that no longer
// exist separately: the optimized one (handle counters, TLB/PWC/PMPTW-cache
// memos, config-specialized access and walk pipelines) and the reference one
// (map-keyed counters, full in-order scans, one generic pipeline). Both
// produced identical bytes, so each file stands for that reference. Rewrite
// them with -update only for an intentional behaviour change, and review the
// diff like any other golden.
package integration

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"hpmp/internal/stats"
)

// resultsDigest hashes the per-access results in order, one %+v line each.
func resultsDigest[T any](rs []T) string {
	h := sha256.New()
	for i := range rs {
		fmt.Fprintf(h, "%+v\n", rs[i])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fingerprint renders one run: the result count and digest, the cycle
// total, and every counter sorted by name (one per line, so a diff names
// the counter that moved).
func fingerprint[T any](results []T, cycles uint64, counters string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "results %d sha256:%s\n", len(results), resultsDigest(results))
	fmt.Fprintf(&b, "cycles %d\n", cycles)
	kvs := strings.Fields(counters)
	sort.Strings(kvs)
	for _, kv := range kvs {
		b.WriteString(kv)
		b.WriteByte('\n')
	}
	return b.String()
}

// replayFingerprint renders a replay's machine counters, final clock and
// latency histograms.
func replayFingerprint(counters map[string]uint64, now uint64, hists map[string]stats.HistogramSnapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "now %d\n", now)
	names := make([]string, 0, len(counters))
	for k := range counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&b, "%s=%d\n", k, counters[k])
	}
	names = names[:0]
	for k := range hists {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h := hists[k]
		fmt.Fprintf(&b, "hist %s count=%d sum=%d min=%d max=%d counts=%v\n", k, h.Count, h.Sum, h.Min, h.Max, h.Counts)
	}
	return b.String()
}

// checkExpectation compares got against testdata/differential/<name>.txt,
// or rewrites the file under -update.
func checkExpectation(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "differential", name+".txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading expectation (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s differs from %s:\n%s", name, path, firstDiff(got, string(want)))
	}
}
