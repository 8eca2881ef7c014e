package obs

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// sampleTraceBytes serializes the shared sample tracer into trace-file form.
func sampleTraceBytes(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, "unit-test", sampleTracer()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadTraceTruncated(t *testing.T) {
	raw := sampleTraceBytes(t)
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("sample trace too small: %d lines", len(lines))
	}
	cut := strings.Join(lines[:len(lines)-1], "\n") + "\n"
	_, _, err := ReadTrace(strings.NewReader(cut))
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("dropped final event line: err = %v, want truncation error", err)
	}
}

func TestReadTraceCorruptLine(t *testing.T) {
	raw := sampleTraceBytes(t)
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	cases := []struct {
		name string
		line int // 1-based line to replace
		with string
	}{
		{"garbage-json", 3, `{"seq": not json`},
		{"unknown-kind", 2, `{"seq":0,"kind":"warp","access":"read","va":"0x0","pa":"0x0"}`},
		{"bad-address", 2, `{"seq":0,"kind":"access","access":"read","va":"zzz","pa":"0x0"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mut := append([]string(nil), lines...)
			mut[tc.line-1] = tc.with
			_, _, err := ReadTrace(strings.NewReader(strings.Join(mut, "\n") + "\n"))
			if err == nil {
				t.Fatal("corrupt line must be rejected")
			}
			want := "line " + strconv.Itoa(tc.line)
			if !strings.Contains(err.Error(), want) {
				t.Errorf("err = %v, want mention of %q", err, want)
			}
		})
	}
}

func TestReadTraceSeqRegression(t *testing.T) {
	raw := sampleTraceBytes(t)
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	// Swap the first two event lines: seqs go backwards at line 3.
	lines[1], lines[2] = lines[2], lines[1]
	_, _, err := ReadTrace(strings.NewReader(strings.Join(lines, "\n") + "\n"))
	if err == nil || !strings.Contains(err.Error(), "seq") {
		t.Errorf("reordered events: err = %v, want seq-ordering error", err)
	}
	if err != nil && !strings.Contains(err.Error(), "line 3") {
		t.Errorf("err = %v, want the offending line number (3)", err)
	}
}

func TestReadTraceOverlongLine(t *testing.T) {
	raw := sampleTraceBytes(t)
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	// A 2 MiB line overflows the scanner's 1 MiB cap; the error must still
	// carry a line number instead of surfacing as a bare bufio.ErrTooLong.
	lines[2] = `{"pad":"` + strings.Repeat("x", 2<<20) + `"}`
	_, _, err := ReadTrace(strings.NewReader(strings.Join(lines, "\n") + "\n"))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("overlong line: err = %v, want error naming line 3", err)
	}
}

func TestReadTraceKeptMismatch(t *testing.T) {
	// Extra event lines beyond header.kept are as suspicious as missing ones.
	raw := string(sampleTraceBytes(t))
	extra := raw + `{"seq":99,"kind":"access","access":"read","va":"0x0","pa":"0x0"}` + "\n"
	_, _, err := ReadTrace(strings.NewReader(extra))
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("extra event line: err = %v, want kept-mismatch error", err)
	}
	neg := strings.NewReader(`{"schema":"hpmp-trace/v1","source":"x","kept":-1}` + "\n")
	if _, _, err := ReadTrace(neg); err == nil {
		t.Error("negative kept count must be rejected")
	}
}

// FuzzReadTrace throws arbitrary byte streams at the trace reader. The
// reader must never panic, and on success the parsed stream must satisfy
// the format invariants ReadTrace promises: event count matches the
// header's kept count and sequence numbers strictly increase.
func FuzzReadTrace(f *testing.F) {
	f.Add(sampleTraceBytes(f))
	// A minimal valid trace with zero events.
	empty := NewTracer(4, 1)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, "fuzz-empty", empty); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(""))
	f.Add([]byte("{"))
	f.Add([]byte(`{"schema":"hpmp-trace/v1","source":"s","kept":1}` + "\n"))
	f.Add([]byte(`{"schema":"hpmp-trace/v1","source":"s","kept":1}` + "\n" +
		`{"seq":0,"kind":"access","access":"read","va":"0x1000","pa":"0x2000"}` + "\n"))
	raw := sampleTraceBytes(f)
	f.Add(raw[:len(raw)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		h, events, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		if h.Schema != TraceSchema {
			t.Fatalf("accepted schema %q", h.Schema)
		}
		if len(events) != h.Kept {
			t.Fatalf("accepted %d events with kept=%d", len(events), h.Kept)
		}
		for i := 1; i < len(events); i++ {
			if events[i].Seq <= events[i-1].Seq {
				t.Fatalf("accepted non-increasing seq at %d: %d then %d",
					i, events[i-1].Seq, events[i].Seq)
			}
		}
		// Every accepted event must survive a re-encode/re-decode cycle.
		for i, ev := range events {
			rt, err := decodeEvent(appendEvent(nil, ev))
			if err != nil {
				t.Fatalf("event %d does not round-trip: %v", i, err)
			}
			if rt != ev {
				t.Fatalf("event %d round-trips to %+v, want %+v", i, rt, ev)
			}
		}
	})
}
