package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"hpmp/internal/addr"
	"hpmp/internal/perm"
)

// randomEvent draws an event over the full range of every field, enums
// included, so the reference encoder's output covers every shape the
// hand-written one must reproduce.
func randomEvent(rng *rand.Rand) Event {
	edge := []uint64{0, 1, 9, 10, 0xfff, 1 << 32, math.MaxUint64}
	u64 := func() uint64 {
		if rng.Intn(4) == 0 {
			return edge[rng.Intn(len(edge))]
		}
		return rng.Uint64() >> rng.Intn(64)
	}
	return Event{
		Seq:     u64(),
		Kind:    Kind(rng.Intn(int(numKinds))),
		Access:  perm.Access(rng.Intn(3)),
		TLB:     TLBPath(rng.Intn(int(numTLBPaths))),
		Level:   int8(rng.Intn(256) - 128),
		Hit:     rng.Intn(2) == 0,
		Fault:   Fault(rng.Intn(int(numFaults))),
		VA:      addr.VA(u64()),
		PA:      addr.PA(u64()),
		Refs:    uint16(u64()),
		ChkRefs: uint16(u64()),
		Cycles:  u64(),
	}
}

func TestEventCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var line []byte
	for i := 0; i < 20000; i++ {
		ev := randomEvent(rng)
		line = appendEvent(line[:0], ev)
		if want := refEncodeEvent(ev); !bytes.Equal(line, want) {
			t.Fatalf("event %+v:\nencoded %s\nwant    %s", ev, line, want)
		}
		got, err := decodeEvent(line)
		if err != nil {
			t.Fatalf("decoding %s: %v", line, err)
		}
		if got != ev {
			t.Fatalf("decoding %s: got %+v, want %+v", line, got, ev)
		}
	}
	// Enum values without a name encode as the reference does (and neither
	// decoder takes them back).
	odd := Event{Kind: numKinds, Access: perm.Access(7), TLB: numTLBPaths, Fault: numFaults}
	if got, want := appendEvent(nil, odd), refEncodeEvent(odd); !bytes.Equal(got, want) {
		t.Fatalf("unnamed enums: encoded %s, want %s", got, want)
	}
}

// TestDecodeEventRejects lists lines the reference decoder rejects; the
// hand-written one must reject each of them too.
func TestDecodeEventRejects(t *testing.T) {
	const tail = `"access":"read","va":"0x1","pa":"0x2"`
	for _, line := range []string{
		`{"kind":"access",` + tail + `,"refs":65536}`,
		`{"kind":"access",` + tail + `,"chk_refs":70000}`,
		`{"kind":"access",` + tail + `,"level":128}`,
		`{"kind":"access",` + tail + `,"level":-129}`,
		`{"kind":"access",` + tail + `,"seq":1.5}`,
		`{"kind":"access",` + tail + `,"seq":1e3}`,
		`{"kind":"access",` + tail + `,"seq":-1}`,
		`{"kind":"access",` + tail + `,"cycles":-0}`,
		`{"kind":"access",` + tail + `,"seq":18446744073709551616}`,
		`{"kind":"access",` + tail + `,"seq":"5"}`,
		`{"kind":"access",` + tail + `,"seq":01}`,
		`{"kind":"access",` + tail + `,"hit":1}`,
		`{"kind":"access",` + tail + `,"hit":"true"}`,
		`{"kind":"access",` + tail + `} x`,
		`{"kind":"access",` + tail + `}{}`,
		`{"kind":"access",` + tail + `,}`,
		`{"kind":"access",` + tail,
		`{"kind":"access",` + tail + `,"pad":tru}`,
		`{"kind":"access",` + tail + `,"pad":"a` + "\x01" + `"}`,
		`{"kind":"access",` + tail + `,"kind":"warp"}`,
		`{"kind":"access",` + tail + `,"va":"zzz"}`,
		`{"kind":"access",` + tail + `,"tlb":"L3"}`,
		`{"kind":"access",` + tail + `,"fault":"oops"}`,
		`{"kind":"access",` + tail + `,"kind":5}`,
		`{` + tail + `}`,
		`{"kind":"access","va":"0x1","pa":"0x2"}`,
		`{"kind":"access","access":"read","pa":"0x2"}`,
		`{"kind":"access","access":"read","va":"0x1"}`,
		`{}`,
		`[]`,
		`null`,
		``,
		"\v{}",
	} {
		if _, err := refDecodeEvent([]byte(line)); err == nil {
			t.Errorf("reference accepts %q; the case belongs elsewhere", line)
		}
		if ev, err := decodeEvent([]byte(line)); err == nil {
			t.Errorf("%q decoded to %+v, want an error", line, ev)
		}
	}
}

// TestDecodeEventUnsupportedForms pins the forms ReadTrace's doc comment
// lists: the reference accepts each line, the hand-written decoder does not.
func TestDecodeEventUnsupportedForms(t *testing.T) {
	const base = `{"kind":"access","access":"read","va":"0x1","pa":"0x2"`
	for _, line := range []string{
		base + `,"Seq":5}`,
		base + `,"ſeq":5}`,
		`{"kind":"acc\u0065ss","access":"read","va":"0x1","pa":"0x2"}`,
		base + `,"pad":"\""}`,
		base + `,"tlb":null}`,
		base + `,"pad":{"x":1}}`,
		base + `,"pad":[]}`,
	} {
		if _, err := refDecodeEvent([]byte(line)); err != nil {
			t.Errorf("reference rejects %q: %v", line, err)
		}
		if !unsupportedForm([]byte(line)) {
			t.Errorf("unsupportedForm(%q) = false", line)
		}
		if ev, err := decodeEvent([]byte(line)); err == nil {
			t.Errorf("%q decoded to %+v, want an error", line, ev)
		}
	}
}

// TestDecodeEventLikeReference covers accepted forms the writer never
// emits but the reference takes: both decoders must yield the same event.
func TestDecodeEventLikeReference(t *testing.T) {
	for _, line := range []string{
		` { "kind" : "pte_fetch" ,` + "\t" + `"access":"fetch", "va":"0X1F", "pa":"0b101", "level":-0 } ` + "\r",
		`{"kind":"warp","kind":"check","access":"read","va":"zzz","va":"017","pa":"1_0"}`,
		`{"kind":"access","access":"write","va":"0x1_0","pa":"18446744073709551615","seq":18446744073709551615}`,
		`{"kind":"check","access":"read","va":"0","pa":"0","level":-128,"refs":65535,"hit":true,"hit":false}`,
		`{"kind":"check","access":"read","va":"0","pa":"0","pad":null,"x":-1.5e+7,"y":"` + "\xff" + `","":true}`,
		`{"kind":"access","access":"read","tlb":"L2","tlb":"","fault":"prot","va":"0xABC","pa":"0x00000000000000001"}`,
	} {
		want, err := refDecodeEvent([]byte(line))
		if err != nil {
			t.Fatalf("reference rejects %q: %v", line, err)
		}
		got, err := decodeEvent([]byte(line))
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		if got != want {
			t.Errorf("%q: got %+v, reference %+v", line, got, want)
		}
	}
}

// unsupportedForm reports whether a line the reference decodes uses one of
// the forms decodeEvent refuses (ReadTrace's doc comment lists them).
func unsupportedForm(line []byte) bool {
	if bytes.IndexByte(line, '\\') >= 0 {
		return true
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		key, _ := tok.(string)
		known := false
		for _, k := range eventKeys {
			if key == k {
				known = true
			} else if strings.EqualFold(key, k) {
				return true
			}
		}
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return false
		}
		raw = bytes.TrimSpace(raw)
		if known && string(raw) == "null" || !known && len(raw) > 0 && (raw[0] == '{' || raw[0] == '[') {
			return true
		}
	}
	return false
}

// FuzzTraceEventLine checks the hand-written event decoder against the
// encoding/json reference line by line: what it accepts the reference
// accepts as the identical event, what the reference rejects it rejects,
// and it rejects a line the reference accepts only for a listed form.
func FuzzTraceEventLine(f *testing.F) {
	tiny, err := os.Open("../integration/testdata/tiny.trace.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	sc := bufio.NewScanner(tiny)
	for sc.Scan() {
		f.Add(append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		f.Fatal(err)
	}
	tiny.Close()
	// The replacement lines of TestReadTraceCorruptLine.
	f.Add([]byte(`{"seq": not json`))
	f.Add([]byte(`{"seq":0,"kind":"warp","access":"read","va":"0x0","pa":"0x0"}`))
	f.Add([]byte(`{"seq":0,"kind":"access","access":"read","va":"zzz","pa":"0x0"}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		got, err := decodeEvent(line)
		want, refErr := refDecodeEvent(line)
		switch {
		case err == nil && refErr != nil:
			t.Fatalf("decoded %q to %+v; the reference rejects it: %v", line, got, refErr)
		case err == nil && got != want:
			t.Fatalf("decoded %q to %+v; the reference to %+v", line, got, want)
		case err != nil && refErr == nil && !unsupportedForm(line):
			t.Fatalf("rejected %q (%v); the reference decodes it to %+v", line, err, want)
		}
	})
}

// eventTrace encodes a trace of n varied, valid events.
func eventTrace(tb testing.TB, n int) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	tr := NewTracer(n, 1)
	for i := 0; i < n; i++ {
		tr.Emit(randomEvent(rng))
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, "codec", tr); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadTraceAllocsIndependentOfEvents keeps the decoder free of
// per-event allocations: decoding ten times the events must not allocate
// more often.
func TestReadTraceAllocsIndependentOfEvents(t *testing.T) {
	allocs := func(n int) float64 {
		data := eventTrace(t, n)
		return testing.AllocsPerRun(5, func() {
			if _, evs, err := ReadTrace(bytes.NewReader(data)); err != nil || len(evs) != n {
				t.Fatalf("ReadTrace: %d events, %v", len(evs), err)
			}
		})
	}
	small, large := allocs(1000), allocs(10000)
	if large != small {
		t.Fatalf("decoding 1,000 events allocates %v times, 10,000 events %v times", small, large)
	}
}

func BenchmarkReadTrace(b *testing.B) {
	const n = 10000
	data := eventTrace(b, n)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ReadTrace(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/event")
}

func BenchmarkWriteTrace(b *testing.B) {
	const n = 10000
	_, events, err := ReadTrace(bytes.NewReader(eventTrace(b, n)))
	if err != nil {
		b.Fatal(err)
	}
	tr := NewTracer(n, 1)
	for _, ev := range events {
		tr.Emit(ev)
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteTrace(&buf, "codec", tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/event")
}
