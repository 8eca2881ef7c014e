package obs

// Tracer samples translation-path events into a bounded ring. The zero
// value is not usable — call NewTracer. All storage is preallocated, so
// Emit never allocates; the hooks in mmu/ptw/pmpt/hpmp check their Trace
// pointer for nil before constructing an Event, so a detached tracer costs
// nothing at all.
//
// A Tracer is single-owner (see the package comment): Emit is called only
// from the simulation goroutine, and the read side (Seen, Sampled, Events,
// WriteTrace) runs only after that goroutine has finished.
type Tracer struct {
	every   uint64
	seen    uint64
	sampled uint64
	ring    []Event
	next    int
}

// DefaultRing is the ring capacity the CLI tools default to.
const DefaultRing = 4096

// MaxRing is the largest ring a daemon tenant may ask for. NewTracer
// allocates the whole ring up front, so an unbounded tenant-chosen size
// would let one request exhaust the host. It holds a full-sampled
// fig12c run (about 1.1 M events) with room to spare: 2 Mi events of
// 64 bytes, 128 MiB.
const MaxRing = 1 << 21

// NewTracer builds a tracer that keeps the last `keep` of every `every`-th
// event (every ≤ 1 records all events; keep ≤ 0 falls back to DefaultRing).
func NewTracer(keep, every int) *Tracer {
	if keep <= 0 {
		keep = DefaultRing
	}
	if every < 1 {
		every = 1
	}
	return &Tracer{every: uint64(every), ring: make([]Event, keep)}
}

// SampleEvery returns the sampling stride.
func (t *Tracer) SampleEvery() int { return int(t.every) }

// Emit offers one event to the tracer. The event's Seq is assigned here
// from the tracer's ordinal counter; sampling keeps ordinal 0, every,
// 2*every, … so traces are deterministic for a given workload.
func (t *Tracer) Emit(ev Event) {
	ord := t.seen
	t.seen++
	if t.every > 1 && ord%t.every != 0 {
		return
	}
	ev.Seq = ord
	t.ring[t.next] = ev
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
	}
	t.sampled++
}

// Seen returns how many events were offered (sampled or not).
func (t *Tracer) Seen() uint64 { return t.seen }

// Sampled returns how many events passed sampling (including ones the ring
// has since evicted).
func (t *Tracer) Sampled() uint64 { return t.sampled }

// Kept returns how many events the ring currently holds.
func (t *Tracer) Kept() int {
	if t.sampled < uint64(len(t.ring)) {
		return int(t.sampled)
	}
	return len(t.ring)
}

// Events returns the retained events, oldest first.
func (t *Tracer) Events() []Event {
	out := make([]Event, 0, t.Kept())
	if t.sampled < uint64(len(t.ring)) {
		return append(out, t.ring[:t.next]...)
	}
	out = append(out, t.ring[t.next:]...)
	return append(out, t.ring[:t.next]...)
}

// Each calls fn for every retained event, oldest first, stopping early if
// fn returns false. Unlike Events it materializes nothing: the streaming
// trace writer uses it to keep peak memory independent of the ring size.
func (t *Tracer) Each(fn func(Event) bool) {
	if t.sampled < uint64(len(t.ring)) {
		for i := 0; i < t.next; i++ {
			if !fn(t.ring[i]) {
				return
			}
		}
		return
	}
	for i := t.next; i < len(t.ring); i++ {
		if !fn(t.ring[i]) {
			return
		}
	}
	for i := 0; i < t.next; i++ {
		if !fn(t.ring[i]) {
			return
		}
	}
}
