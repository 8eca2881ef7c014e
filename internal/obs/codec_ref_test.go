package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"hpmp/internal/addr"
	"hpmp/internal/perm"
)

// The encoding/json event codec ReadTrace and StreamTracer used before the
// hand-written one, kept verbatim as the reference oracle: appendEvent must
// write its bytes exactly, and decodeEvent must agree with refDecodeEvent
// on every line except the forms ReadTrace's doc comment lists.

// eventJSON is the wire form of Event: enums as their String names and
// addresses as hex strings, so traces are greppable as text.
type eventJSON struct {
	Seq     uint64 `json:"seq"`
	Kind    string `json:"kind"`
	Access  string `json:"access"`
	TLB     string `json:"tlb,omitempty"`
	Level   int8   `json:"level"`
	Hit     bool   `json:"hit"`
	Fault   string `json:"fault,omitempty"`
	VA      string `json:"va"`
	PA      string `json:"pa"`
	Refs    uint16 `json:"refs"`
	ChkRefs uint16 `json:"chk_refs"`
	Cycles  uint64 `json:"cycles"`
}

func toJSON(ev Event) eventJSON {
	return eventJSON{
		Seq:     ev.Seq,
		Kind:    ev.Kind.String(),
		Access:  ev.Access.String(),
		TLB:     ev.TLB.String(),
		Level:   ev.Level,
		Hit:     ev.Hit,
		Fault:   ev.Fault.String(),
		VA:      fmt.Sprintf("%#x", uint64(ev.VA)),
		PA:      fmt.Sprintf("%#x", uint64(ev.PA)),
		Refs:    ev.Refs,
		ChkRefs: ev.ChkRefs,
		Cycles:  ev.Cycles,
	}
}

func fromJSON(ej eventJSON) (Event, error) {
	kind, ok := KindFromString(ej.Kind)
	if !ok {
		return Event{}, fmt.Errorf("obs: unknown event kind %q", ej.Kind)
	}
	tlb, ok := TLBPathFromString(ej.TLB)
	if !ok {
		return Event{}, fmt.Errorf("obs: unknown tlb path %q", ej.TLB)
	}
	fault, ok := FaultFromString(ej.Fault)
	if !ok {
		return Event{}, fmt.Errorf("obs: unknown fault kind %q", ej.Fault)
	}
	var access perm.Access
	switch ej.Access {
	case perm.Read.String():
		access = perm.Read
	case perm.Write.String():
		access = perm.Write
	case perm.Fetch.String():
		access = perm.Fetch
	default:
		return Event{}, fmt.Errorf("obs: unknown access kind %q", ej.Access)
	}
	va, err := strconv.ParseUint(ej.VA, 0, 64)
	if err != nil {
		return Event{}, fmt.Errorf("obs: bad va %q: %w", ej.VA, err)
	}
	pa, err := strconv.ParseUint(ej.PA, 0, 64)
	if err != nil {
		return Event{}, fmt.Errorf("obs: bad pa %q: %w", ej.PA, err)
	}
	return Event{
		Seq:     ej.Seq,
		Kind:    kind,
		Access:  access,
		TLB:     tlb,
		Level:   ej.Level,
		Hit:     ej.Hit,
		Fault:   fault,
		VA:      addr.VA(va),
		PA:      addr.PA(pa),
		Refs:    ej.Refs,
		ChkRefs: ej.ChkRefs,
		Cycles:  ej.Cycles,
	}, nil
}

// refEncodeEvent is the reference encoder: one line, newline included.
func refEncodeEvent(ev Event) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(toJSON(ev)); err != nil {
		panic(err) // eventJSON has no value encoding/json cannot encode
	}
	return buf.Bytes()
}

// refDecodeEvent is the reference decoder for one event line.
func refDecodeEvent(line []byte) (Event, error) {
	var ej eventJSON
	if err := json.Unmarshal(line, &ej); err != nil {
		return Event{}, err
	}
	return fromJSON(ej)
}
