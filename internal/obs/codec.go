package obs

import (
	"bytes"
	"fmt"
	"math"
	"strconv"

	"hpmp/internal/addr"
	"hpmp/internal/perm"
)

// The hpmp-trace/v1 event codec. One event is one JSON object on one line:
//
//	{"seq":N,"kind":K,"access":A,"tlb":T,"level":L,"hit":B,"fault":F,"va":"0x…","pa":"0x…","refs":R,"chk_refs":C,"cycles":Y}
//
// in that key order, with tlb and fault left out when empty, enums as their
// String names and addresses as 0x-prefixed lowercase hex, so traces are
// greppable as text. appendEvent writes exactly the bytes encoding/json
// wrote for this wire form, and decodeEvent accepts what encoding/json
// accepted for it except for the forms ReadTrace's doc comment lists. The
// package tests keep the encoding/json codec as the reference both are
// checked against.

// appendEvent appends ev's event line, trailing newline included, to dst.
// The enum names contain nothing JSON escapes, so they go out verbatim.
func appendEvent(dst []byte, ev Event) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, ev.Seq, 10)
	dst = append(dst, `,"kind":"`...)
	dst = append(dst, ev.Kind.String()...)
	dst = append(dst, `","access":"`...)
	dst = append(dst, ev.Access.String()...)
	dst = append(dst, '"')
	if tlb := ev.TLB.String(); tlb != "" {
		dst = append(dst, `,"tlb":"`...)
		dst = append(dst, tlb...)
		dst = append(dst, '"')
	}
	dst = append(dst, `,"level":`...)
	dst = strconv.AppendInt(dst, int64(ev.Level), 10)
	dst = append(dst, `,"hit":`...)
	dst = strconv.AppendBool(dst, ev.Hit)
	if fault := ev.Fault.String(); fault != "" {
		dst = append(dst, `,"fault":"`...)
		dst = append(dst, fault...)
		dst = append(dst, '"')
	}
	dst = append(dst, `,"va":"0x`...)
	dst = strconv.AppendUint(dst, uint64(ev.VA), 16)
	dst = append(dst, `","pa":"0x`...)
	dst = strconv.AppendUint(dst, uint64(ev.PA), 16)
	dst = append(dst, `","refs":`...)
	dst = strconv.AppendUint(dst, uint64(ev.Refs), 10)
	dst = append(dst, `,"chk_refs":`...)
	dst = strconv.AppendUint(dst, uint64(ev.ChkRefs), 10)
	dst = append(dst, `,"cycles":`...)
	dst = strconv.AppendUint(dst, ev.Cycles, 10)
	return append(dst, "}\n"...)
}

// minEventLine is the length of the shortest event line decodeEvent
// accepts: only the required keys, the shortest kind and access names and
// one-digit addresses. ReadTrace uses it to bound the event count an input
// of a given size can hold.
const minEventLine = len(`{"kind":"check","access":"read","va":"0","pa":"0"}`)

// eventKeys are the wire keys, for the case-insensitive match check.
var eventKeys = [...]string{"seq", "kind", "access", "tlb", "level", "hit", "fault", "va", "pa", "refs", "chk_refs", "cycles"}

// decodeEvent parses one event line. It allocates only to report an error.
// String values are kept as sub-slices and checked once the whole object
// is read, so a repeated key behaves as in encoding/json: the last value
// counts. Numbers and booleans are checked where they stand, as
// encoding/json rejects a line with any ill-typed value whatever follows.
func decodeEvent(line []byte) (Event, error) {
	var ev Event
	var kind, access, tlb, fault, va, pa []byte
	d := lineDecoder{b: line}
	d.skipSpace()
	if !d.consume('{') {
		return Event{}, d.errorf("event is not a JSON object")
	}
	d.skipSpace()
	if !d.consume('}') {
		for {
			d.skipSpace()
			key, err := d.str()
			if err != nil {
				return Event{}, err
			}
			d.skipSpace()
			if !d.consume(':') {
				return Event{}, d.errorf("expected ':' after key %q", key)
			}
			d.skipSpace()
			var n uint64
			switch string(key) {
			case "seq":
				ev.Seq, err = d.uint(math.MaxUint64)
			case "kind":
				kind, err = d.str()
			case "access":
				access, err = d.str()
			case "tlb":
				tlb, err = d.str()
			case "level":
				var l int64
				l, err = d.int(math.MinInt8, math.MaxInt8)
				ev.Level = int8(l)
			case "hit":
				ev.Hit, err = d.bool()
			case "fault":
				fault, err = d.str()
			case "va":
				va, err = d.str()
			case "pa":
				pa, err = d.str()
			case "refs":
				n, err = d.uint(math.MaxUint16)
				ev.Refs = uint16(n)
			case "chk_refs":
				n, err = d.uint(math.MaxUint16)
				ev.ChkRefs = uint16(n)
			case "cycles":
				ev.Cycles, err = d.uint(math.MaxUint64)
			default:
				for _, k := range eventKeys {
					if bytes.EqualFold(key, []byte(k)) {
						return Event{}, d.errorf("key %q matches %q only case-insensitively", key, k)
					}
				}
				err = d.skipScalar()
			}
			if err != nil {
				return Event{}, err
			}
			d.skipSpace()
			if d.consume(',') {
				continue
			}
			if d.consume('}') {
				break
			}
			return Event{}, d.errorf("expected ',' or '}' after %q", key)
		}
	}
	d.skipSpace()
	if d.i != len(d.b) {
		return Event{}, d.errorf("trailing bytes after the event object")
	}

	var ok bool
	if ev.Kind, ok = KindFromString(string(kind)); !ok {
		return Event{}, fmt.Errorf("obs: unknown event kind %q", kind)
	}
	if ev.TLB, ok = TLBPathFromString(string(tlb)); !ok {
		return Event{}, fmt.Errorf("obs: unknown tlb path %q", tlb)
	}
	if ev.Fault, ok = FaultFromString(string(fault)); !ok {
		return Event{}, fmt.Errorf("obs: unknown fault kind %q", fault)
	}
	if ev.Access, ok = accessFromString(string(access)); !ok {
		return Event{}, fmt.Errorf("obs: unknown access kind %q", access)
	}
	v, err := parseAddr(va)
	if err != nil {
		return Event{}, fmt.Errorf("obs: bad va %q: %w", va, err)
	}
	ev.VA = addr.VA(v)
	if v, err = parseAddr(pa); err != nil {
		return Event{}, fmt.Errorf("obs: bad pa %q: %w", pa, err)
	}
	ev.PA = addr.PA(v)
	return ev, nil
}

// accessFromString inverts perm.Access.String for the three access kinds.
func accessFromString(s string) (perm.Access, bool) {
	switch s {
	case "read":
		return perm.Read, true
	case "write":
		return perm.Write, true
	case "fetch":
		return perm.Fetch, true
	}
	return 0, false
}

// parseAddr is strconv.ParseUint(s, 0, 64) with a fast path for the
// writer's own form, 0x and at most 16 hex digits.
func parseAddr(b []byte) (uint64, error) {
	if len(b) > 2 && len(b) <= 18 && b[0] == '0' && b[1] == 'x' {
		var n uint64
		for _, c := range b[2:] {
			switch {
			case '0' <= c && c <= '9':
				c -= '0'
			case 'a' <= c && c <= 'f':
				c -= 'a' - 10
			default:
				return strconv.ParseUint(string(b), 0, 64)
			}
			n = n<<4 | uint64(c)
		}
		return n, nil
	}
	return strconv.ParseUint(string(b), 0, 64)
}

// lineDecoder reads JSON tokens from one line, b[i:] being unread.
type lineDecoder struct {
	b []byte
	i int
}

func (d *lineDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("obs: column %d: %s", d.i+1, fmt.Sprintf(format, args...))
}

// skipSpace skips JSON whitespace.
func (d *lineDecoder) skipSpace() {
	for d.i < len(d.b) && d.b[d.i] <= ' ' {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

func (d *lineDecoder) consume(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

func (d *lineDecoder) literal(s string) bool {
	if bytes.HasPrefix(d.b[d.i:], []byte(s)) {
		d.i += len(s)
		return true
	}
	return false
}

// str reads a string and returns its contents. Escapes are refused: the
// writer never emits them.
func (d *lineDecoder) str() ([]byte, error) {
	if !d.consume('"') {
		return nil, d.errorf("expected a string")
	}
	b := d.b
	for i := d.i; i < len(b); i++ {
		if c := b[i]; c <= '\\' && (c == '"' || c == '\\' || c < 0x20) {
			s := b[d.i:i]
			d.i = i
			switch c {
			case '"':
				d.i++
				return s, nil
			case '\\':
				return nil, d.errorf("escaped strings are not part of the trace format")
			}
			return nil, d.errorf("control character in string")
		}
	}
	d.i = len(b)
	return nil, d.errorf("unterminated string")
}

// number reads a JSON number and returns its text.
func (d *lineDecoder) number() ([]byte, error) {
	b, i := d.b, d.i
	digits := func() int {
		n := 0
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
			n++
		}
		return n
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if digits() == 0 {
		return nil, d.errorf("expected a number")
	}
	if i < len(b) && b[i] == '.' {
		i++
		if digits() == 0 {
			return nil, d.errorf("expected a digit after '.'")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if digits() == 0 {
			return nil, d.errorf("expected a digit in the exponent")
		}
	}
	tok := b[d.i:i]
	d.i = i
	return tok, nil
}

// uint reads a JSON number that must be an integer in [0, max].
func (d *lineDecoder) uint(max uint64) (uint64, error) {
	tok, err := d.number()
	if err != nil {
		return 0, err
	}
	var n uint64
	for _, c := range tok {
		if c < '0' || c > '9' || n > (max-uint64(c-'0'))/10 {
			return 0, d.errorf("%s is not an integer in [0, %d]", tok, max)
		}
		n = n*10 + uint64(c-'0')
	}
	return n, nil
}

// int reads a JSON number that must be an integer in [lo, hi], lo < 0 < hi.
func (d *lineDecoder) int(lo, hi int64) (int64, error) {
	tok, err := d.number()
	if err != nil {
		return 0, err
	}
	neg := len(tok) > 0 && tok[0] == '-'
	limit := uint64(hi)
	digits := tok
	if neg {
		limit, digits = uint64(-lo), tok[1:]
	}
	var n uint64
	for _, c := range digits {
		if c < '0' || c > '9' || n > (limit-uint64(c-'0'))/10 {
			return 0, d.errorf("%s is not an integer in [%d, %d]", tok, lo, hi)
		}
		n = n*10 + uint64(c-'0')
	}
	if neg {
		return -int64(n), nil
	}
	return int64(n), nil
}

func (d *lineDecoder) bool() (bool, error) {
	switch {
	case d.literal("true"):
		return true, nil
	case d.literal("false"):
		return false, nil
	}
	return false, d.errorf("expected true or false")
}

// skipScalar skips the value of an unknown key. Objects and arrays are
// refused: the writer never emits them.
func (d *lineDecoder) skipScalar() error {
	if d.i == len(d.b) {
		return d.errorf("expected a value")
	}
	switch c := d.b[d.i]; {
	case c == '"':
		_, err := d.str()
		return err
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	case d.literal("true"), d.literal("false"), d.literal("null"):
		return nil
	case c == '{' || c == '[':
		return d.errorf("nested values are not part of the trace format")
	}
	return d.errorf("expected a value")
}
