package node

import (
	"strconv"

	"calloc/internal/wire"
)

// parseLocalizeFast decodes the /v1/localize request schema
// {"rss":[numbers],"floor":int,"backend":string} without encoding/json.
// Unmarshal burns four allocations per call on its own error-context
// bookkeeping, which is a third of the handler's remaining budget once the
// buffers are pooled. The parser covers the wire forms real clients send —
// flat object, numeric array, plain strings, nulls, unknown scalar fields
// (routers forward bodies carrying "building") — and reports false on
// anything else so the caller can fall back to json.Unmarshal; it never
// fails a body the fallback would accept, and never accepts one the fallback
// would reject or decode differently (FuzzParseLocalizeFast checks both
// against encoding/json). q must be reset by the caller before the fallback
// runs: a failed fast parse can leave partial fields.
//
//calloc:noalloc
func parseLocalizeFast(b []byte, q *localizeReq) bool {
	p := fastParser{b: b}
	p.space()
	if !p.eat('{') {
		return false
	}
	p.space()
	if p.eat('}') {
		return p.end()
	}
	for {
		key, ok := p.key()
		if !ok {
			return false
		}
		switch string(key) { // compiler elides the conversion in a switch
		case "rss":
			// A repeated key replaces the slice, matching json.Unmarshal's
			// last-wins semantics.
			q.RSS, ok = p.floats(q.RSS[:0])
		case "floor":
			ok = p.optInt(&q.Floor)
		case "backend":
			var s []byte
			if s, ok = p.str(); ok {
				q.Backend = internBackend(s) //calloc:allow internBackend's unknown-name copy, re-attributed here by inlining
			}
		default:
			// encoding/json matches field names case-insensitively, so a
			// "Floor" or "RSS" key is a field, not an unknown to skip.
			ok = !foldsToField(key) && p.skipScalar()
		}
		if !ok {
			return false
		}
		p.space()
		if p.eat(',') {
			p.space()
			continue
		}
		if p.eat('}') {
			return p.end()
		}
		return false
	}
}

// internBackend returns the canonical spelling of a known backend name so
// the hot path never allocates a string for a valid request; unknown names
// take the one-time allocation and fail model lookup downstream with the
// name intact for the error message.
//
//calloc:noalloc
func internBackend(s []byte) string {
	for _, name := range KnownBackends {
		if string(s) == name { // alloc-free comparison
			return name
		}
	}
	return string(s) //calloc:allow unknown backend names are rare; one copy beats holding the request buffer
}

// foldsToField reports whether key names one of the request's fields when
// ASCII case is ignored (str refuses non-ASCII keys, so ASCII folding is all
// encoding/json's field matching can reach).
//
//calloc:noalloc
func foldsToField(key []byte) bool {
	for _, name := range [...]string{"rss", "floor", "backend"} {
		if len(key) != len(name) {
			continue
		}
		i := 0
		for i < len(key) && key[i]|0x20 == name[i] { // |0x20 lowercases ASCII letters only
			i++
		}
		if i == len(key) {
			return true
		}
	}
	return false
}

// fastParser is a cursor over one request body. All methods advance i past
// what they consume and report false on anything outside the fast grammar.
type fastParser struct {
	b []byte
	i int
}

//calloc:noalloc
func (p *fastParser) space() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

//calloc:noalloc
func (p *fastParser) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// end reports whether only trailing whitespace remains.
//
//calloc:noalloc
func (p *fastParser) end() bool {
	p.space()
	return p.i == len(p.b)
}

// str parses a JSON string of printable ASCII with no escape sequences,
// returning the raw bytes between the quotes. A backslash, a control
// character (which JSON forbids) or a non-ASCII byte (which encoding/json
// would validate as UTF-8 and fold when matching keys) punts to the fallback
// parser.
//
//calloc:noalloc
func (p *fastParser) str() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.i
	for p.i < len(p.b) {
		switch c := p.b[p.i]; {
		case c == '"':
			s := p.b[start:p.i]
			p.i++
			return s, true
		case c == '\\', c < 0x20, c >= 0x80:
			return nil, false
		}
		p.i++
	}
	return nil, false
}

// key parses `"name" :` and leaves the cursor at the value.
//
//calloc:noalloc
func (p *fastParser) key() ([]byte, bool) {
	k, ok := p.str()
	if !ok {
		return nil, false
	}
	p.space()
	if !p.eat(':') {
		return nil, false
	}
	p.space()
	return k, true
}

// number consumes one JSON number token, -?(0|[1-9][0-9]*)(.[0-9]+)?
// ([eE][+-]?[0-9]+)?, and returns its value. Forms strconv.ParseFloat takes
// but JSON does not (a leading +, leading zeros, "1." or ".5") are refused.
// The token bytes go through strconv.ParseFloat via a non-escaping string
// conversion, which the compiler keeps off the heap for short tokens.
//
//calloc:noalloc
func (p *fastParser) number() (float64, bool) {
	start := p.i
	p.eat('-')
	if !p.eat('0') && !p.digits() {
		return 0, false
	}
	if p.eat('.') && !p.digits() {
		return 0, false
	}
	if p.eat('e') || p.eat('E') {
		if !p.eat('+') {
			p.eat('-')
		}
		if !p.digits() {
			return 0, false
		}
	}
	v, err := strconv.ParseFloat(string(p.b[start:p.i]), 64) //calloc:allow the compiler elides this non-escaping conversion (escapecheck-verified)
	return v, err == nil
}

// digits consumes one or more decimal digits.
//
//calloc:noalloc
func (p *fastParser) digits() bool {
	start := p.i
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i > start
}

// floats parses `[n, n, ...]` appending into dst.
//
//calloc:noalloc
func (p *fastParser) floats(dst []float64) ([]float64, bool) {
	if !p.eat('[') {
		return dst, false
	}
	p.space()
	if p.eat(']') {
		return dst, true
	}
	for {
		v, ok := p.number()
		if !ok {
			return dst, false
		}
		dst = append(dst, v)
		p.space()
		if p.eat(',') {
			p.space()
			continue
		}
		return dst, p.eat(']')
	}
}

// optInt parses an integer or null into o; null clears o, as
// OptInt.UnmarshalJSON does.
//
//calloc:noalloc
func (p *fastParser) optInt(o *wire.OptInt) bool {
	if p.null() {
		*o = wire.OptInt{}
		return true
	}
	start := p.i
	p.eat('-')
	if !p.eat('0') && !p.digits() { // JSON's -?(0|[1-9][0-9]*): a digit after a 0 fails the caller's delimiter check
		return false
	}
	v, err := strconv.Atoi(string(p.b[start:p.i])) //calloc:allow the compiler elides this non-escaping conversion (escapecheck-verified)
	if err != nil {
		return false // overflows int
	}
	*o = wire.OptInt{Set: true, V: v}
	return true
}

//calloc:noalloc
func (p *fastParser) null() bool {
	if len(p.b)-p.i >= 4 && string(p.b[p.i:p.i+4]) == "null" {
		p.i += 4
		return true
	}
	return false
}

// skipScalar consumes one unknown field's value when it is a scalar
// (string, number, boolean, null). Containers punt to the fallback.
//
//calloc:noalloc
func (p *fastParser) skipScalar() bool {
	if p.i >= len(p.b) {
		return false
	}
	switch c := p.b[p.i]; {
	case c == '"':
		_, ok := p.str()
		return ok
	case c == 't':
		return p.lit("true")
	case c == 'f':
		return p.lit("false")
	case c == 'n':
		return p.null()
	case c == '-' || (c >= '0' && c <= '9'):
		_, ok := p.number()
		return ok
	}
	return false
}

//calloc:noalloc
func (p *fastParser) lit(s string) bool {
	if len(p.b)-p.i >= len(s) && string(p.b[p.i:p.i+len(s)]) == s {
		p.i += len(s)
		return true
	}
	return false
}
