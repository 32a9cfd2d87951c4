package node

import (
	"encoding/json"
	"math"
	"testing"
)

// TestParseLocalizeFastMatchesJSON runs every wire form through both the
// fast parser and encoding/json. For bodies the fast path accepts, the two
// decodes must agree field for field; for bodies it punts on, json.Unmarshal
// must still produce the documented result (the handler's fallback), so a
// punt is never user-visible.
func TestParseLocalizeFastMatchesJSON(t *testing.T) {
	cases := []struct {
		name string
		body string
		fast bool // fast parser should accept
	}{
		{"typical", `{"rss":[-67.5,-80,-45.25],"floor":0}`, true},
		{"routed", `{"rss":[-67.5,-80]}`, true},
		{"backend known", `{"rss":[-1,-2],"backend":"knn","floor":3}`, true},
		{"backend unknown", `{"rss":[-1],"backend":"svm"}`, true},
		{"negative floor", `{"rss":[-1],"floor":-2}`, true},
		{"null floor", `{"rss":[-1],"floor":null}`, true},
		{"scientific", `{"rss":[-6.75e1,1E-2,3.5e+2]}`, true},
		{"whitespace", " {\n\t\"rss\" : [ -1 , -2 ] ,\r\n \"floor\" : 1 } ", true},
		{"empty rss", `{"rss":[]}`, true},
		{"empty object", `{}`, true},
		{"unknown scalar fields", `{"building":3,"rss":[-1],"tag":"x","ok":true,"nada":null,"f":false}`, true},
		{"duplicate rss last wins", `{"rss":[-1,-2],"rss":[-9]}`, true},
		{"duplicate floor last wins", `{"floor":1,"floor":2,"rss":[-1]}`, true},
		{"min int floor", `{"rss":[-1],"floor":-9223372036854775808}`, true},
		// Punts: the fallback decoder must handle these.
		{"escaped backend", `{"rss":[-1],"backend":"k\u006en"}`, false},
		{"unknown object field", `{"rss":[-1],"meta":{"a":1}}`, false},
		{"unknown array field", `{"rss":[-1],"tags":["a"]}`, false},
		{"huge floor overflows int", `{"rss":[-1],"floor":99999999999999999999}`, false},
		{"floor wraps int", `{"rss":[-1],"floor":20000000000000000000}`, false},
		{"leading zero", `{"rss":[00]}`, false},
		{"bare fraction", `{"rss":[1.]}`, false},
		{"leading zero floor", `{"rss":[-1],"floor":01}`, false},
		{"case-folded field", `{"rss":[-1],"FLOOR":3}`, false},
		{"control character", "{\"rss\":[-1],\"tag\":\"a\x01\"}", false},
		{"non-ASCII backend", "{\"rss\":[-1],\"backend\":\"kn\xffn\"}", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var fast, slow localizeReq
			fast.reset()
			ok := parseLocalizeFast([]byte(tc.body), &fast)
			if ok != tc.fast {
				t.Fatalf("fast parse accepted=%v, want %v", ok, tc.fast)
			}
			if err := json.Unmarshal([]byte(tc.body), &slow); err != nil {
				if tc.fast {
					t.Fatalf("json.Unmarshal rejected a fast-accepted body: %v", err)
				}
				return
			}
			if !ok {
				return
			}
			if len(fast.RSS) != len(slow.RSS) {
				t.Fatalf("rss length %d vs %d", len(fast.RSS), len(slow.RSS))
			}
			for i := range fast.RSS {
				if math.Abs(fast.RSS[i]-slow.RSS[i]) > 1e-12 {
					t.Fatalf("rss[%d] = %v vs %v", i, fast.RSS[i], slow.RSS[i])
				}
			}
			if fast.Backend != slow.Backend || fast.Floor != slow.Floor {
				t.Fatalf("fast {%q %v} vs json {%q %v}", fast.Backend, fast.Floor, slow.Backend, slow.Floor)
			}
		})
	}
}

// Malformed bodies must be rejected by the fast parser (so the fallback
// produces the 400), never half-accepted.
func TestParseLocalizeFastRejectsMalformed(t *testing.T) {
	bad := []string{
		``, `null`, `[]`, `42`, `"x"`,
		`{"rss":[-1]`, `{"rss":[-1],}`, `{"rss":[-1,]}`, `{"rss":[-1]}}`,
		`{"rss":[-1]} trailing`, `{"rss":["-1"]}`, `{"rss":-1}`,
		`{rss:[-1]}`, `{"rss" [-1]}`, `{"floor":}`, `{"floor":true}`,
		`{"floor":--1}`, `{"floor":1.5,"rss":[-1]}`, // json also rejects 1.5 into int
	}
	for _, body := range bad {
		var q localizeReq
		q.reset()
		if parseLocalizeFast([]byte(body), &q) {
			t.Errorf("fast parser accepted malformed %q", body)
		}
	}
}

// The canonical spellings must intern to the registry's strings so a valid
// request never allocates for its backend name.
func TestInternBackend(t *testing.T) {
	for _, name := range KnownBackends {
		if got := internBackend([]byte(name)); got != name {
			t.Fatalf("internBackend(%q) = %q", name, got)
		}
	}
	if got := internBackend([]byte("svm")); got != "svm" {
		t.Fatalf("internBackend(svm) = %q", got)
	}
}

// FuzzParseLocalizeFast is a differential against encoding/json: whenever
// the fast parser accepts a body, json.Unmarshal must accept it too and
// decode the same rss (bit for bit), floor and backend. Punting is always
// allowed — the handler then falls back to json.Unmarshal. The committed seed
// corpus (testdata/fuzz) holds TestParseLocalizeFastMatchesJSON's bodies.
func FuzzParseLocalizeFast(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var fast, slow localizeReq
		fast.reset()
		if !parseLocalizeFast(body, &fast) {
			return
		}
		if err := json.Unmarshal(body, &slow); err != nil {
			t.Fatalf("fast parser accepted %q; json.Unmarshal rejects it: %v", body, err)
		}
		if len(fast.RSS) != len(slow.RSS) {
			t.Fatalf("%q: rss length %d vs json %d", body, len(fast.RSS), len(slow.RSS))
		}
		for i := range fast.RSS {
			if math.Float64bits(fast.RSS[i]) != math.Float64bits(slow.RSS[i]) {
				t.Fatalf("%q: rss[%d] = %v vs json %v", body, i, fast.RSS[i], slow.RSS[i])
			}
		}
		if fast.Backend != slow.Backend || fast.Floor != slow.Floor {
			t.Fatalf("%q: fast {%q %+v} vs json {%q %+v}", body, fast.Backend, fast.Floor, slow.Backend, slow.Floor)
		}
	})
}
