package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestOptInt(t *testing.T) {
	type payload struct {
		Floor OptInt `json:"floor"`
	}
	for _, tc := range []struct {
		in   string
		want OptInt
		bad  bool
	}{
		{`{}`, OptInt{}, false},
		{`{"floor": null}`, OptInt{}, false},
		{`{"floor": 0}`, OptInt{Set: true, V: 0}, false},
		{`{"floor": 3}`, OptInt{Set: true, V: 3}, false},
		{`{"floor": -2}`, OptInt{Set: true, V: -2}, false},
		{`{"floor": 123456}`, OptInt{Set: true, V: 123456}, false},
		{`{"floor": 1.5}`, OptInt{}, true},
		{`{"floor": "1"}`, OptInt{}, true},
		{`{"floor": 9999999999999999999999}`, OptInt{}, true},
		{`{"floor": 20000000000000000000}`, OptInt{}, true}, // 10×v wraps back to positive
		{`{"floor": -9223372036854775808}`, OptInt{Set: true, V: math.MinInt64}, false},
	} {
		var p payload
		err := json.Unmarshal([]byte(tc.in), &p)
		if tc.bad {
			if err == nil {
				t.Fatalf("%s decoded to %+v, want error", tc.in, p.Floor)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.in, err)
		}
		if p.Floor != tc.want {
			t.Fatalf("%s = %+v, want %+v", tc.in, p.Floor, tc.want)
		}
	}
}

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "plain", `with "quotes"`, `back\slash`, "tab\tnewline\n", "ctrl\x01\x1f",
		"unicode: héllo — ok", "mixed\r\n\"end\"",
	} {
		got := string(AppendString(nil, s))
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back string
		if err := json.Unmarshal([]byte(got), &back); err != nil {
			t.Fatalf("AppendString(%q) emitted invalid JSON %s: %v", s, got, err)
		}
		if back != s {
			t.Fatalf("round trip of %q through %s = %q (encoding/json emits %s)", s, got, back, want)
		}
	}
}

func TestReadAllReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 256)
	for i := 0; i < 3; i++ {
		payload := strings.Repeat("x", 100+i)
		got, err := ReadAll(buf, strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != payload {
			t.Fatalf("read %q, want %q", got, payload)
		}
		if &got[0] != &buf[:1][0] {
			t.Fatal("ReadAll reallocated despite sufficient capacity")
		}
		buf = got
	}
	big, err := ReadAll(buf, strings.NewReader(strings.Repeat("y", 10000)))
	if err != nil || len(big) != 10000 {
		t.Fatalf("grow read = (%d bytes, %v)", len(big), err)
	}
}

func TestReadBodyOverflow413(t *testing.T) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/x", bytes.NewReader(make([]byte, 2048)))
	body, overflow, ok := ReadBody(rec, req, nil, 1024)
	if ok || !overflow {
		t.Fatalf("oversized body accepted (ok=%v overflow=%v, %d bytes)", ok, overflow, len(body))
	}
	if rec.Code != 413 {
		t.Fatalf("status %d, want 413", rec.Code)
	}

	rec = httptest.NewRecorder()
	req = httptest.NewRequest("POST", "/x", io.MultiReader(bytes.NewReader([]byte("ok"))))
	body, overflow, ok = ReadBody(rec, req, nil, 1024)
	if !ok || overflow || string(body) != "ok" {
		t.Fatalf("small body = (%q, overflow=%v, ok=%v)", body, overflow, ok)
	}
}
