package main

import (
	"fmt"
	"net/http"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// every spaces n intended send times gap apart.
func every(n int, gap time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i) * gap
	}
	return out
}

func testServer(t *testing.T, h http.HandlerFunc) string {
	t.Helper()
	s, err := listen(h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	return s.addr()
}

// localizeTraffic sends a single localize request and expects rp 1.
var localizeTraffic = traffic{
	request: func(int) []byte { return httpRequest("POST", "/v1/localize", []byte(`{"rss":[0.5]}`)) },
	check: func(_ int, body []byte, _ *connState) error {
		_, err := checkAnswer(body, answer{rp: 1, floor: 0, version: 1})
		return err
	},
}

func TestFailuresAndWrongAnswersCounted(t *testing.T) {
	var n atomic.Int64
	addr := testServer(t, func(w http.ResponseWriter, r *http.Request) {
		switch n.Add(1) % 4 {
		case 1:
			http.Error(w, "model panic", http.StatusInternalServerError)
		case 2:
			fmt.Fprint(w, `{"rp":7,"floor":0,"backend":"calloc","version":1}`) // wrong class
		default:
			fmt.Fprint(w, `{"rp":1,"floor":0,"backend":"calloc","version":1}`)
		}
	})
	for _, run := range []func() (*phase, error){
		func() (*phase, error) { return openLoop(addr, 1, every(40, time.Millisecond), localizeTraffic) },
		func() (*phase, error) {
			n.Store(0)
			return closedLoop(addr, 1, 100*time.Millisecond, localizeTraffic)
		},
	} {
		p, err := run()
		if err != nil {
			t.Fatal(err)
		}
		// One connection answers requests in order: the first of every four
		// is a 500, the second a wrong class.
		errs, wrong := 0, 0
		for i := 1; i <= p.attempted; i++ {
			switch i % 4 {
			case 1:
				errs++
			case 2:
				wrong++
			}
		}
		if p.attempted < 8 || p.failed != errs+wrong {
			t.Errorf("%d attempted: %d failed, want %d (%d of them wrong answers)", p.attempted, p.failed, errs+wrong, wrong)
		}
	}
}

func TestTransportErrorCountedAndRedialed(t *testing.T) {
	var n atomic.Int64
	addr := testServer(t, func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 2 {
			// Drop the connection mid-request.
			hj, _ := w.(http.Hijacker)
			c, _, _ := hj.Hijack()
			c.Close()
			return
		}
		fmt.Fprint(w, `{"rp":1,"floor":0,"backend":"calloc","version":1}`)
	})
	p, err := openLoop(addr, 1, every(5, time.Millisecond), localizeTraffic)
	if err != nil {
		t.Fatal(err)
	}
	if p.attempted != 5 || p.failed != 1 {
		t.Errorf("attempted %d failed %d, want 5/1", p.attempted, p.failed)
	}
}

// A stalled server must show up in the latency of every request that was
// due while it stalled: the open loop stamps requests with their intended
// send time, so the wait for the busy connection is charged.
func TestStalledHandlerShowsInLatency(t *testing.T) {
	const stall = 300 * time.Millisecond
	var n atomic.Int64
	addr := testServer(t, func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			time.Sleep(stall)
		}
		fmt.Fprint(w, `{"rp":1,"floor":0,"backend":"calloc","version":1}`)
	})
	gap := 10 * time.Millisecond
	p, err := openLoop(addr, 1, every(20, gap), localizeTraffic)
	if err != nil {
		t.Fatal(err)
	}
	if p.failed != 0 {
		t.Fatalf("%d failed: %v", p.failed, p.firstErr)
	}
	for i, l := range p.lat {
		// Request i was due at i*gap and could not be sent before the
		// stalled first answer came back.
		if floor := ms(stall - time.Duration(i)*gap); l < floor {
			t.Errorf("request %d latency %.1f ms, want at least %.1f ms", i, l, floor)
		}
	}
	if p.backlogMax < 10 {
		t.Errorf("backlog peaked at %d during a %v stall of a %v schedule", p.backlogMax, stall, gap)
	}
	// The closed loop, by contrast, only ever charges its one slow request.
	n.Store(0)
	c, err := closedLoop(addr, 1, 400*time.Millisecond, localizeTraffic)
	if err != nil {
		t.Fatal(err)
	}
	slow := 0
	for _, l := range c.lat {
		if l >= ms(stall)/2 {
			slow++
		}
	}
	if slow != 1 {
		t.Errorf("closed loop charged %d slow requests, want 1", slow)
	}
}

func TestArrivalsFollowTheSeed(t *testing.T) {
	a, b := arrivals(1, 200, 10*time.Second), arrivals(1, 200, 10*time.Second)
	if !slices.Equal(a, b) {
		t.Error("same seed, different schedules")
	}
	if slices.Equal(a, arrivals(2, 200, 10*time.Second)) {
		t.Error("different seeds, same schedule")
	}
	if n := len(a); n < 1800 || n > 2200 {
		t.Errorf("%d arrivals in 10 s at 200/s", n)
	}
	if !slices.IsSorted(a) || a[len(a)-1] >= 10*time.Second {
		t.Error("schedule not ordered within the phase")
	}
}

func TestParseAnswers(t *testing.T) {
	a, err := parseAnswer([]byte(`{"rp":12,"floor":1,"backend":"calloc","version":3}`))
	if err != nil || a != (answer{rp: 12, floor: 1, version: 3}) {
		t.Errorf("parseAnswer = %+v, %v", a, err)
	}
	if _, err := parseAnswer([]byte(`{"error":"x"}`)); err == nil {
		t.Error("parsed an answer out of an error body")
	}
	rows, err := parseBatch([]byte(`{"results":[{"rp":1,"floor":0,"backend":"knn","version":1},{"rp":2,"floor":0,"backend":"knn","version":1}]}`), nil)
	if err != nil || len(rows) != 2 || rows[1].rp != 2 {
		t.Errorf("parseBatch = %+v, %v", rows, err)
	}
	if _, err := parseBatch([]byte(`{"results":[{"rp":1,"floor":0,"backend":"knn","version":1},{"error":"bad row","status":400}]}`), nil); err == nil {
		t.Error("a batch with a row error parsed")
	}
}
