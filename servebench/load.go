package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxLagMs is the generator lag p99 above which a run is declared invalid:
// past it the load generator, not the system under test, decided when
// requests went out.
const maxLagMs = 20

// requestTimeout bounds one round trip; a hung server fails the request
// instead of the run.
const requestTimeout = 10 * time.Second

// traffic is what a generator sends: the prebuilt HTTP request for sequence
// number i and the check of its 2xx response. check runs concurrently on
// every connection; cs is the connection's own state.
type traffic struct {
	request func(i int) []byte
	check   func(i int, body []byte, cs *connState) error
}

// phase is what one load phase measured.
type phase struct {
	lat         []float64 // ms, in send order; from the intended send time (open loop) or the send (closed loop)
	lag         []float64 // ms the generator itself sent late, open loop only
	attempted   int
	failed      int
	backlogMax  int // most requests due but not yet sent at any send
	lastBacklog int // backlog when the last request went out
	elapsed     time.Duration
	firstErr    error
	states      []*connState // one per connection
}

// arrivals draws a Poisson arrival schedule: offsets from the phase start of
// every request sent at the given mean rate for dur.
func arrivals(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= dur {
			return out
		}
		out = append(out, off)
	}
}

// recorder counts a phase's attempts and failures across its connections.
type recorder struct {
	mu        sync.Mutex
	p         *phase
	failed    atomic.Int64
	attempted atomic.Int64
}

// errWrong marks a response that arrived but answered wrongly.
var errWrong = errors.New("wrong answer")

func (r *recorder) fail(err error) {
	r.failed.Add(1)
	r.mu.Lock()
	if r.p.firstErr == nil {
		r.p.firstErr = err
	}
	r.mu.Unlock()
}

// exchange sends request i on rc and checks the answer, recording failures.
// It redials after a transport error so one reset does not fail the rest of
// the phase.
func (r *recorder) exchange(rc *rawConn, tr traffic, i int, cs *connState) {
	r.attempted.Add(1)
	err := rc.c.SetDeadline(time.Now().Add(requestTimeout))
	var status int
	var body []byte
	if err == nil {
		status, body, err = rc.roundTrip(tr.request(i))
	}
	switch {
	case err != nil:
		r.fail(fmt.Errorf("request %d: %w", i, err))
		if err := rc.redial(); err != nil {
			r.fail(fmt.Errorf("redial: %w", err))
		}
	case status < 200 || status > 299:
		r.fail(fmt.Errorf("request %d: status %d: %.200s", i, status, body))
	default:
		if err := tr.check(i, body, cs); err != nil {
			r.fail(fmt.Errorf("request %d: %w", i, err))
		}
	}
}

func (r *recorder) finish(start time.Time) *phase {
	r.p.elapsed = time.Since(start)
	r.p.attempted = int(r.attempted.Load())
	r.p.failed = int(r.failed.Load())
	return r.p
}

// openLoop sends one request per schedule offset over conns keep-alive
// connections. Each request is stamped with its INTENDED send time: a
// request that waits for a free connection, because the server is still
// busy with earlier ones, is charged that wait as latency, so a slow server
// cannot hide its queueing by slowing the generator down. The generator's
// own wake-up lag (sleeping past a due time while a connection was free) is
// the load generator's error, not the server's: it is reported separately
// and not charged.
func openLoop(addr string, conns int, offsets []time.Duration, tr traffic) (*phase, error) {
	n := len(offsets)
	rec := &recorder{p: &phase{lat: make([]float64, n), lag: make([]float64, n), states: newStates(conns)}}
	rcs, err := dialAll(addr, conns)
	if err != nil {
		return nil, err
	}
	defer closeAll(rcs)
	var next atomic.Int64
	var backlogMax, lastBacklog atomic.Int64
	start := time.Now()
	// dueBy counts the requests whose intended send time has passed at t.
	dueBy := func(t time.Time) int {
		el := t.Sub(start)
		return sort.Search(n, func(j int) bool { return offsets[j] > el })
	}
	var wg sync.WaitGroup
	for w, rc := range rcs {
		wg.Add(1)
		go func(rc *rawConn, cs *connState) {
			defer wg.Done()
			free := start
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(offsets[i])
				now := time.Now()
				// Requests due by now but not yet claimed, this one included.
				storeMax(&backlogMax, int64(dueBy(now)-i))
				if now.Before(due) {
					sleepUntil(due)
				}
				sent := time.Now()
				if i == n-1 {
					lastBacklog.Store(int64(max(0, dueBy(sent)-i)))
				}
				ready := later(due, free)
				rec.p.lag[i] = ms(sent.Sub(ready))
				rec.exchange(rc, tr, i, cs)
				free = time.Now()
				// Latency runs from the intended send time; the one interval
				// not charged is the generator's own oversleep past the
				// moment it could have sent (reported as its lag).
				rec.p.lat[i] = ms(free.Sub(sent) + ready.Sub(due))
			}
		}(rc, rec.p.states[w])
	}
	wg.Wait()
	p := rec.finish(start)
	p.backlogMax = int(backlogMax.Load())
	p.lastBacklog = int(lastBacklog.Load())
	return p, nil
}

// closedLoop keeps conns connections busy for dur, each sending its next
// request as soon as the previous answer arrives; latency runs from send to
// answer. Request indices cycle through the stream in order.
func closedLoop(addr string, conns int, dur time.Duration, tr traffic) (*phase, error) {
	rec := &recorder{p: &phase{states: newStates(conns)}}
	rcs, err := dialAll(addr, conns)
	if err != nil {
		return nil, err
	}
	defer closeAll(rcs)
	var next atomic.Int64
	type timed struct {
		seq int
		ms  float64
	}
	lats := make([][]timed, conns)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w, rc := range rcs {
		wg.Add(1)
		go func(w int, rc *rawConn) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				sent := time.Now()
				rec.exchange(rc, tr, i, rec.p.states[w])
				lats[w] = append(lats[w], timed{i, ms(time.Since(sent))})
			}
		}(w, rc)
	}
	wg.Wait()
	p := rec.finish(start)
	// Sequence numbers are claimed in send order: sorting by them puts the
	// sample in time order.
	var all []timed
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].seq < all[b].seq })
	for _, t := range all {
		p.lat = append(p.lat, t.ms)
	}
	return p, nil
}

func newStates(n int) []*connState {
	out := make([]*connState, n)
	for i := range out {
		out[i] = &connState{}
	}
	return out
}

func dialAll(addr string, conns int) ([]*rawConn, error) {
	var rcs []*rawConn
	for i := 0; i < conns; i++ {
		rc, err := dial(addr)
		if err != nil {
			closeAll(rcs)
			return nil, err
		}
		rcs = append(rcs, rc)
	}
	return rcs, nil
}

func closeAll(rcs []*rawConn) {
	for _, rc := range rcs {
		rc.close()
	}
}

func storeMax(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
