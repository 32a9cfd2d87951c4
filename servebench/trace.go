package main

import (
	"net/http"
	"sync/atomic"
	"time"

	"calloc/internal/localizer"
	"calloc/internal/mat"
)

// span accumulates the calls, rows and wall time of one instrumented layer.
type span struct{ calls, rows, ns atomic.Int64 }

func (s *span) add(rows int, d time.Duration) {
	s.calls.Add(1)
	s.rows.Add(int64(rows))
	s.ns.Add(int64(d))
}

func (s *span) load() spanVal {
	return spanVal{calls: s.calls.Load(), rows: s.rows.Load(), ns: s.ns.Load()}
}

// spanVal is a span's counters at one instant, or their change over a phase.
type spanVal struct{ calls, rows, ns int64 }

func (a spanVal) sub(b spanVal) spanVal {
	return spanVal{calls: a.calls - b.calls, rows: a.rows - b.rows, ns: a.ns - b.ns}
}

func (a spanVal) us() float64 { return float64(a.ns) / 1e3 }

// usPer divides the span's time in microseconds by n (0 when n is 0).
func (a spanVal) usPer(n int64) float64 {
	if n == 0 {
		return 0
	}
	return a.us() / float64(n)
}

// tracer owns the spans of a traced run. Spans record only while on is set,
// so one run can measure an untraced and a traced phase over the same
// wrapped stack; a nil tracer wraps nothing.
type tracer struct {
	on    atomic.Bool
	spans map[string]*span // fixed once the stack is built
}

func newTracer() *tracer { return &tracer{spans: map[string]*span{}} }

// span returns the named span, creating it. Call only while building the
// stack: the map is read without locking afterwards.
func (t *tracer) span(name string) *span {
	s, ok := t.spans[name]
	if !ok {
		s = &span{}
		t.spans[name] = s
	}
	return s
}

// snapshot reads every span.
func (t *tracer) snapshot() map[string]spanVal {
	if t == nil {
		return nil
	}
	out := make(map[string]spanVal, len(t.spans))
	for k, s := range t.spans {
		out[k] = s.load()
	}
	return out
}

// handler times every request to the listed paths of h under the span
// "<layer><path>".
func (t *tracer) handler(layer string, h http.Handler, paths ...string) http.Handler {
	if t == nil {
		return h
	}
	byPath := make(map[string]*span, len(paths))
	for _, p := range paths {
		byPath[p] = t.span(layer + p)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := byPath[r.URL.Path]
		if s == nil || !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		s.add(1, time.Since(start))
	})
}

// localizer wraps l so its model calls land in the named span. The wrapper
// keeps l's estimator as its base, so localizer.Unwrap (which the trainer
// and the benchmark's own checks use to reach the core.Model) still works.
func (t *tracer) localizer(name string, l localizer.Localizer) localizer.Localizer {
	s := t.span(name)
	return localizer.Wrap(l.Name(), l.InputDim(), l.NumClasses(), localizer.Unwrap(l),
		func(dst []int, x *mat.Matrix) []int {
			if !t.on.Load() {
				return l.PredictInto(dst, x)
			}
			start := time.Now()
			dst = l.PredictInto(dst, x)
			s.add(x.Rows, time.Since(start))
			return dst
		})
}

// wrapRegistry swaps the floor classifiers and CALLOC models of reg for
// traced wrappers recording into the "localizer.floor" and
// "localizer.position" spans. The workloads send no request to the other
// backends.
//
// Registry.Swap bumps the keys' versions; the expectations the benchmark
// checks answers against are computed after the swap.
func (t *tracer) wrapRegistry(reg *localizer.Registry) error {
	if t == nil {
		return nil
	}
	for _, info := range reg.List() {
		snap, ok := reg.Get(info.Key)
		if !ok {
			continue
		}
		var name string
		switch info.Key.Backend {
		case localizer.FloorBackend:
			name = "localizer.floor"
		case "calloc":
			name = "localizer.position"
		default:
			continue
		}
		if _, err := reg.Swap(info.Key, t.localizer(name, snap.Localizer)); err != nil {
			return err
		}
	}
	return nil
}

// resolve times a router floor-resolution hook under "cluster.resolve".
func (t *tracer) resolve(f func([]float64) (int, error)) func([]float64) (int, error) {
	if t == nil {
		return f
	}
	s := t.span("cluster.resolve")
	return func(rss []float64) (int, error) {
		if !t.on.Load() {
			return f(rss)
		}
		start := time.Now()
		floor, err := f(rss)
		s.add(1, time.Since(start))
		return floor, err
	}
}
