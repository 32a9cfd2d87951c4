package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"calloc/internal/cluster"
	"calloc/internal/fingerprint"
	"calloc/internal/localizer"
	"calloc/internal/node"
	"calloc/internal/serve"
)

// server is one loopback HTTP listener.
type server struct {
	srv  *http.Server
	ln   net.Listener
	done chan struct{}
}

func listen(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}, ln: ln, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return s, nil
}

func (s *server) addr() string { return s.ln.Addr().String() }
func (s *server) url() string  { return "http://" + s.addr() }

// close stops the listener and every connection, and waits for Serve.
func (s *server) close() {
	s.srv.Close()
	<-s.done
}

// nodeConfig mirrors calloc-serve's flag defaults (backends calloc,knn,bayes,
// MaxBatch 32, MaxWait 500µs, default workers, queue and A/B fraction, the
// default trainer and promotion gate) except for the quick-train epoch
// count, which keeps set-up at a few seconds.
func nodeConfig(o options, precision string) node.Config {
	return node.Config{
		Backends:    []string{"calloc", "knn", "bayes"},
		TrainEpochs: o.trainEpochs,
		Precision:   precision,
		Engine: serve.Options{
			MaxBatch: 32, MaxWait: 500 * time.Microsecond, ABFraction: 8,
		},
		FeedbackMin: feedbackMin, TrainerInterval: 2 * time.Second,
		FineTuneEpochs: 6, FineTuneLR: 0.005,
		StageAfter: 1, PromoteAfter: 32, RegretWindow: 3,
	}
}

// feedbackMin is calloc-serve's -feedback-min: the new feedback samples a
// trainer loop waits for before it fine-tunes.
const feedbackMin = 16

// closers tears a stack down in reverse build order.
type closers []func()

func (c *closers) add(f func()) { *c = append(*c, f) }

func (c closers) close() {
	for i := len(c) - 1; i >= 0; i-- {
		c[i]()
	}
}

// setupTimes splits one set-up into its stages, in seconds.
type setupTimes struct{ total, collect, fit, craft float64 }

// timer measures consecutive stages of a set-up.
type timer struct{ last time.Time }

func startTimer() *timer { return &timer{last: time.Now()} }

func (t *timer) lap() float64 {
	now := time.Now()
	d := now.Sub(t.last).Seconds()
	t.last = now
	return d
}

// repeatSetup builds a stack o.setups times and keeps the last one, so
// setup_s is a median rather than one draw. Earlier stacks are torn down as
// soon as they are timed.
func repeatSetup[S any](o options, build func() (S, setupTimes, closers, error)) (S, []setupTimes, closers, error) {
	var times []setupTimes
	for i := 0; ; i++ {
		s, t, c, err := build()
		if err != nil {
			c.close()
			return s, nil, nil, err
		}
		times = append(times, t)
		if i == o.setups-1 {
			return s, times, c, nil
		}
		c.close()
	}
}

// setupMetrics reports the median set-up and its stages.
func setupMetrics(out *outcome, times []setupTimes) {
	pick := func(f func(setupTimes) float64) float64 {
		xs := make([]float64, len(times))
		for i, t := range times {
			xs[i] = f(t)
		}
		return median(xs)
	}
	out.set("setup_s", pick(func(t setupTimes) float64 { return t.total }))
	out.set("setup.collect_s", pick(func(t setupTimes) float64 { return t.collect }))
	out.set("setup.fit_s", pick(func(t setupTimes) float64 { return t.fit }))
	out.set("setup.craft_s", pick(func(t setupTimes) float64 { return t.craft }))
}

// floorResolver adapts a floor classifier to the router's Resolve hook, the
// way calloc-serve's router mode does.
func floorResolver(fc localizer.Localizer) func(rss []float64) (int, error) {
	return func(rss []float64) (int, error) {
		if len(rss) != fc.InputDim() {
			return 0, fmt.Errorf("fingerprint has %d features, floor resolver expects %d", len(rss), fc.InputDim())
		}
		row := append([]float64(nil), rss...)
		return fc.PredictInto(nil, fingerprint.X([]fingerprint.Sample{{RSS: row}}))[0], nil
	}
}

// fleet is the fleet-update stack: one int8 node per floor behind a router.
type fleet struct {
	nodes  []*node.Node
	router *cluster.Router
	srv    *server // the router's listener
}

// newFleet builds the two shard nodes and the router. The nodes' trainer
// loops start with the load (see startLoops).
func newFleet(o options, dss []*fingerprint.Dataset, tr *tracer, c *closers) (*fleet, error) {
	fl := &fleet{}
	nodeURLs := map[string]string{}
	assign := map[cluster.ShardKey]string{}
	for f, ds := range dss {
		cfg := nodeConfig(o, "int8")
		cfg.Floors = []int{f}
		n, err := node.New([]*fingerprint.Dataset{ds}, cfg)
		if err != nil {
			return nil, err
		}
		c.add(n.Close)
		s, err := listen(tr.handler("node", n.Handler(), "/v1/localize", "/v1/feedback"))
		if err != nil {
			return nil, err
		}
		c.add(s.close)
		name := fmt.Sprintf("node-%d", f)
		nodeURLs[name] = s.url()
		assign[cluster.ShardKey{Building: ds.BuildingID, Floor: f}] = name
		fl.nodes = append(fl.nodes, n)
	}
	sm, err := cluster.NewStaticMap(nodeURLs, assign)
	if err != nil {
		return nil, err
	}
	fc, err := node.FitFloorClassifier(dss, nil)
	if err != nil {
		return nil, err
	}
	fl.router, err = cluster.NewRouter(sm, cluster.RouterOptions{
		Building: dss[0].BuildingID,
		Resolve:  tr.resolve(floorResolver(fc)),
		Retries:  1,
		// calloc-serve's -probe-interval default.
		ProbeInterval: 2 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	c.add(fl.router.Close)
	if fl.srv, err = listen(tr.handler("router", fl.router.Handler(), "/v1/localize", "/v1/feedback")); err != nil {
		return nil, err
	}
	c.add(fl.srv.close)
	return fl, nil
}

// errInvalid marks a run whose load generator fell behind: its numbers
// describe the generator, so the run reports nothing.
var errInvalid = errors.New("run invalid")
