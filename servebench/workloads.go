package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"calloc/internal/core"
	"calloc/internal/fingerprint"
	"calloc/internal/localizer"
	"calloc/internal/node"
	"calloc/internal/train"
)

const (
	// interactiveRate is the offered rate of the interactive workload, well
	// under the closed-loop capacity of two connections.
	interactiveRate = 200.0
	// The slo_qps ladder: the traced phase at interactiveRate is rung 0,
	// then rates from ladderStart up by ladderStep per rung.
	ladderStart = 400.0
	ladderStep  = 1.25
	// walkRows is the bulk workload's batch size: one recorded walk.
	walkRows = 64
	// fleet-update load (derived in RECORD.md). Reads arrive at the
	// interactive rate, about a quarter of what the router carries over two
	// connections while a fine-tune round runs. Each floor's trainer loop
	// receives feedbackMin feedback writes per fleetCycle, evenly spaced, so
	// it runs one round per cycle: long enough for a whole stage, shadow,
	// promote and regret cycle between rounds, with training on the cores
	// for about a third of the time. The second node's loop starts
	// loopStagger after the first, so the two floors' rounds do not overlap
	// on the shared cores. A cycle of an odd number of seconds puts each
	// floor's feedbackMin-th write between two of its loop's 2 s ticks.
	fleetReadRate = 200.0
	fleetCycle    = 21 * time.Second
	loopStagger   = 5 * time.Second
)

// conns is the client connection budget: one per CPU.
func conns() int { return runtime.NumCPU() }

// connState is one connection's private state for response checks, and
// the figures of the fleet-update reads it answered.
type connState struct {
	answers     []answer
	lastVersion [numFloors]uint64

	reads, floorMisses, versionChanges int
	errSum, errMax                     float64
}

// score adds one answered read of query q. Both floors share one RP path,
// so an answer on another floor is charged the in-plane distance of its RP
// and counted as a floor miss.
func (cs *connState) score(dss []*fingerprint.Dataset, q query, a answer) {
	e := dss[q.floor].ErrorMeters(a.rp, q.rp)
	cs.reads++
	cs.errSum += e
	cs.errMax = math.Max(cs.errMax, e)
	if a.floor != q.floor {
		cs.floorMisses++
	}
}

// answered sums the read figures of every connection of ps.
func answered(ps ...*phase) connState {
	var t connState
	for _, p := range ps {
		for _, cs := range p.states {
			t.reads += cs.reads
			t.floorMisses += cs.floorMisses
			t.versionChanges += cs.versionChanges
			t.errSum += cs.errSum
			t.errMax = math.Max(t.errMax, cs.errMax)
		}
	}
	return t
}

// nodeStack is the single two-floor node the interactive and bulk
// workloads drive, with the query pool and the direct-predict expectation
// of every query.
type nodeStack struct {
	n      *node.Node
	srv    *server
	dss    []*fingerprint.Dataset
	qs     []query
	routed []answer // floor-less: floor classifier, then CALLOC on that floor
	given  []answer // floor given: CALLOC on the query's true floor
}

func buildNodeStack(o options, tr *tracer) (*nodeStack, setupTimes, closers, error) {
	var c closers
	var st setupTimes
	t := startTimer()
	s := &nodeStack{}
	var err error
	if s.dss, err = collectFloors(o.seed); err != nil {
		return nil, st, c, err
	}
	st.collect = t.lap()
	if s.n, err = node.New(s.dss, nodeConfig(o, "float64")); err != nil {
		return nil, st, c, err
	}
	c.add(s.n.Close)
	if err := tr.wrapRegistry(s.n.Registry()); err != nil {
		return nil, st, c, err
	}
	st.fit = t.lap()
	models := make([]*core.Model, len(s.dss))
	for f := range models {
		if models[f], _, err = servedModel(s.n.Registry(), callocKey(f)); err != nil {
			return nil, st, c, err
		}
	}
	s.qs = pool(o.seed, s.dss, models)
	if s.routed, s.given, err = expectations(s.n.Registry(), s.qs); err != nil {
		return nil, st, c, err
	}
	st.craft = t.lap()
	if s.srv, err = listen(tr.handler("node", s.n.Handler(), "/v1/localize", "/v1/localize/batch")); err != nil {
		return nil, st, c, err
	}
	c.add(s.srv.close)
	st.total = st.collect + st.fit + st.craft + t.lap()
	return s, st, c, nil
}

// expectations answers every query directly, one row per PredictInto on
// the registry snapshots the node serves: the floor classifier's floor then
// that floor's CALLOC model (floor-less), and the true floor's CALLOC model
// (floor given). Served answers must match exactly, version included.
func expectations(reg *localizer.Registry, qs []query) (routed, given []answer, err error) {
	fsnap, ok := reg.Get(localizer.FloorKey(buildingID))
	if !ok {
		return nil, nil, fmt.Errorf("node has no floor classifier")
	}
	preds := make([]*core.Predictor, numFloors)
	versions := make([]uint64, numFloors)
	for f := range preds {
		m, snap, err := servedModel(reg, callocKey(f))
		if err != nil {
			return nil, nil, err
		}
		preds[f], versions[f] = m.Predictor(), snap.Version
	}
	routed, given = make([]answer, len(qs)), make([]answer, len(qs))
	for i, q := range qs {
		x := fingerprint.X([]fingerprint.Sample{{RSS: q.rss}})
		floor := fsnap.Localizer.PredictInto(nil, x)[0]
		if floor < 0 || floor >= numFloors {
			return nil, nil, fmt.Errorf("floor classifier predicts floor %d", floor)
		}
		routed[i] = answer{rp: preds[floor].PredictInto(nil, x)[0], floor: floor, version: versions[floor]}
		given[i] = answer{rp: preds[q.floor].PredictInto(nil, x)[0], floor: q.floor, version: versions[q.floor]}
	}
	return routed, given, nil
}

// interactiveStream is the interactive request stream: stream position i
// sends reqs[seq[i%len(seq)]], a floor-less query of the pool.
func (s *nodeStack) interactiveStream(seed int64) (seq []int, reqs [][]byte) {
	reqs = make([][]byte, len(s.qs))
	for i, q := range s.qs {
		reqs[i] = httpRequest("POST", "/v1/localize", localizeBody(q))
	}
	return order(seed, "interactive", len(s.qs)), reqs
}

// bulkStream is the bulk request stream: stream position i sends the walk
// ws[seq[i%len(seq)]] as reqs[seq[i%len(seq)]].
func (s *nodeStack) bulkStream(seed int64) (ws []walk, seq []int, reqs [][]byte) {
	ws = walks(s.qs, walkRows)
	reqs = make([][]byte, len(ws))
	for i, w := range ws {
		reqs[i] = httpRequest("POST", "/v1/localize/batch", batchBody(s.qs, w))
	}
	return ws, order(seed, "bulk", len(ws)), reqs
}

// errorMetrics reports the localization error of the served answers over
// the distinct queries answered, so identical answers give identical
// figures however often the stream cycled. want[k] is the answer query k
// was served. Both floors share one RP path, so an answer on another floor
// is charged the in-plane distance of its RP; the summary counts those
// floor misses.
func errorMetrics(out *outcome, s *nodeStack, served []atomic.Int32, want []answer) {
	var errs []float64
	misses := 0
	for i := range served {
		if rp := served[i].Load(); rp >= 0 {
			errs = append(errs, s.dss[s.qs[i].floor].ErrorMeters(int(rp), s.qs[i].rp))
			if want[i].floor != s.qs[i].floor {
				misses++
			}
		}
	}
	out.set("mean_error_m", mean(errs))
	out.set("worst_error_m", newDist(errs).p(100))
	out.summary = append(out.summary, fmt.Sprintf("%d of %d distinct queries answered on another floor", misses, len(errs)))
}

func unserved(n int) []atomic.Int32 {
	s := make([]atomic.Int32, n)
	for i := range s {
		s[i].Store(-1)
	}
	return s
}

// tracerFor returns the run's tracer: nil (nothing wrapped) untraced.
func tracerFor(o options) *tracer {
	if !o.trace {
		return nil
	}
	return newTracer()
}

// account adds a phase's attempts and failures to the run.
func (o *outcome) account(ps ...*phase) {
	for _, p := range ps {
		o.attempted += p.attempted
		o.failed += p.failed
		if p.firstErr != nil {
			o.summary = append(o.summary, fmt.Sprintf("first failure: %v", p.firstErr))
		}
	}
}

// phaseDur is frac of the run's budget, but never shorter than a sample big
// enough for a p99 at rate.
func phaseDur(o options, frac, rate float64) time.Duration {
	need := 1.1 * float64(minSamples(99, beyondP99)) / rate
	return time.Duration(math.Max(frac*float64(o.seconds), need) * float64(time.Second))
}

// runInteractive drives independent phone users: floor-less single
// fingerprints on a seeded Poisson schedule against the two-floor node.
func runInteractive(o options) (*outcome, error) {
	tr := tracerFor(o)
	s, times, c, err := repeatSetup(o, func() (*nodeStack, setupTimes, closers, error) { return buildNodeStack(o, tr) })
	defer c.close()
	if err != nil {
		return nil, err
	}
	out := newOutcome(o.trace)
	setupMetrics(out, times)
	out.set("core.weight_bytes", weightBytes([]*node.Node{s.n}))

	seq, reqs := s.interactiveStream(o.seed)
	served := unserved(len(s.qs))
	traf := traffic{
		request: func(i int) []byte { return reqs[seq[i%len(seq)]] },
		check: func(i int, body []byte, _ *connState) error {
			k := seq[i%len(seq)]
			a, err := checkAnswer(body, s.routed[k])
			if err != nil {
				return fmt.Errorf("query %d: %w", k, err)
			}
			served[k].Store(int32(a.rp))
			return nil
		},
	}
	addr := s.srv.addr()
	runtime.GC()
	if !o.trace {
		if need := phaseDur(o, 0, interactiveRate); need > o.budget() {
			return nil, fmt.Errorf("interactive needs --seconds >= %.0f", math.Ceil(need.Seconds()))
		}
		heap := watchHeap()
		defer heap.end()
		p, err := openLoop(addr, conns(), arrivals(derive(o.seed, "arrivals", 0), interactiveRate, o.budget()), traf)
		if err != nil {
			return nil, err
		}
		out.set("peak_heap_mb", heap.end())
		out.account(p)
		if err := loadgenMetrics(out, p); err != nil {
			return nil, err
		}
		if err := latencyMetrics(out, "interactive", p.lat, true); err != nil {
			return nil, err
		}
		out.set("rows_per_s", float64(p.attempted-p.failed)/p.elapsed.Seconds())
		errorMetrics(out, s, served, s.routed)
		return out, nil
	}

	// Traced run: a short untraced phase, the same load traced, then the
	// ladder. The untraced phase only serves trace.overhead_pct's p50.
	durA := time.Duration(0.15 * float64(o.budget()))
	durB := phaseDur(o, 0.25, interactiveRate)
	pa, err := openLoop(addr, conns(), arrivals(derive(o.seed, "arrivals", 1), interactiveRate, durA), traf)
	if err != nil {
		return nil, err
	}
	nodes := []*node.Node{s.n}
	before := readCounters(nodes, nil, tr)
	tr.on.Store(true)
	heap := watchHeap()
	defer heap.end()
	pb, err := openLoop(addr, conns(), arrivals(derive(o.seed, "arrivals", 2), interactiveRate, durB), traf)
	if err != nil {
		return nil, err
	}
	out.set("peak_heap_mb", heap.end())
	after := readCounters(nodes, nil, tr)
	layerMetrics(out, before, after, false, pb.attempted)
	out.account(pa, pb)
	if err := loadgenMetrics(out, pa, pb); err != nil {
		return nil, err
	}
	if err := latencyMetrics(out, "interactive traced", pb.lat, true); err != nil {
		return nil, err
	}
	p50a, p50b := newDist(pa.lat).p(50), newDist(pb.lat).p(50)
	out.set("trace.overhead_pct", 100*(p50b-p50a)/p50a)
	layers := out.values["node.localize_self_us"] + out.values["serve.wait_us"] +
		out.values["localizer.floor_us"] + out.values["localizer.position_us_per_row"]
	out.summary = append(out.summary, fmt.Sprintf(
		"layer self times add up to %.1f us against a traced p50 of %.1f us (%.0f%%); untraced p50 %.1f us",
		layers, 1e3*p50b, 100*layers/(1e3*p50b), 1e3*p50a))

	rung0 := out.values["p99_ms"] <= o.sloMs && pb.failed == 0 && pb.lastBacklog <= conns()
	slo, rungs, notes := ladder(o, addr, traf, o.budget()-durA-durB, rung0)
	out.account(rungs...)
	out.summary = append(out.summary, notes...)
	out.set("slo_qps", slo)
	out.set("rows_per_s", float64(pb.attempted-pb.failed)/pb.elapsed.Seconds())
	out.set("failed_ratio", ratio(float64(out.failed), float64(out.attempted)))
	errorMetrics(out, s, served, s.routed)
	return out, nil
}

// ladder offers ascending open-loop rates, each for enough requests to read
// a p99, and returns the highest rate that met the SLO: p99 within the
// limit, no failure, and no backlog left when its last request went out.
// The rung at interactiveRate was already measured (rung0 says whether it
// passed); the ladder stops at the first failing rung or when budget runs
// out.
func ladder(o options, addr string, traf traffic, budget time.Duration, rung0 bool) (float64, []*phase, []string) {
	if !rung0 {
		return 0, nil, []string{fmt.Sprintf("slo ladder: %.0f/s missed the %.1f ms p99 limit", interactiveRate, o.sloMs)}
	}
	slo := interactiveRate
	var ps []*phase
	var notes []string
	for k, rate := 0, ladderStart; ; k, rate = k+1, rate*ladderStep {
		dur := phaseDur(o, 0, rate)
		if dur > budget {
			return slo, ps, append(notes, "slo ladder: out of time")
		}
		budget -= dur
		p, err := openLoop(addr, conns(), arrivals(derive(o.seed, "rung", k), rate, dur), traf)
		if err != nil {
			return slo, ps, append(notes, fmt.Sprintf("slo ladder: %v", err))
		}
		ps = append(ps, p)
		d := newDist(p.lat)
		pass := p.failed == 0 && beyond(len(d), 99) >= beyondP99 && d.p(99) <= o.sloMs && p.lastBacklog <= conns()
		notes = append(notes, fmt.Sprintf("slo ladder: %.0f/s p99 %.3f ms over %d samples, %d failed, backlog %d at the end: pass=%v",
			rate, d.p(99), len(d), p.failed, p.lastBacklog, pass))
		if !pass {
			return slo, ps, notes
		}
		slo = rate
	}
}

// runBulk drives a back-office job: a closed loop of 64-row batches, one
// recorded walk each, floor given.
func runBulk(o options) (*outcome, error) {
	tr := tracerFor(o)
	s, times, c, err := repeatSetup(o, func() (*nodeStack, setupTimes, closers, error) { return buildNodeStack(o, tr) })
	defer c.close()
	if err != nil {
		return nil, err
	}
	out := newOutcome(o.trace)
	setupMetrics(out, times)
	out.set("core.weight_bytes", weightBytes([]*node.Node{s.n}))

	ws, seq, reqs := s.bulkStream(o.seed)
	if len(ws) == 0 {
		return nil, fmt.Errorf("query pool does not split into %d-row walks", walkRows)
	}
	served := unserved(len(s.qs))
	traf := traffic{
		request: func(i int) []byte { return reqs[seq[i%len(seq)]] },
		check: func(i int, body []byte, cs *connState) error {
			w := ws[seq[i%len(seq)]]
			var err error
			if cs.answers, err = parseBatch(body, cs.answers); err != nil {
				return err
			}
			if len(cs.answers) != len(w.rows) {
				return fmt.Errorf("%d results for %d rows", len(cs.answers), len(w.rows))
			}
			for j, k := range w.rows {
				if a := cs.answers[j]; a != s.given[k] {
					return fmt.Errorf("%w: row %d (query %d) served %+v, direct PredictInto on the same snapshot gives %+v",
						errWrong, j, k, a, s.given[k])
				}
			}
			for j, k := range w.rows {
				served[k].Store(int32(cs.answers[j].rp))
			}
			return nil
		},
	}
	addr := s.srv.addr()
	runtime.GC()
	if !o.trace {
		heap := watchHeap()
		defer heap.end()
		p, err := closedLoop(addr, conns(), o.budget(), traf)
		if err != nil {
			return nil, err
		}
		out.set("peak_heap_mb", heap.end())
		out.account(p)
		if err := latencyMetrics(out, "bulk", p.lat, true); err != nil {
			return nil, err
		}
		out.set("rows_per_s", float64(walkRows*(p.attempted-p.failed))/p.elapsed.Seconds())
		errorMetrics(out, s, served, s.given)
		return out, nil
	}

	pa, err := closedLoop(addr, conns(), o.budget()/2, traf)
	if err != nil {
		return nil, err
	}
	nodes := []*node.Node{s.n}
	before := readCounters(nodes, nil, tr)
	tr.on.Store(true)
	heap := watchHeap()
	defer heap.end()
	pb, err := closedLoop(addr, conns(), o.budget()/2, traf)
	if err != nil {
		return nil, err
	}
	out.set("peak_heap_mb", heap.end())
	after := readCounters(nodes, nil, tr)
	layerMetrics(out, before, after, true, pb.attempted)
	out.account(pa, pb)
	if err := latencyMetrics(out, "bulk traced", pb.lat, true); err != nil {
		return nil, err
	}
	p50a, p50b := newDist(pa.lat).p(50), newDist(pb.lat).p(50)
	out.set("trace.overhead_pct", 100*(p50b-p50a)/p50a)
	out.set("rows_per_s", float64(walkRows*(pb.attempted-pb.failed))/pb.elapsed.Seconds())
	out.set("failed_ratio", ratio(float64(out.failed), float64(out.attempted)))
	errorMetrics(out, s, served, s.given)
	return out, nil
}

// fleetStack is the fleet-update stack with its read and feedback streams.
type fleetStack struct {
	*fleet
	dss []*fingerprint.Dataset
	qs  []query
	fbs [][]query // per floor: clean captures reported back with their true RP
}

func buildFleetStack(o options, tr *tracer) (*fleetStack, setupTimes, closers, error) {
	var c closers
	var st setupTimes
	t := startTimer()
	s := &fleetStack{}
	var err error
	if s.dss, err = collectFloors(o.seed); err != nil {
		return nil, st, c, err
	}
	st.collect = t.lap()
	if s.fleet, err = newFleet(o, s.dss, tr, &c); err != nil {
		return nil, st, c, err
	}
	st.fit = t.lap()
	models := make([]*core.Model, len(s.dss))
	for f := range models {
		if models[f], _, err = servedModel(s.nodes[f].Registry(), callocKey(f)); err != nil {
			return nil, st, c, err
		}
	}
	s.qs = pool(o.seed, s.dss, models)
	s.fbs = make([][]query, len(s.dss))
	for _, q := range s.qs {
		if !q.attacked {
			s.fbs[q.floor] = append(s.fbs[q.floor], q)
		}
	}
	st.craft = t.lap()
	s.router.Start()
	if err := s.preseed(); err != nil {
		return nil, st, c, err
	}
	st.total = st.collect + st.fit + st.craft + t.lap()
	return s, st, c, nil
}

// preseed posts one cycle's feedback per floor through the router, as a
// fleet that has been taking feedback holds it: each trainer loop then runs
// its first round at its first tick, and one run covers a whole round →
// stage → shadow → promote cycle.
func (s *fleetStack) preseed() error {
	rc, err := dial(s.srv.addr())
	if err != nil {
		return err
	}
	defer rc.close()
	for _, fbs := range s.fbs {
		for _, q := range fbs[:feedbackMin] {
			status, body, err := rc.roundTrip(httpRequest("POST", "/v1/feedback", feedbackBody(q)))
			if err != nil {
				return err
			}
			if status < 200 || status > 299 {
				return fmt.Errorf("pre-seeded feedback answered %d: %.200s", status, body)
			}
		}
	}
	return nil
}

// fleetOp is one arrival of the fleet-update stream: a read of query k or a
// feedback write of capture k.
type fleetOp struct {
	write bool
	k     int
}

// fleetSchedule draws one fleet-update load phase: floor-less reads on a
// seeded Poisson schedule at fleetReadRate, cycling through the query pool
// in a seeded order, merged with every floor's feedback writes,
// feedbackMin per fleetCycle and evenly spaced. writes[f] lists the write
// indices of floor f.
func fleetSchedule(seed int64, label string, dur time.Duration, reads int, writes [][]int) ([]time.Duration, []fleetOp) {
	type arrival struct {
		at time.Duration
		op fleetOp
	}
	var all []arrival
	seq := order(seed, label+"/reads", reads)
	for i, at := range arrivals(derive(seed, label, 0), fleetReadRate, dur) {
		all = append(all, arrival{at, fleetOp{k: seq[i%reads]}})
	}
	rng := newRand(derive(seed, label, 1))
	gap := fleetCycle / feedbackMin
	for f, ks := range writes {
		for at := time.Duration(2*f+1) * gap / 4; at < dur; at += gap {
			all = append(all, arrival{at, fleetOp{write: true, k: ks[rng.Intn(len(ks))]}})
		}
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].at < all[b].at })
	offsets, ops := make([]time.Duration, len(all)), make([]fleetOp, len(all))
	for i, a := range all {
		offsets[i], ops[i] = a.at, a.op
	}
	return offsets, ops
}

// trainerLoops runs the fleet's trainer loops as serving nodes run them:
// they tick every trainer interval, promote a staged candidate once it has
// its shadow rows, watch a promotion for regret, and start a fine-tune round
// once feedbackMin new samples are pending. The benchmark never calls
// FineTune itself. It times the loops' rounds from the trainers' stats: a
// round starts when its trainer's pending count drops (the round takes the
// feedback) and ends when its round count rises.
type trainerLoops struct {
	stop   chan struct{}
	done   chan struct{}
	rounds int
	durs   []float64 // seconds, of the rounds whose start was seen
	errs   []string  // trainer errors that appeared
}

// startLoops starts node f's trainer loop f·loopStagger after the first.
func startLoops(nodes []*node.Node) (*trainerLoops, error) {
	type watch struct {
		t       *train.Trainer
		pending int
		rounds  int64
		lastErr string
		began   time.Time
	}
	ws := make([]*watch, len(nodes))
	for f, n := range nodes {
		t, ok := n.Trainer(f)
		if !ok {
			return nil, fmt.Errorf("floor %d has no trainer", f)
		}
		st := t.Stats()
		ws[f] = &watch{t: t, pending: st.FeedbackPending, rounds: st.Rounds, lastErr: st.LastError}
	}
	l := &trainerLoops{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		start := time.Now()
		poll := time.NewTicker(5 * time.Millisecond)
		defer poll.Stop()
		started := 0
		for {
			for started < len(nodes) && time.Since(start) >= time.Duration(started)*loopStagger {
				nodes[started].Start()
				started++
			}
			now := time.Now()
			for _, w := range ws {
				st := w.t.Stats()
				if st.FeedbackPending < w.pending {
					w.began = now
				}
				if st.Rounds > w.rounds {
					l.rounds += int(st.Rounds - w.rounds)
					if !w.began.IsZero() {
						l.durs = append(l.durs, now.Sub(w.began).Seconds())
					}
					w.began = time.Time{}
				}
				if st.LastError != "" && st.LastError != w.lastErr {
					l.errs = append(l.errs, st.LastError)
				}
				w.pending, w.rounds, w.lastErr = st.FeedbackPending, st.Rounds, st.LastError
			}
			select {
			case <-l.stop:
				return
			case <-poll.C:
			}
		}
	}()
	return l, nil
}

// end stops timing and starting loops. Loops already started run on until
// their nodes close; a round still running is not counted.
func (l *trainerLoops) end() {
	close(l.stop)
	<-l.done
}

// runFleet drives a fleet taking feedback while serving: floor-less reads
// and feedback writes through the router on one seeded schedule, while the
// nodes' trainer loops fine-tune, stage, promote and watch for regret.
func runFleet(o options) (*outcome, error) {
	tr := tracerFor(o)
	s, times, c, err := repeatSetup(o, func() (*fleetStack, setupTimes, closers, error) { return buildFleetStack(o, tr) })
	defer c.close()
	if err != nil {
		return nil, err
	}
	out := newOutcome(o.trace)
	setupMetrics(out, times)

	reads := make([][]byte, len(s.qs))
	for i, q := range s.qs {
		reads[i] = httpRequest("POST", "/v1/localize", localizeBody(q))
	}
	var writes [][]byte
	byFloor := make([][]int, len(s.fbs))
	for f, fbs := range s.fbs {
		for _, q := range fbs {
			byFloor[f] = append(byFloor[f], len(writes))
			writes = append(writes, httpRequest("POST", "/v1/feedback", feedbackBody(q)))
		}
	}
	numRPs := s.dss[0].NumRPs
	newTraffic := func(ops []fleetOp) traffic {
		return traffic{
			request: func(i int) []byte {
				if op := ops[i]; op.write {
					return writes[op.k]
				}
				return reads[ops[i].k]
			},
			check: func(i int, body []byte, cs *connState) error {
				op := ops[i]
				if op.write {
					if !bytes.Contains(body, []byte(`"pending":`)) {
						return fmt.Errorf("%w: feedback answered %.200s", errWrong, body)
					}
					return nil
				}
				a, err := parseAnswer(body)
				if err != nil {
					return err
				}
				switch {
				case a.floor < 0 || a.floor >= numFloors || a.rp < 0 || a.rp >= numRPs:
					return fmt.Errorf("%w: answer %+v out of range", errWrong, a)
				case a.version < cs.lastVersion[a.floor]:
					return fmt.Errorf("%w: floor %d served version %d after %d", errWrong, a.floor, a.version, cs.lastVersion[a.floor])
				case a.version > cs.lastVersion[a.floor] && cs.lastVersion[a.floor] > 0:
					cs.versionChanges++
				}
				cs.lastVersion[a.floor] = a.version
				cs.score(s.dss, s.qs[op.k], a)
				return nil
			},
		}
	}
	addr := s.srv.addr()
	phaseRun := func(label string, dur time.Duration) (*phase, []fleetOp, error) {
		offsets, ops := fleetSchedule(o.seed, label, dur, len(reads), byFloor)
		p, err := openLoop(addr, conns(), offsets, newTraffic(ops))
		return p, ops, err
	}
	split := func(p *phase, ops []fleetOp) (r, w []float64) {
		for i, l := range p.lat {
			if ops[i].write {
				w = append(w, l)
			} else {
				r = append(r, l)
			}
		}
		return r, w
	}
	runtime.GC()
	first := readCounters(s.nodes, s.router, nil)
	loops, err := startLoops(s.nodes)
	if err != nil {
		return nil, err
	}
	var ps []*phase
	var readLat, writeLat []float64
	var before counters
	if !o.trace {
		heap := watchHeap()
		defer heap.end()
		p, ops, err := phaseRun("fleet", o.budget())
		if err != nil {
			loops.end()
			return nil, err
		}
		out.set("peak_heap_mb", heap.end())
		ps = append(ps, p)
		readLat, writeLat = split(p, ops)
	} else {
		pa, opsA, err := phaseRun("fleet-a", o.budget()/2)
		if err != nil {
			loops.end()
			return nil, err
		}
		before = readCounters(s.nodes, s.router, tr)
		tr.on.Store(true)
		heap := watchHeap()
		defer heap.end()
		pb, opsB, err := phaseRun("fleet-b", o.budget()/2)
		if err != nil {
			loops.end()
			return nil, err
		}
		out.set("peak_heap_mb", heap.end())
		ps = append(ps, pa, pb)
		ra, wa := split(pa, opsA)
		readLat, writeLat = split(pb, opsB)
		out.set("trace.overhead_pct", 100*(newDist(readLat).p(50)-newDist(ra).p(50))/newDist(ra).p(50))
		writeLat = append(writeLat, wa...)
	}
	loops.end()
	last := readCounters(s.nodes, s.router, tr)
	if o.trace {
		layerMetrics(out, before, last, false, ps[1].attempted)
	}
	// Rounds, promotions and rollbacks are a few events per run: count them
	// over the whole run, traced or not.
	trainMetrics(out, first, last)
	out.account(ps...)
	out.attempted += loops.rounds
	out.failed += len(loops.errs)
	if len(loops.errs) > 0 {
		out.summary = append(out.summary, fmt.Sprintf("trainer failure: %s", loops.errs[0]))
	}
	if len(loops.durs) == 0 {
		return nil, fmt.Errorf("no fine-tune round ran")
	}
	if err := loadgenMetrics(out, ps...); err != nil {
		return nil, err
	}
	if err := latencyMetrics(out, "fleet-update reads", readLat, !o.trace); err != nil {
		return nil, err
	}
	// The answered reads of the measured phase over its length: at a fixed
	// offered rate, a health figure rather than a capacity.
	measured, all := answered(ps[len(ps)-1]), answered(ps...)
	out.set("rows_per_s", float64(measured.reads)/ps[len(ps)-1].elapsed.Seconds())
	out.set("mean_error_m", ratio(all.errSum, float64(all.reads)))
	out.set("worst_error_m", all.errMax)
	out.set("core.weight_bytes", weightBytes(s.nodes))
	out.set("write_p50_ms", newDist(writeLat).p(50))
	out.set("finetune_s", mean(loops.durs))
	out.set("failed_ratio", ratio(float64(out.failed), float64(out.attempted)))
	out.set("train.version_changes", float64(all.versionChanges))
	out.summary = append(out.summary, fmt.Sprintf(
		"fine-tune rounds %v s; %d promotions, %d rollbacks, %d version changes seen by clients; %d feedback writes, p50 %.3f ms; %d of %d reads answered on another floor",
		loops.durs, last.swaps-first.swaps, last.rollback-first.rollback, all.versionChanges,
		len(writeLat), newDist(writeLat).p(50), all.floorMisses, all.reads))
	return out, nil
}
