package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"calloc/internal/cluster"
	"calloc/internal/localizer"
	"calloc/internal/node"
	"calloc/internal/serve"
)

// heapWatch samples the heap while a phase runs and keeps the peak.
type heapWatch struct {
	stop chan struct{}
	done chan struct{}
	once sync.Once
	peak float64 // MB; written before done closes
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		peak := uint64(0)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				h.peak = float64(peak) / (1 << 20)
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// end stops the sampler and returns the peak in MB. Later calls return the
// same peak, so an error path can defer it.
func (h *heapWatch) end() float64 {
	h.once.Do(func() {
		close(h.stop)
		<-h.done
	})
	return h.peak
}

// counters is everything a traced phase reads at its start and end: engine,
// wire, router and trainer counters of the stack, the tracer's spans, and
// the Go runtime's allocation and GC counts.
type counters struct {
	engines  []serve.Stats
	router   cluster.RouterStats
	rounds   int64
	swaps    int64
	aborts   int64
	rollback int64
	spans    map[string]spanVal
	mallocs  uint64
	numGC    uint32
}

func readCounters(nodes []*node.Node, r *cluster.Router, tr *tracer) counters {
	c := counters{spans: tr.snapshot()}
	for _, n := range nodes {
		c.engines = append(c.engines, n.Engine().Stats())
		for _, f := range n.Floors() {
			if t, ok := n.Trainer(f); ok {
				st := t.Stats()
				c.rounds += st.Rounds
				c.swaps += st.Swaps
				c.aborts += st.Aborts
				c.rollback += st.Rollbacks
			}
		}
	}
	if r != nil {
		c.router = r.Stats()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.numGC = ms.Mallocs, ms.NumGC
	return c
}

// engineTotals sums the engines' live-traffic counters; latencyNs is the
// summed enqueue-to-result time of every completed fingerprint.
type engineTotals struct {
	requests, batches, rows, fullWaits, shadowRows, dropped int64
	latencyNs                                               float64
}

func (c counters) engine() engineTotals {
	var t engineTotals
	for _, s := range c.engines {
		t.requests += s.Requests
		t.batches += s.Batches
		t.rows += s.Rows
		t.fullWaits += s.QueueFullWaits
		t.shadowRows += s.ShadowRows
		// Between phases every accepted fingerprint has been answered, so
		// Requests is the completed count AvgLatency averages over.
		t.latencyNs += float64(s.AvgLatency.Nanoseconds()) * float64(s.Requests)
		for _, ab := range s.AB {
			t.dropped += ab.Dropped
		}
	}
	return t
}

// layerMetrics turns the counter change over a traced phase into the
// per-layer metrics every workload reports.
//
// batch says whether the node requests were /v1/localize/batch calls, whose
// rows share one engine wait, rather than single requests, which wait once
// per routing stage. attempted counts the phase's client requests.
func layerMetrics(out *outcome, before, after counters, batch bool, attempted int) {
	eb, ea := before.engine(), after.engine()
	span := func(name string) spanVal { return after.spans[name].sub(before.spans[name]) }
	nodeLoc, nodeBatch := span("node/v1/localize"), span("node/v1/localize/batch")
	nodeRequests := float64(nodeLoc.calls + nodeBatch.calls)
	batches := ea.batches - eb.batches
	out.set("serve.batches", float64(batches))
	out.set("serve.avg_batch", ratio(float64(ea.rows-eb.rows), float64(batches)))
	out.set("serve.queue_full_waits", float64(ea.fullWaits-eb.fullWaits))
	out.set("serve.shadow_rows", float64(ea.shadowRows-eb.shadowRows))
	out.set("serve.shadow_dropped", float64(max(0, ea.dropped-eb.dropped)))

	pos, floor := span("localizer.position"), span("localizer.floor")
	out.set("localizer.position_us", pos.usPer(pos.calls))
	out.set("localizer.position_us_per_row", pos.usPer(pos.rows))
	out.set("localizer.floor_us", floor.usPer(floor.rows))

	// Engine time per node request: a single request's per-row stage waits
	// add up; a batch request's rows share one wait.
	engineUs := (ea.latencyNs - eb.latencyNs) / 1e3
	perReq := ratio(engineUs, nodeRequests)
	if batch {
		perReq = ratio(engineUs, float64(ea.requests-eb.requests))
	}
	// The wait is the engine time not spent in a model call. Without
	// localizer spans (fleet-update) it is not measured.
	wait := 0.0
	if pos.calls > 0 {
		wait = perReq - ratio(pos.us()+floor.us(), nodeRequests)
	}
	out.set("serve.wait_us", wait)

	out.set("node.localize_self_us", selfUs(nodeLoc, perReq))
	out.set("node.batch_self_us", selfUs(nodeBatch, perReq))
	fb := span("node/v1/feedback")
	out.set("node.feedback_us", fb.usPer(fb.calls))

	hop := span("router/v1/localize")
	hopSelf := 0.0
	if hop.calls > 0 {
		hopSelf = hop.usPer(hop.calls) - nodeLoc.usPer(nodeLoc.calls)
	}
	out.set("cluster.hop_self_us", hopSelf)
	res := span("cluster.resolve")
	out.set("cluster.resolve_us", res.usPer(res.calls))
	out.set("cluster.proxied", float64(after.router.Proxied-before.router.Proxied))
	out.set("cluster.retries", float64(after.router.Retries-before.router.Retries))
	out.set("cluster.shard_down", float64(after.router.ShardDown-before.router.ShardDown))

	out.set("go.allocs_per_req", ratio(float64(after.mallocs-before.mallocs), float64(attempted)))
	out.set("go.gc_cycles", float64(after.numGC-before.numGC))
}

// trainMetrics reports the trainers' rounds and gate decisions between two
// counter readings.
func trainMetrics(out *outcome, before, after counters) {
	out.set("train.rounds", float64(after.rounds-before.rounds))
	out.set("train.swaps", float64(after.swaps-before.swaps))
	out.set("train.aborts", float64(after.aborts-before.aborts))
	out.set("train.rollbacks", float64(after.rollback-before.rollback))
}

// selfUs is a handler span's mean minus the engine time it waited on.
func selfUs(s spanVal, engineUs float64) float64 {
	if s.calls == 0 {
		return 0
	}
	return s.usPer(s.calls) - engineUs
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// weightBytes sums the packed serving footprint of every CALLOC model the
// nodes serve.
func weightBytes(nodes []*node.Node) float64 {
	total := int64(0)
	for _, n := range nodes {
		for _, info := range n.Registry().List() {
			if info.Key.Backend == "calloc" {
				total += info.WeightBytes
			}
		}
	}
	return float64(total)
}

// loadgenMetrics reports the generator's own health over open-loop phases
// and fails the run when the generator, not the system, set the pace.
func loadgenMetrics(out *outcome, ps ...*phase) error {
	var lag []float64
	backlog := 0
	for _, p := range ps {
		lag = append(lag, p.lag...)
		backlog = max(backlog, p.backlogMax)
	}
	lagP99 := 0.0
	if len(lag) > 0 {
		lagP99 = newDist(lag).p(99)
	}
	out.set("loadgen.lag_p99_ms", lagP99)
	out.set("loadgen.backlog_max", float64(backlog))
	out.summary = append(out.summary, fmt.Sprintf("load generator: lag p99 %.3f ms over %d sends, backlog at most %d", lagP99, len(lag), backlog))
	if lagP99 > maxLagMs {
		return fmt.Errorf("%w: load generator lag p99 %.2f ms exceeds %d ms", errInvalid, lagP99, maxLagMs)
	}
	return nil
}

// latencyMetrics reports p50 of a time-ordered latency sample and its p99
// as the median over segments (see segmentP99), with the sample counts.
// strict fails a sample too small for a p99; a traced run, which reports no
// p99, passes false.
func latencyMetrics(out *outcome, what string, lat []float64, strict bool) error {
	p99, sizes, err := segmentP99(lat)
	if err != nil && strict {
		return fmt.Errorf("%s: %w", what, err)
	}
	p50 := newDist(lat).p(50)
	out.set("p50_ms", p50)
	out.set("p99_ms", p99)
	out.set("loadgen.samples", float64(len(lat)))
	out.summary = append(out.summary, fmt.Sprintf(
		"%s: p50 %.3f ms over %d samples; p99 %.3f ms, the median of %d segments' p99s over %v samples (%d beyond each p99 at least)",
		what, p50, len(lat), p99, len(sizes), sizes, beyondP99))
	return nil
}

// callocKey is the registry key of a floor's CALLOC model.
func callocKey(floor int) localizer.Key {
	return localizer.Key{Building: buildingID, Floor: floor, Backend: "calloc"}
}
