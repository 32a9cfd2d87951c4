package main

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

// streamBytes concatenates every request body of a seed's interactive and
// bulk streams, in stream order, plus its arrival schedule.
func streamBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	s, _, c, err := buildNodeStack(options{seed: seed, trainEpochs: 1, setups: 1}, nil)
	defer c.close()
	if err != nil {
		t.Fatal(err)
	}
	attacked := 0
	for _, q := range s.qs {
		if q.attacked {
			attacked++
		}
	}
	if want := int(attackedShare * float64(len(s.qs))); attacked != want || attacked == 0 {
		t.Errorf("%d of %d queries FGSM-perturbed, want %d", attacked, len(s.qs), want)
	}
	var b bytes.Buffer
	seq, reqs := s.interactiveStream(seed)
	for _, k := range seq {
		b.Write(reqs[k])
	}
	ws, wseq, wreqs := s.bulkStream(seed)
	if len(ws) != numFloors*6 {
		t.Errorf("%d walks, want one per device per floor", len(ws))
	}
	for _, k := range wseq {
		b.Write(wreqs[k])
	}
	for _, off := range arrivals(derive(seed, "arrivals", 0), interactiveRate, 5*time.Second) {
		b.WriteString(off.String())
	}
	return b.Bytes()
}

func TestSeedGivesByteIdenticalStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-trains three nodes")
	}
	a, b, c := streamBytes(t, 7), streamBytes(t, 7), streamBytes(t, 8)
	if !bytes.Equal(a, b) {
		t.Error("the same seed gave different request streams")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds gave the same request stream")
	}
}

// runWorkload runs a workload end to end and returns its parsed result.
func runWorkload(t *testing.T, o options) (report, []string) {
	t.Helper()
	out, err := workloads[o.workload](o)
	if err != nil {
		t.Fatalf("%s: %v", o.workload, err)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	var buf bytes.Buffer
	if err := out.write(&buf, defs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var r report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Errorf("%s: correct=%v failed=%d attempted=%d\n%s", o.workload, r.Correct, r.Failed, r.Attempted, buf.String())
	}
	return r, lines
}

func TestWorkloadsRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("serves real nodes for about a minute")
	}
	base := options{seed: 3, trainEpochs: 1, setups: 1, sloMs: 25}
	t.Run("interactive", func(t *testing.T) {
		o := base
		o.workload, o.seconds = "interactive", 6
		r, _ := runWorkload(t, o)
		if r.Metrics["p50_ms"].Value <= 0 || r.Metrics["mean_error_m"].Value <= 0 {
			t.Errorf("metrics %v", r.Metrics)
		}
	})
	t.Run("interactive-traced", func(t *testing.T) {
		o := base
		o.workload, o.seconds, o.trace = "interactive", 8, true
		r, _ := runWorkload(t, o)
		for _, m := range []string{"serve.wait_us", "localizer.position_us", "localizer.floor_us", "node.localize_self_us", "serve.batches"} {
			if r.Metrics[m].Value <= 0 {
				t.Errorf("%s = %v on a traced interactive run", m, r.Metrics[m].Value)
			}
		}
	})
	t.Run("bulk", func(t *testing.T) {
		o := base
		o.workload, o.seconds = "bulk", 7
		r, _ := runWorkload(t, o)
		if r.Metrics["rows_per_s"].Value <= 0 {
			t.Errorf("metrics %v", r.Metrics)
		}
	})
	t.Run("fleet-update-traced", func(t *testing.T) {
		o := base
		o.workload, o.seconds, o.trace = "fleet-update", 16, true
		r, _ := runWorkload(t, o)
		for _, m := range []string{"cluster.proxied", "cluster.hop_self_us", "cluster.resolve_us", "node.feedback_us", "train.rounds", "finetune_s", "write_p50_ms"} {
			if r.Metrics[m].Value <= 0 {
				t.Errorf("%s = %v on a traced fleet-update run", m, r.Metrics[m].Value)
			}
		}
		// The first floor's loop stages its first candidate, the candidate
		// earns its shadow rows and the loop promotes it within the run, so
		// the clients' version checks see the version move.
		for _, m := range []string{"train.swaps", "train.version_changes"} {
			if r.Metrics[m].Value <= 0 {
				t.Errorf("%s = %v: no promotion reached the clients", m, r.Metrics[m].Value)
			}
		}
	})
}

func TestFleetScheduleWritesPerCycle(t *testing.T) {
	writes := [][]int{{0, 1, 2}, {3, 4}}
	dur := 2 * fleetCycle
	offsets, ops := fleetSchedule(5, "fleet", dur, 100, writes)
	again, opsAgain := fleetSchedule(5, "fleet", dur, 100, writes)
	if !slices.Equal(offsets, again) || !slices.Equal(ops, opsAgain) {
		t.Fatal("the same seed gave different fleet schedules")
	}
	if !slices.IsSorted(offsets) {
		t.Error("arrivals are not in time order")
	}
	perFloor := make([]int, len(writes))
	reads := 0
	for _, op := range ops {
		switch {
		case !op.write:
			reads++
		case op.k <= 2:
			perFloor[0]++
		default:
			perFloor[1]++
		}
	}
	for f, n := range perFloor {
		if n != 2*feedbackMin {
			t.Errorf("floor %d got %d writes in two cycles, want %d", f, n, 2*feedbackMin)
		}
	}
	if want := fleetReadRate * dur.Seconds(); math.Abs(float64(reads)-want) > 0.1*want {
		t.Errorf("%d reads in %v, want about %.0f", reads, dur, want)
	}
}
