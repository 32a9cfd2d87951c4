package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// benchmark must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !equalDefs(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark reports %v", e2e, endToEnd)
	}
	if !equalDefs(layer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark reports %v", layer, perLayer)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), "interactive,bulk,fleet-update"; got != want {
		t.Errorf("BENCHMARK.json workloads %s, want %s", got, want)
	}
	for _, n := range names {
		if workloads[n] == nil {
			t.Errorf("workload %q has no implementation", n)
		}
	}
}

func equalDefs(a, b []metricDef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEveryMetricPrintedWithNameAndUnit(t *testing.T) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		o := newOutcome(false)
		o.attempted = 10
		for i, d := range defs {
			o.set(d.name, float64(i)+0.5)
		}
		o.summary = []string{"a summary line"}
		var buf bytes.Buffer
		if err := o.write(&buf, defs); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var r report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			t.Fatalf("last line is not the result: %v", err)
		}
		if !r.Correct || r.Attempted != 10 || r.Failed != 0 {
			t.Errorf("result header %+v", r)
		}
		if len(r.Metrics) != len(defs) {
			t.Errorf("%d metrics printed, want %d", len(r.Metrics), len(defs))
		}
		for i, d := range defs {
			m, ok := r.Metrics[d.name]
			if !ok || m.Unit != d.unit || m.Value != float64(i)+0.5 {
				t.Errorf("metric %s printed as %+v (present %v), want unit %s", d.name, m, ok, d.unit)
			}
		}
	}
}

func TestMissingMetricIsAnError(t *testing.T) {
	o := newOutcome(false)
	o.attempted = 1
	var buf bytes.Buffer
	if err := o.write(&buf, endToEnd); err == nil || buf.Len() != 0 {
		t.Fatalf("write with no values: err %v, printed %q", err, buf.String())
	}
}

// Every kind of failure makes the result incorrect, not only a wrong
// answer: a 500 or a failed fine-tune round answered nothing the latency
// sample should count as served.
func TestAnyFailureMakesResultIncorrect(t *testing.T) {
	for _, p := range []*phase{
		{attempted: 5, failed: 2}, // a wrong class and a 500
		{attempted: 5, failed: 1}, // a 500 alone
	} {
		o := newOutcome(false)
		o.account(p)
		for _, d := range endToEnd {
			o.set(d.name, 1)
		}
		var buf bytes.Buffer
		if err := o.write(&buf, endToEnd); err != nil {
			t.Fatal(err)
		}
		var r report
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			t.Fatal(err)
		}
		if r.Correct || r.Attempted != p.attempted || r.Failed != p.failed {
			t.Errorf("result %+v after %+v, want correct=false attempted=%d failed=%d", r, *p, p.attempted, p.failed)
		}
	}
}
