package main

import (
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileIsNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
	}{
		{100, 99, 99}, {100, 50, 50}, {10, 50, 5}, {1000, 99, 990}, {7, 100, 7}, {1, 99, 1},
	}
	for _, c := range cases {
		if got := percentile(seq(c.n), c.p); got != c.want {
			t.Errorf("p%v of 1..%d = %v, want %v", c.p, c.n, got, c.want)
		}
	}
}

func TestP99NeedsTenSamplesBeyond(t *testing.T) {
	if got := minSamples(99, beyondP99); got != 1000 {
		t.Fatalf("minSamples(99, 10) = %d, want 1000", got)
	}
	if b := beyond(999, 99); b != 9 {
		t.Errorf("beyond(999, 99) = %d, want 9", b)
	}
	if _, _, err := segmentP99(seq(999)); err == nil {
		t.Error("999 samples gave a p99")
	}
	p99, sizes, err := segmentP99(seq(1000))
	if err != nil || len(sizes) != 1 || p99 != 990 {
		t.Errorf("1000 samples: p99 %v over %v, err %v; want 990 over one segment", p99, sizes, err)
	}
	// Three segments of 1000; the middle one's tail is the median.
	lat := append(append(seq(1000), seq(1000)...), seq(1000)...)
	for i := 2000; i < 3000; i++ {
		lat[i] *= 10
	}
	for i := 0; i < 1000; i++ {
		lat[i] /= 10
	}
	p99, sizes, err = segmentP99(lat)
	if err != nil || len(sizes) != 3 || p99 != 990 {
		t.Errorf("three segments: p99 %v over %v, err %v; want 990", p99, sizes, err)
	}
}

func TestLatencyReportCarriesSampleCount(t *testing.T) {
	out := newOutcome(false)
	if err := latencyMetrics(out, "test", seq(2500), true); err != nil {
		t.Fatal(err)
	}
	if out.values["loadgen.samples"] != 2500 || out.values["p50_ms"] != 1250 {
		t.Errorf("values %v", out.values)
	}
	line := strings.Join(out.summary, "\n")
	for _, want := range []string{"over 2500 samples", "median of 2 segments", "[1250 1250]", "10 beyond"} {
		if !strings.Contains(line, want) {
			t.Errorf("summary %q lacks %q", line, want)
		}
	}
	if err := latencyMetrics(newOutcome(false), "short", seq(500), true); err == nil {
		t.Error("a 500-sample run reported a p99")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}
