package main

import (
	"fmt"
	"math"
	"sort"
)

// beyondP99 is how many samples a run must hold above its p99 rank before
// the percentile is reported: a p99 read off fewer tail samples is mostly
// noise.
const beyondP99 = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest sample with at least p% of the samples at or below
// it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return min(max(r, 1), n)
}

// beyond counts the samples ranked strictly above the p-th percentile.
func beyond(n int, p float64) int { return n - rank(n, p) }

// minSamples is the smallest sample count that leaves want samples beyond
// the p-th percentile.
func minSamples(p float64, want int) int {
	n := want
	for beyond(n, p) < want {
		n++
	}
	return n
}

// dist is a sorted latency sample in milliseconds.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

func (d dist) p(q float64) float64 { return percentile(d, q) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median is the middle value of xs, or the mean of the two middle values.
func median(xs []float64) float64 {
	d := newDist(xs)
	n := len(d)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// segmentP99 splits a time-ordered latency sample into the most
// consecutive segments that each still hold a p99 with beyondP99 samples
// above it, and returns the median of the segments' p99s with the segment
// sizes. One burst of host noise then moves one segment, not the figure.
func segmentP99(lat []float64) (float64, []int, error) {
	need := minSamples(99, beyondP99)
	segs := len(lat) / need
	if segs < 1 {
		return 0, nil, fmt.Errorf("%d samples leave %d beyond p99, need %d (at least %d samples)",
			len(lat), beyond(len(lat), 99), beyondP99, need)
	}
	var p99s []float64
	var sizes []int
	for k := 0; k < segs; k++ {
		lo, hi := k*len(lat)/segs, (k+1)*len(lat)/segs
		p99s = append(p99s, newDist(lat[lo:hi]).p(99))
		sizes = append(sizes, hi-lo)
	}
	return median(p99s), sizes, nil
}
