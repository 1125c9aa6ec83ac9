package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile before the
// benchmark reports it: fewer, and the percentile is one or two
// unlucky samples rather than a property of the distribution.
const minTail = 10

// tailCandidates are the percentiles a timing may be reported at, in
// tenths of a percent (exact in integers), highest first.
var tailCandidates = []int{999, 990, 950, 900, 750}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs, interpolating
// linearly between the closest ranks, or NaN when xs is empty. xs is
// not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// median is the 0.5-quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	return quantile(xs, 0.25), quantile(xs, 0.75)
}

// tailPercentile returns the highest candidate percentile that leaves at
// least minTail of n samples beyond it, or 50 — the median alone — when
// none does.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if n*(1000-p) >= minTail*1000 {
			return float64(p) / 10
		}
	}
	return 50
}

// millis converts a duration to float milliseconds.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
