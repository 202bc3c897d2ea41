package main

import (
	"math"
	"sort"
)

// Summary holds the order statistics the benchmark reports for one set of
// samples: the median, the quartiles, and the highest percentile of a
// fixed ladder that still has at least ten samples beyond it.
type Summary struct {
	N      int
	Median float64
	Q1, Q3 float64
	// TailP is the percentile (e.g. 90) that Tail reports; 0 when there
	// are too few samples for any percentile above the median.
	TailP float64
	Tail  float64
}

// tailLadder lists the candidate tail percentiles, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to be more than one or two outliers.
const minBeyond = 10

// Quantile returns the q-quantile (0 <= q <= 1) of sorted by linear
// interpolation between closest ranks (Hyndman-Fan type 7). It returns
// NaN for an empty slice.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	h := q * float64(n-1)
	lo := math.Floor(h)
	i := int(lo)
	if i+1 >= n {
		return sorted[n-1]
	}
	return sorted[i] + (h-lo)*(sorted[i+1]-sorted[i])
}

// TailPercentile returns the highest percentile of the ladder with at
// least minBeyond of n samples beyond it, or 0 when none qualifies.
func TailPercentile(n int) float64 {
	for _, p := range tailLadder {
		// The epsilon absorbs rounding in 100-p for fractional p.
		if float64(n)*(100-p)/100 >= minBeyond-1e-9 {
			return p
		}
	}
	return 0
}

// Summarize computes the Summary of samples; the input is not modified.
func Summarize(samples []float64) Summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	sum := Summary{N: len(s)}
	if len(s) == 0 {
		return sum
	}
	sum.Median = Quantile(s, 0.5)
	sum.Q1 = Quantile(s, 0.25)
	sum.Q3 = Quantile(s, 0.75)
	if p := TailPercentile(len(s)); p > 0 {
		sum.TailP = p
		sum.Tail = Quantile(s, p/100)
	}
	return sum
}

// Percentile returns the p-th percentile (0..100) of samples.
func Percentile(samples []float64, p float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return Quantile(s, p/100)
}
