package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4}, {0.9, 4.6},
	} {
		if got := Quantile(s, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v, %v) = %v, want %v", s, c.q, got, c.want)
		}
	}
	if got := Quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Errorf("empty input must give NaN")
	}
}

func TestSummarizeMedianAndQuartiles(t *testing.T) {
	// Even count: the median interpolates between the middle two.
	sum := Summarize([]float64{4, 1, 3, 2})
	if sum.N != 4 || sum.Median != 2.5 || sum.Q1 != 1.75 || sum.Q3 != 3.25 {
		t.Errorf("Summarize = %+v", sum)
	}
	// The input order must not matter and must not be modified.
	in := []float64{9, 1, 5}
	sum = Summarize(in)
	if sum.Median != 5 || in[0] != 9 {
		t.Errorf("Summarize(%v) = %+v", in, sum)
	}
	if sum.TailP != 0 {
		t.Errorf("3 samples cannot support a tail percentile, got p%v", sum.TailP)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10, 0}, {39, 0}, {40, 75}, {99, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := TailPercentile(c.n); got != c.want {
			t.Errorf("TailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarizeTail(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	sum := Summarize(s)
	if sum.TailP != 90 {
		t.Fatalf("TailP = %v, want 90", sum.TailP)
	}
	if math.Abs(sum.Tail-90.1) > 1e-9 {
		t.Errorf("p90 of 1..100 = %v, want 90.1", sum.Tail)
	}
	if got := Percentile(s, 90); got != sum.Tail {
		t.Errorf("Percentile(90) = %v, Summarize tail = %v", got, sum.Tail)
	}
}
