package main

import (
	"math"
	"testing"
)

// TestScaling checks that timings are scaled by their own slice's
// calibration, rates by its inverse, and the p90 and throughput are the
// median over slices.
func TestScaling(t *testing.T) {
	r := newRun(options{}, defaultExpectations())
	// The host runs slice 0 at reference speed, slice 1 at half speed and
	// slice 2 at reference speed again; the program's own cost is the
	// same throughout.
	unit := []float64{calRefMs, 2 * calRefMs, calRefMs}
	for i, u := range unit {
		r.slice = i
		for j := 0; j < 5; j++ {
			r.cal[calKey{i, 1}] = append(r.cal[calKey{i, 1}], u)
		}
		slow := u / calRefMs
		for j := 1; j <= 10; j++ {
			r.sample("serve_ms", float64(j)*slow)
		}
		r.sample("record_events_per_s", 1000/slow)
		r.sliceRPS = append(r.sliceRPS, 50/slow)
	}
	r.slice = -1
	r.cal[calKey{-1, 1}] = []float64{2 * calRefMs}
	r.sample("setup_s", 4)

	v := map[string]float64{}
	r.endToEndValues(v, 1)
	for name, want := range map[string]float64{
		"serve_ms_p50":        5.5,
		"serve_ms_p90":        9.1,
		"serve_rps":           50,
		"record_events_per_s": 1000,
		"setup_s":             2,
	} {
		if got := v[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// The raw samples are kept as measured.
	if got := Summarize(r.samples["serve_ms"]).Median; got <= 5.5 {
		t.Errorf("raw median %v should show the slow slice", got)
	}
}

// TestCalibrationWidth checks that a calibration point runs on the
// requested number of threads and files its units under the current slice.
func TestCalibrationWidth(t *testing.T) {
	r := newRun(options{}, defaultExpectations())
	r.slice = 3
	r.calibrate(2)
	if n := len(r.cal[calKey{3, 2}]); n != calUnits {
		t.Fatalf("got %d units at width 2, want %d", n, calUnits)
	}
	if len(r.calState) != 2 {
		t.Fatalf("got %d kernel working sets, want 2", len(r.calState))
	}
	if k := r.scale(3, 2); k <= 0 || math.IsInf(k, 0) {
		t.Fatalf("scale = %v", k)
	}
	if k := r.scale(4, 2); k != 1 {
		t.Fatalf("scale without calibration = %v, want 1", k)
	}
}
