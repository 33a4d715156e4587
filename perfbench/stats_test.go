package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, tc := range []struct{ p, want float64 }{
		{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.1, 1},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{5, 1, 9}, 90); got != 9 {
		t.Errorf("p90 of three samples = %v, want the largest", got)
	}
	if got := percentile(nil, 90); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(1,4,16) = %v, want 4", got)
	}
	// Inputs a layer did not run on report 0 and are left out.
	if got := geomean([]float64{0, 2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(0,2,8) = %v, want 4", got)
	}
	if got := geomean([]float64{0, 0}); got != 0 {
		t.Errorf("geomean of zeros = %v, want 0", got)
	}
	// Equal values come back exactly, so counts repeat exactly.
	if got := geomean([]float64{4013, 4013, 0}); got != 4013 {
		t.Errorf("geomean(4013,4013) = %v, want exactly 4013", got)
	}
}

func TestMedianOfGroups(t *testing.T) {
	groups := map[string][]float64{
		"small": {0.10, 0.11, 0.50}, // one outlier: the median ignores it
		"large": {0.90, 1.00, 1.10},
	}
	want := math.Sqrt(0.11 * 1.00)
	if got := medianOfGroups(groups); math.Abs(got-want) > 1e-12 {
		t.Errorf("medianOfGroups = %v, want %v", got, want)
	}
	if got := medianOfGroups(nil); got != 0 {
		t.Errorf("medianOfGroups(nil) = %v, want 0", got)
	}
}
