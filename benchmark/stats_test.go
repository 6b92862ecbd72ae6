package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	samples := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6},
	} {
		if got := percentile(samples, tc.p); !near(got, tc.want) {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if samples[0] != 5 {
		t.Error("percentile reordered the caller's samples")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := median([]float64{1, 2, 3, 4}); !near(got, 2.5) {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSampleCountRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{99, 90, false}, {100, 90, true}, // ten samples beyond p90 need a hundred
		{19, 50, false}, {20, 50, true},
		{100, 10, true}, {99, 10, false}, // the thin side of a low percentile counts too
		{999, 99, false}, {1000, 99, true},
	} {
		if got := supported(tc.n, tc.p); got != tc.want {
			t.Errorf("supported(%d, p%v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestSpreadAndIQR(t *testing.T) {
	if got := spread([]float64{100, 110, 105}); !near(got, 0.10) {
		t.Errorf("spread = %v, want 0.10", got)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := iqrShare(vals), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
	// statistics.quantiles([10, 12], n=4) == [9.5, 11.0, 12.5]: with few
	// values Python extrapolates, and so must this.
	if got, want := iqrShare([]float64{12, 10}), 3.0/11; !near(got, want) {
		t.Errorf("iqrShare of two values = %v, want %v", got, want)
	}
}
