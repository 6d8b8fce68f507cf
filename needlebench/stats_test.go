package main

import "testing"

func TestTailLevel(t *testing.T) {
	for _, tc := range []struct {
		n      int
		want   string
		beyond int
	}{
		{1, "p50", 0},
		{99, "p50", 49},
		{100, "p90", 10},
		{493, "p90", 49},
		{999, "p90", 99},
		{1000, "p99", 10},
		{5481, "p99", 54},
		{9999, "p99", 99},
		{10000, "p99.9", 10},
	} {
		name, q := tailLevel(tc.n)
		if name != tc.want || beyond(q, tc.n) != tc.beyond {
			t.Errorf("tailLevel(%d) = %s with %d beyond, want %s with %d", tc.n, name, beyond(q, tc.n), tc.want, tc.beyond)
		}
		if name != "p50" && beyond(q, tc.n) < minBeyond {
			t.Errorf("tailLevel(%d) = %s has only %d samples beyond it", tc.n, name, beyond(q, tc.n))
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.1, 1}, {0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}} {
		if got := quantile(append([]float64(nil), xs...), tc.q); got != tc.want {
			t.Errorf("quantile(q=%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
}
