package main

import "testing"

// The quartiles match Python's statistics.quantiles(xs, n=4), which an
// outside check of the benchmark's spread uses.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{4}, 4, 4, 4},
	} {
		s := summarize(c.xs)
		if s.Q1 != c.q1 || s.Median != c.m || s.Q3 != c.q3 || s.N != len(c.xs) {
			t.Errorf("summarize(%v) = %+v, want q1 %v median %v q3 %v", c.xs, s, c.q1, c.m, c.q3)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(xs, 99); got != 0 {
		t.Errorf("p99 of 100 samples = %v, want 0 (one sample beyond it)", got)
	}
	if got := percentile(xs[:1], 50); got != 1 {
		t.Errorf("p50 of one sample = %v, want 1", got)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{base, "unchanged"},
		{scale(1.05), "unchanged"},
		{scale(1.20), "regressed"},
		{scale(0.80), "improved"},
		{[]float64{0.5, 1.5, 0.7, 1.3, 1.0}, "unresolved"},
	} {
		if got := verdict(base, c.b, 0.1, true); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.b, got, c.want)
		}
	}
}
