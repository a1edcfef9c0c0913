package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) < 1e-9
}

func TestSummarizeBasics(t *testing.T) {
	vals := []float64{4, 1, 3, 2, 5}
	s := Summarize(vals)
	if s.Count != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Fatalf("unexpected summary: %+v", s)
	}
	// Input must not be mutated.
	if vals[0] != 4 {
		t.Fatal("Summarize mutated its input")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 {
		t.Fatalf("empty summary count = %d", s.Count)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	vals := []float64{0, 10}
	if q := Quantile(vals, 0.5); !almostEqual(q, 5) {
		t.Fatalf("median of {0,10} = %v, want 5", q)
	}
	if q := Quantile(vals, 0.25); !almostEqual(q, 2.5) {
		t.Fatalf("q25 of {0,10} = %v, want 2.5", q)
	}
	if q := Quantile([]float64{7}, 0.99); q != 7 {
		t.Fatalf("quantile of singleton = %v, want 7", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("quantile of empty should be NaN")
	}
}

func TestQuantilePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile(1.5) did not panic")
		}
	}()
	Quantile([]float64{1}, 1.5)
}

func TestMean(t *testing.T) {
	if m := Mean([]float64{2, 4, 6}); m != 4 {
		t.Fatalf("mean = %v, want 4", m)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("mean of empty should be NaN")
	}
}

func TestOnlineMatchesBatch(t *testing.T) {
	vals := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	var o Online
	for _, v := range vals {
		o.Add(v)
	}
	if o.N() != len(vals) {
		t.Fatalf("N = %d", o.N())
	}
	if !almostEqual(o.Mean(), Mean(vals)) {
		t.Fatalf("online mean %v != batch %v", o.Mean(), Mean(vals))
	}
	if o.Min() != 1 || o.Max() != 9 {
		t.Fatalf("min/max = %v/%v", o.Min(), o.Max())
	}
}

func TestOnlineEmpty(t *testing.T) {
	var o Online
	if !math.IsNaN(o.Mean()) || !math.IsNaN(o.Min()) || !math.IsNaN(o.Max()) {
		t.Fatal("empty Online should report NaN everywhere")
	}
}

func TestCDFAt(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct {
		x, want float64
	}{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); !almostEqual(got, cse.want) {
			t.Errorf("At(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
}

func TestCDFQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		vals := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		c := NewCDF(vals)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			x := c.Quantile(q)
			if x < prev {
				return false
			}
			prev = x
		}
		return c.Quantile(0) == c.Min() && c.Quantile(1) == c.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCDFRoundTripProperty: for every sample x, At(x) >= the fraction of
// samples strictly below x, and quantiles land inside [min, max].
func TestCDFRoundTripProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var vals []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		c := NewCDF(vals)
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		for i, x := range sorted {
			f := c.At(x)
			if f < float64(i+1)/float64(len(sorted))-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesIndexing(t *testing.T) {
	s := NewSeries(1000, 100, 10) // covers [1000, 2000)
	if s.Len() != 10 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.Index(999) != -1 || s.Index(2000) != -1 {
		t.Fatal("out-of-range times should index -1")
	}
	if s.Index(1000) != 0 || s.Index(1099) != 0 || s.Index(1100) != 1 {
		t.Fatal("interval indexing wrong")
	}
	if s.TimeAt(3) != 1300 {
		t.Fatalf("TimeAt(3) = %d", s.TimeAt(3))
	}
}

func TestSeriesAddMax(t *testing.T) {
	s := NewSeries(0, 10, 3)
	copy(s.Values, []float64{5, 7, 1})
	if s.Sum() != 13 {
		t.Fatalf("sum = %v", s.Sum())
	}
	if s.Max() != 7 {
		t.Fatalf("max = %v", s.Max())
	}
	s.Scale(2)
	if s.Values[1] != 14 {
		t.Fatalf("scale failed: %v", s.Values)
	}
}

func TestSpansAbove(t *testing.T) {
	s := NewSeries(0, 1, 10)
	copy(s.Values, []float64{0, 5, 6, 0, 7, 0, 0, 8, 9, 10})
	spans := s.SpansAbove(4)
	want := []Span{{1, 2}, {4, 4}, {7, 9}}
	if len(spans) != len(want) {
		t.Fatalf("spans = %v", spans)
	}
	for i := range want {
		if spans[i] != want[i] {
			t.Fatalf("spans = %v, want %v", spans, want)
		}
	}
	if spans[2].Len() != 3 {
		t.Fatalf("span len = %d", spans[2].Len())
	}
	vals := s.Slice(spans[0])
	if len(vals) != 2 || vals[0] != 5 {
		t.Fatalf("slice = %v", vals)
	}
}

func TestSpansAboveEdges(t *testing.T) {
	s := NewSeries(0, 1, 3)
	copy(s.Values, []float64{9, 9, 9})
	spans := s.SpansAbove(1)
	if len(spans) != 1 || spans[0] != (Span{0, 2}) {
		t.Fatalf("all-above spans = %v", spans)
	}
	if got := s.SpansAbove(100); len(got) != 0 {
		t.Fatalf("none-above spans = %v", got)
	}
}

// TestSpansAboveProperty: spans exactly cover the above-threshold samples,
// are disjoint, ordered, and separated by at-or-below samples.
func TestSpansAboveProperty(t *testing.T) {
	f := func(vals []float64, thresh float64) bool {
		if math.IsNaN(thresh) {
			return true
		}
		s := NewSeries(0, 1, len(vals))
		copy(s.Values, vals)
		spans := s.SpansAbove(thresh)
		covered := make([]bool, len(vals))
		prevEnd := -2
		for _, sp := range spans {
			if sp.Start > sp.End || sp.Start <= prevEnd {
				return false
			}
			prevEnd = sp.End
			for i := sp.Start; i <= sp.End; i++ {
				covered[i] = true
			}
		}
		for i, v := range vals {
			above := v > thresh
			if above != covered[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDFDropsNaNInputs(t *testing.T) {
	c := NewCDF([]float64{3, math.NaN(), 1, math.NaN(), 2})
	if c.N() != 3 {
		t.Fatalf("N = %d, want 3 (NaNs dropped)", c.N())
	}
	if got := c.Quantile(0.5); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := c.At(2); got != 2.0/3 {
		t.Errorf("At(2) = %v, want 2/3", got)
	}
}

func TestCDFAtNaNIsNaN(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3})
	if got := c.At(math.NaN()); !math.IsNaN(got) {
		t.Fatalf("At(NaN) = %v, want NaN", got)
	}
}

func TestCDFQuantilePanicsOnNaN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile(NaN) did not panic")
		}
	}()
	NewCDF([]float64{1, 2, 3}).Quantile(math.NaN())
}
