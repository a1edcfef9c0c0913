package stats

import "fmt"

// Series is a fixed-interval time series: sample i covers the half-open
// interval [Start + i*Interval, Start + (i+1)*Interval) in nanoseconds.
// Millisampler traces and simulated queue-depth traces are both Series.
type Series struct {
	// StartNS is the virtual time of the first sample's interval start.
	StartNS int64
	// IntervalNS is the width of each sample interval (1 ms for
	// Millisampler traces, finer for queue traces).
	IntervalNS int64
	// Values holds one sample per interval.
	Values []float64
}

// NewSeries allocates a series of n zero samples.
func NewSeries(startNS, intervalNS int64, n int) *Series {
	if intervalNS <= 0 {
		panic("stats: series interval must be positive")
	}
	return &Series{StartNS: startNS, IntervalNS: intervalNS, Values: make([]float64, n)}
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// TimeAt returns the interval start time of sample i in nanoseconds.
func (s *Series) TimeAt(i int) int64 { return s.StartNS + int64(i)*s.IntervalNS }

// Index returns the sample index covering time tNS, or -1 if out of range.
func (s *Series) Index(tNS int64) int {
	if tNS < s.StartNS {
		return -1
	}
	i := int((tNS - s.StartNS) / s.IntervalNS)
	if i >= len(s.Values) {
		return -1
	}
	return i
}

// Scale multiplies every sample by f, in place, and returns the series.
func (s *Series) Scale(f float64) *Series {
	for i := range s.Values {
		s.Values[i] *= f
	}
	return s
}

// Mean returns the mean of all samples.
func (s *Series) Mean() float64 { return Mean(s.Values) }

// Max returns the largest sample, or 0 for an empty series.
func (s *Series) Max() float64 {
	var m float64
	for i, v := range s.Values {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

// Sum returns the sum of all samples.
func (s *Series) Sum() float64 {
	var t float64
	for _, v := range s.Values {
		t += v
	}
	return t
}

// Span is a contiguous run of sample indexes [Start, End] (inclusive).
type Span struct {
	Start, End int
}

// Len returns the number of samples in the span.
func (sp Span) Len() int { return sp.End - sp.Start + 1 }

// SpansAbove returns the maximal contiguous runs of samples where the value
// is strictly greater than threshold. This is the burst-extraction primitive:
// the paper defines a burst as a contiguous span of 1 ms intervals whose
// ingress rate exceeds 50% of line rate.
func (s *Series) SpansAbove(threshold float64) []Span {
	var spans []Span
	in := false
	var start int
	for i, v := range s.Values {
		if v > threshold {
			if !in {
				in = true
				start = i
			}
		} else if in {
			in = false
			spans = append(spans, Span{Start: start, End: i - 1})
		}
	}
	if in {
		spans = append(spans, Span{Start: start, End: len(s.Values) - 1})
	}
	return spans
}

// Slice returns the sample values covered by sp.
func (s *Series) Slice(sp Span) []float64 {
	if sp.Start < 0 || sp.End >= len(s.Values) || sp.Start > sp.End {
		panic(fmt.Sprintf("stats: span %+v out of range for series of %d", sp, len(s.Values)))
	}
	return s.Values[sp.Start : sp.End+1]
}
