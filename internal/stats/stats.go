// Package stats provides the small statistical toolkit the incast analyses
// are built on: percentile estimation, empirical CDFs, online means, and
// fixed-interval time series.
//
// Everything here is deterministic and allocation-conscious; the measurement
// pipeline calls into this package once per burst and once per millisecond
// sample.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the descriptive statistics the paper reports for burst
// populations: mean and selected percentiles.
type Summary struct {
	Count int
	Mean  float64
	Min   float64
	P25   float64
	P50   float64
	P75   float64
	P90   float64
	P95   float64
	P99   float64
	Max   float64
}

// Summarize computes a Summary of values. It copies and sorts the input;
// the caller's slice is not modified. An empty input yields a zero Summary.
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	s := make([]float64, len(values))
	copy(s, values)
	sort.Float64s(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	return Summary{
		Count: len(s),
		Mean:  sum / float64(len(s)),
		Min:   s[0],
		P25:   quantileSorted(s, 0.25),
		P50:   quantileSorted(s, 0.50),
		P75:   quantileSorted(s, 0.75),
		P90:   quantileSorted(s, 0.90),
		P95:   quantileSorted(s, 0.95),
		P99:   quantileSorted(s, 0.99),
		Max:   s[len(s)-1],
	}
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3g p50=%.3g p90=%.3g p99=%.3g max=%.3g",
		s.Count, s.Mean, s.P50, s.P90, s.P99, s.Max)
}

// Quantile returns the q-quantile (0 <= q <= 1) of values using linear
// interpolation between closest ranks. It copies and sorts the input.
// It returns NaN for an empty input and panics if q is outside [0, 1].
func Quantile(values []float64, q float64) float64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v outside [0,1]", q))
	}
	if len(values) == 0 {
		return math.NaN()
	}
	s := make([]float64, len(values))
	copy(s, values)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

// quantileSorted interpolates the q-quantile of an ascending slice.
func quantileSorted(s []float64, q float64) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Mean returns the arithmetic mean of values, or NaN for an empty input.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// Online accumulates the mean, minimum and maximum in one pass. The zero
// value is an empty accumulator.
type Online struct {
	n    int
	mean float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	o.mean += (x - o.mean) / float64(o.n)
}

// N returns the number of observations.
func (o *Online) N() int { return o.n }

// Mean returns the running mean, or NaN if empty.
func (o *Online) Mean() float64 {
	if o.n == 0 {
		return math.NaN()
	}
	return o.mean
}

// Min returns the smallest observation, or NaN if empty.
func (o *Online) Min() float64 {
	if o.n == 0 {
		return math.NaN()
	}
	return o.min
}

// Max returns the largest observation, or NaN if empty.
func (o *Online) Max() float64 {
	if o.n == 0 {
		return math.NaN()
	}
	return o.max
}
