package stats

import (
	"fmt"
	"math"
	"sort"
)

// CDF is an empirical cumulative distribution function over a finite sample.
// The paper's Figures 2 and 4 are collections of per-service CDFs where each
// sample is one burst.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from values. The input is copied; NaN values are
// dropped (they have no order, and sorting them would corrupt the binary
// searches At and Quantile rely on).
func NewCDF(values []float64) *CDF {
	s := make([]float64, 0, len(values))
	for _, v := range values {
		if !math.IsNaN(v) {
			s = append(s, v)
		}
	}
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// N returns the sample count.
func (c *CDF) N() int { return len(c.sorted) }

// At returns P(X <= x), the fraction of samples at or below x. At(NaN) is
// NaN: no sample is ordered against NaN.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 || math.IsNaN(x) {
		return math.NaN()
	}
	// First index with sorted[i] > x.
	i := sort.SearchFloat64s(c.sorted, x)
	for i < len(c.sorted) && c.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-quantile of the sample (inverse CDF). q must be a
// number in [0, 1]; NaN panics like any other out-of-range argument (the
// comparisons below would otherwise silently wave it through, since every
// comparison against NaN is false).
func (c *CDF) Quantile(q float64) float64 {
	if math.IsNaN(q) || q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v outside [0,1]", q))
	}
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return quantileSorted(c.sorted, q)
}

// Min returns the smallest sample, or NaN if empty.
func (c *CDF) Min() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return c.sorted[0]
}

// Max returns the largest sample, or NaN if empty.
func (c *CDF) Max() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return c.sorted[len(c.sorted)-1]
}
