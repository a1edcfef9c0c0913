package main

import (
	"math"
	"sort"
)

// summary is a timing reported the way the benchmark reports every
// timing: its median, its quartiles, and how many samples they rest on.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize computes the median and quartiles of xs. The quartiles use the
// "exclusive" method, the default of Python's statistics.quantiles, so the
// spread printed here is the spread an outside check computes from the
// same samples.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s)}
	switch len(s) {
	case 0:
	case 1:
		out.Median, out.Q1, out.Q3 = s[0], s[0], s[0]
	default:
		out.Median = quantile(s, 1, 2)
		out.Q1 = quantile(s, 1, 4)
		out.Q3 = quantile(s, 3, 4)
	}
	return out
}

// quantile returns the i-th of the n-quantiles of the sorted slice s
// (len(s) >= 2), step for step as statistics.quantiles(method="exclusive")
// computes it, including its clamping at the ends.
func quantile(s []float64, i, n int) float64 {
	m := len(s) + 1
	j := i * m / n
	if j < 1 {
		j = 1
	} else if j > len(s)-1 {
		j = len(s) - 1
	}
	delta := i*m - j*n
	return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
}

// spread is the quartile distance as a share of the median (0 when the
// median is 0).
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// percentile returns the p-th percentile of xs by nearest rank. A tail
// percentile (p > 50) is reported only when at least ten samples lie
// beyond it; otherwise, like an empty xs, it reads 0.
func percentile(xs []float64, p float64) float64 {
	n := float64(len(xs))
	if n == 0 || p > 50 && n*(100-p)/100 < 10 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*n)) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}
