// Package obs is incastlab's observability layer: a zero-dependency,
// allocation-conscious metrics registry for the simulator and its
// experiment runners.
//
// The design follows the engine's concurrency model. Simulations are
// single-goroutine; experiment sweeps fan independent runs across a worker
// pool (internal/core/parallel.go). Metrics therefore flow through two
// stages:
//
//   - a Collector is single-goroutine and lock-free: each run creates one,
//     updates plain struct fields through Counter/Gauge/Histogram handles,
//     and merges it into the shared Registry exactly once (Close);
//   - the Registry is shared and mutex-guarded, and only ever sees whole
//     collectors. Every merge is independent of order (counters add,
//     max-gauges fold by max, histograms add bucket-wise, and float sums
//     are added in sorted order when a snapshot is taken), so the merged
//     totals are identical whether runs executed serially or in parallel —
//     the same serial==parallel contract the experiment results obey.
//
// Instrumentation is nil-safe end to end: a nil *Registry produces nil
// Collectors, and every handle method on a nil receiver is a single-branch
// no-op. Code can therefore keep its instrumentation points unconditionally
// and pay one predictable branch when observability is off.
//
// Metric naming: names are snake_case; label keys and values must not
// contain '=', ',', '{', or '}' (they are rendered into a canonical
// "name{k=v,...}" identity). Metrics whose name starts with "wall_" or
// "mem_" live in the wall-clock domain: they are excluded from
// Snapshot.Deterministic, which is what determinism gates compare.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// MergeMode defines how two observations of the same gauge combine, both
// within one collector and across collectors at merge time. Max and min
// are commutative and associative; float addition is not associative, so
// the registry adds sum-gauge contributions in sorted order when a
// snapshot is taken. Either way parallel runs' snapshots are identical to
// serial ones.
type MergeMode uint8

const (
	// MergeSum accumulates values (e.g. per-run wall seconds).
	MergeSum MergeMode = iota
	// MergeMax keeps the largest observation (e.g. peak queue depth).
	MergeMax
	// MergeMin keeps the smallest observation.
	MergeMin
)

// String names the mode for snapshots.
func (m MergeMode) String() string {
	switch m {
	case MergeSum:
		return "sum"
	case MergeMax:
		return "max"
	case MergeMin:
		return "min"
	}
	return fmt.Sprintf("mode(%d)", m)
}

func parseMergeMode(s string) (MergeMode, error) {
	switch s {
	case "sum":
		return MergeSum, nil
	case "max":
		return MergeMax, nil
	case "min":
		return MergeMin, nil
	}
	return 0, fmt.Errorf("obs: unknown gauge merge mode %q", s)
}

// kind discriminates the metric variants inside the registry.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

// metric is one named, labeled series in either a collector (unlocked) or
// the registry (under the registry mutex).
type metric struct {
	id     string // canonical "name{k=v,...}"
	name   string
	labels string // "k=v,k2=v2" in caller order
	kind   kind

	// Counter state.
	counter Counter

	// Gauge state.
	gauge Gauge

	// Histogram state.
	hist Histogram

	// parts, on a registry metric that sums floats (a sum-gauge or a
	// histogram's sum), holds each merged collector's contribution. Float
	// addition is not associative, so folding the contributions in merge
	// order would make the total depend on which run finished first; the
	// snapshot adds them in sorted order instead (see floatSum).
	parts []float64
}

// addPart records src's float sum as one contribution to m's total.
func (m *metric) addPart(src *metric) {
	switch {
	case m.kind == kindHistogram:
		m.parts = append(m.parts, src.hist.sum)
	case m.kind == kindGauge && m.gauge.mode == MergeSum && src.gauge.set:
		m.parts = append(m.parts, src.gauge.v)
	}
}

// floatSum adds parts in ascending order, so the total is a function of
// the set of parts alone, not of the order they were merged in.
func floatSum(parts []float64) float64 {
	if len(parts) == 0 {
		return 0
	}
	s := append([]float64(nil), parts...)
	sort.Float64s(s)
	total := s[0]
	for _, v := range s[1:] {
		total += v
	}
	return total
}

// Counter is a monotonically increasing integer. The zero value is usable;
// a nil handle is a no-op.
type Counter struct {
	n int64
}

// Add increments the counter by n. Nil-safe: one branch when disabled.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.n += n
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n
}

// Gauge is a float64 with an explicit merge mode. The zero value merges as
// MergeSum; a nil handle is a no-op.
type Gauge struct {
	v    float64
	set  bool
	mode MergeMode
}

// Set folds v into the gauge under its merge mode: sum-gauges accumulate,
// max-gauges keep the largest value, min-gauges the smallest. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	if !g.set {
		g.v, g.set = v, true
		return
	}
	switch g.mode {
	case MergeSum:
		g.v += v
	case MergeMax:
		if v > g.v {
			g.v = v
		}
	case MergeMin:
		if v < g.v {
			g.v = v
		}
	}
}

// Value returns the folded value (0 on nil or never-set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// merge folds another gauge's state in, using this gauge's mode.
func (g *Gauge) merge(o Gauge) {
	if o.set {
		g.Set(o.v)
	}
}

// Histogram counts observations into fixed buckets. Bounds are ascending
// upper bounds; an observation lands in the first bucket whose bound is
// >= v, or in the implicit overflow bucket. The zero value is unusable —
// histograms come from Collector.Histogram, which fixes the bounds — but a
// nil handle is a no-op.
type Histogram struct {
	bounds []float64
	counts []int64 // len(bounds)+1; last is overflow
	count  int64
	sum    float64
}

// Observe records v. Nil-safe: one branch when disabled.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.count++
	h.sum += v
	// Linear scan: bucket lists here are short (≤ ~20) and the branch
	// predictor does well on skewed observations; binary search costs more
	// below ~30 buckets.
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// merge adds another histogram's buckets in. Bounds must match: the same
// metric identity must always be created with the same buckets, anything
// else is a programming error worth failing loudly on.
func (h *Histogram) merge(id string, o *Histogram) {
	if len(h.bounds) != len(o.bounds) {
		panic(fmt.Sprintf("obs: histogram %s merged with mismatched bucket count (%d vs %d)",
			id, len(h.bounds), len(o.bounds)))
	}
	for i, b := range h.bounds {
		if b != o.bounds[i] {
			panic(fmt.Sprintf("obs: histogram %s merged with mismatched bound %d (%g vs %g)",
				id, i, b, o.bounds[i]))
		}
	}
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.count += o.count
	h.sum += o.sum
}

// ExpBuckets returns n ascending bounds starting at start and multiplying
// by factor: a decades-style scale for quantities spanning orders of
// magnitude (bytes, nanoseconds).
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n > 0")
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// LinearBuckets returns n ascending bounds start, start+step, ...
func LinearBuckets(start, step float64, n int) []float64 {
	if step <= 0 || n <= 0 {
		panic("obs: LinearBuckets needs step > 0, n > 0")
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = start + float64(i)*step
	}
	return b
}

// Registry is the shared, thread-safe sink that collectors merge into. The
// zero value is not usable; a nil *Registry disables observability (its
// methods return nil collectors whose handles are no-ops).
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// Collector opens a single-goroutine collection scope whose metrics all
// carry the given base labels (alternating key, value). Returns nil — and
// thereby disables all downstream instrumentation — when the registry is
// nil. Close the collector to publish its metrics.
func (r *Registry) Collector(baseLabels ...string) *Collector {
	if r == nil {
		return nil
	}
	return &Collector{
		reg:     r,
		base:    renderPairs(baseLabels),
		metrics: make(map[string]*metric),
	}
}

// merge folds a collector's metrics in under the lock. Insertion order
// does not matter: integer and max/min folds are commutative and
// associative, and float sums keep their parts for an order-free total.
func (r *Registry) merge(c *Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, m := range c.metrics {
		dst, ok := r.metrics[id]
		if !ok {
			// First sighting: move the collector's metric in wholesale. The
			// collector is discarded after Close, so ownership transfer is
			// safe and avoids copying histogram buckets.
			r.metrics[id] = m
			m.addPart(m)
			continue
		}
		if dst.kind != m.kind {
			panic(fmt.Sprintf("obs: metric %s registered as two different kinds", id))
		}
		switch m.kind {
		case kindCounter:
			dst.counter.n += m.counter.n
		case kindGauge:
			dst.gauge.merge(m.gauge)
		case kindHistogram:
			dst.hist.merge(id, &m.hist)
		}
		dst.addPart(m)
	}
}

// CountMetrics returns the number of distinct metric identities recorded
// so far (0 on nil).
func (r *Registry) CountMetrics() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.metrics)
}

// AddCounter is a registry-level convenience for callers outside a
// simulation run (e.g. a cmd recording per-experiment totals). Nil-safe.
func (r *Registry) AddCounter(name string, n int64, labels ...string) {
	if r == nil {
		return
	}
	c := r.Collector()
	c.Counter(name, labels...).Add(n)
	c.Close()
}

// SetGauge is the gauge counterpart of AddCounter. Nil-safe.
func (r *Registry) SetGauge(name string, mode MergeMode, v float64, labels ...string) {
	if r == nil {
		return
	}
	c := r.Collector()
	c.Gauge(name, mode, labels...).Set(v)
	c.Close()
}

// Collector accumulates metrics for one run on one goroutine, without
// locks. Handles returned by Counter/Gauge/Histogram stay valid until
// Close, which publishes everything into the registry. A nil collector
// returns nil handles, so instrumentation costs one branch when disabled.
type Collector struct {
	reg     *Registry
	base    []string // rendered "k=v" pairs
	metrics map[string]*metric
	closed  bool
}

// lookup finds or creates the metric for (name, labels) of kind k. The
// identity's labels are sorted by key, so the same logical metric has one
// canonical id regardless of the order call sites list labels in.
func (c *Collector) lookup(name string, k kind, labels []string) *metric {
	if c.closed {
		panic("obs: collector used after Close")
	}
	pairs := append(append([]string(nil), c.base...), renderPairs(labels)...)
	sort.Strings(pairs)
	ls := strings.Join(pairs, ",")
	id := name
	if ls != "" {
		id = name + "{" + ls + "}"
	}
	m, ok := c.metrics[id]
	if !ok {
		m = &metric{id: id, name: name, labels: ls, kind: k}
		c.metrics[id] = m
	} else if m.kind != k {
		panic(fmt.Sprintf("obs: metric %s requested as two different kinds", id))
	}
	return m
}

// Counter returns the counter handle for name+labels. Nil-safe.
func (c *Collector) Counter(name string, labels ...string) *Counter {
	if c == nil {
		return nil
	}
	return &c.lookup(name, kindCounter, labels).counter
}

// Gauge returns the gauge handle for name+labels with the given merge
// mode. The mode is fixed at first creation; requesting an existing gauge
// with a different mode panics (two modes on one identity cannot merge
// deterministically). Nil-safe.
func (c *Collector) Gauge(name string, mode MergeMode, labels ...string) *Gauge {
	if c == nil {
		return nil
	}
	m := c.lookup(name, kindGauge, labels)
	if m.gauge.set && m.gauge.mode != mode {
		panic(fmt.Sprintf("obs: gauge %s requested with conflicting merge modes", m.id))
	}
	m.gauge.mode = mode
	return &m.gauge
}

// Histogram returns the histogram handle for name+labels over the given
// ascending bucket bounds. Bounds are fixed at first creation and must
// match on every subsequent request for the same identity. Nil-safe.
func (c *Collector) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if c == nil {
		return nil
	}
	if len(bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram %s needs at least one bucket bound", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not ascending", name))
		}
	}
	m := c.lookup(name, kindHistogram, labels)
	if m.hist.bounds == nil {
		m.hist.bounds = append([]float64(nil), bounds...)
		m.hist.counts = make([]int64, len(bounds)+1)
	} else if len(m.hist.bounds) != len(bounds) {
		panic(fmt.Sprintf("obs: histogram %s requested with conflicting bucket bounds", m.id))
	}
	return &m.hist
}

// Close publishes the collector's metrics into the registry. Further use
// of the collector or its handles panics. Nil-safe and idempotent.
func (c *Collector) Close() {
	if c == nil || c.closed {
		return
	}
	c.closed = true
	c.reg.merge(c)
	c.metrics = nil
}

// renderPairs turns alternating key/value tokens into "k=v" pairs,
// validating the character constraints that keep the identity parseable.
func renderPairs(kv []string) []string {
	if len(kv) == 0 {
		return nil
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", kv))
	}
	out := make([]string, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		validateLabelToken(kv[i])
		validateLabelToken(kv[i+1])
		out = append(out, kv[i]+"="+kv[i+1])
	}
	return out
}

func validateLabelToken(s string) {
	if s == "" || strings.ContainsAny(s, "=,{}") {
		panic(fmt.Sprintf("obs: label token %q must be non-empty and free of '=', ',', '{', '}'", s))
	}
}

// sortedMetrics returns the registry's metrics in canonical snapshot
// order: by name, then by label string with a terminating comma — the
// terminator makes "a=2" sort before "a=2,b=1" (prefix first), matching
// how ParseSnapshot validates ordering.
func (r *Registry) sortedMetrics() []*metric {
	out := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels+"," < out[j].labels+","
	})
	return out
}
