package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Snapshot is a stable, serializable view of a registry: metrics sorted by
// canonical identity, labels exploded into maps for consumers. The JSON
// encoding is deterministic (slices are pre-sorted and Go marshals map
// keys in sorted order), so byte-level comparison of two snapshots is
// meaningful.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Gauges     []GaugeValue     `json:"gauges"`
	Histograms []HistogramValue `json:"histograms"`
}

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value"`
}

// GaugeValue is one gauge in a snapshot.
type GaugeValue struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Mode   string            `json:"mode"`
	Value  float64           `json:"value"`
}

// HistogramValue is one histogram in a snapshot. Counts has one entry per
// bound plus a final overflow bucket.
type HistogramValue struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Bounds []float64         `json:"bounds"`
	Counts []int64           `json:"counts"`
	Count  int64             `json:"count"`
	Sum    float64           `json:"sum"`
}

// Snapshot captures the registry's current state. On a nil registry it
// returns an empty (but valid, serializable) snapshot.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   []CounterValue{},
		Gauges:     []GaugeValue{},
		Histograms: []HistogramValue{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.sortedMetrics() {
		labels := parseLabels(m.labels)
		switch m.kind {
		case kindCounter:
			s.Counters = append(s.Counters, CounterValue{Name: m.name, Labels: labels, Value: m.counter.n})
		case kindGauge:
			v := m.gauge.v
			if m.gauge.mode == MergeSum {
				v = floatSum(m.parts)
			}
			s.Gauges = append(s.Gauges, GaugeValue{Name: m.name, Labels: labels, Mode: m.gauge.mode.String(), Value: v})
		case kindHistogram:
			s.Histograms = append(s.Histograms, HistogramValue{
				Name:   m.name,
				Labels: labels,
				Bounds: append([]float64(nil), m.hist.bounds...),
				Counts: append([]int64(nil), m.hist.counts...),
				Count:  m.hist.count,
				Sum:    floatSum(m.parts),
			})
		}
	}
	return s
}

// parseLabels splits "k=v,k2=v2" back into a map (nil when empty).
func parseLabels(s string) map[string]string {
	if s == "" {
		return nil
	}
	out := make(map[string]string)
	for _, pair := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(pair, "=")
		if !ok {
			panic(fmt.Sprintf("obs: malformed label pair %q", pair))
		}
		out[k] = v
	}
	return out
}

// WallPrefixes are the metric-name prefixes that live in the wall-clock
// domain: values that legitimately differ between two runs of the same
// seed (elapsed time, memory). Deterministic() strips them.
var WallPrefixes = []string{"wall_", "mem_"}

// isWallDomain reports whether a metric name is wall-clock-domain.
func isWallDomain(name string) bool {
	for _, p := range WallPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// Deterministic returns a copy of the snapshot with wall-clock-domain
// metrics removed. Two instrumented runs of the same seed — serial or
// parallel — must produce byte-identical Deterministic snapshots; that is
// the property the CI obs gate enforces.
func (s *Snapshot) Deterministic() *Snapshot {
	out := &Snapshot{
		Counters:   []CounterValue{},
		Gauges:     []GaugeValue{},
		Histograms: []HistogramValue{},
	}
	for _, c := range s.Counters {
		if !isWallDomain(c.Name) {
			out.Counters = append(out.Counters, c)
		}
	}
	for _, g := range s.Gauges {
		if !isWallDomain(g.Name) {
			out.Gauges = append(out.Gauges, g)
		}
	}
	for _, h := range s.Histograms {
		if !isWallDomain(h.Name) {
			out.Histograms = append(out.Histograms, h)
		}
	}
	return out
}

// WriteJSON writes the snapshot as indented JSON with a trailing newline.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// WriteFile dumps the snapshot to path ("-" means stdout), creating or
// truncating the file and propagating close errors (a full disk must not
// produce a silently truncated snapshot).
func (s *Snapshot) WriteFile(path string) error {
	if path == "-" {
		return s.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ParseSnapshot decodes a snapshot produced by WriteJSON, validating its
// shape: modes must parse, histogram counts must match bounds, and
// entries must be in canonical order.
func ParseSnapshot(b []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("obs: snapshot does not parse: %w", err)
	}
	for _, g := range s.Gauges {
		if _, err := parseMergeMode(g.Mode); err != nil {
			return nil, fmt.Errorf("obs: gauge %s: %w", g.Name, err)
		}
	}
	for _, h := range s.Histograms {
		if len(h.Counts) != len(h.Bounds)+1 {
			return nil, fmt.Errorf("obs: histogram %s has %d counts for %d bounds (want bounds+1)",
				h.Name, len(h.Counts), len(h.Bounds))
		}
		var total int64
		for _, c := range h.Counts {
			if c < 0 {
				return nil, fmt.Errorf("obs: histogram %s has negative bucket count", h.Name)
			}
			total += c
		}
		if total != h.Count {
			return nil, fmt.Errorf("obs: histogram %s bucket counts sum to %d, count says %d",
				h.Name, total, h.Count)
		}
	}
	if !sort.SliceIsSorted(s.Counters, func(i, j int) bool {
		return counterLess(s.Counters[i], s.Counters[j])
	}) {
		return nil, fmt.Errorf("obs: snapshot counters not in canonical order")
	}
	return &s, nil
}

func counterLess(a, b CounterValue) bool {
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	return labelKey(a.Labels) < labelKey(b.Labels)
}

// labelKey renders a label map deterministically for ordering checks.
func labelKey(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(m[k])
		b.WriteByte(',')
	}
	return b.String()
}

// Summary renders the snapshot as a human-readable table: counters first,
// then gauges, then histograms with count/mean and an approximate p50/p99
// read off the bucket CDF.
func (s *Snapshot) Summary() string {
	var b strings.Builder
	b.WriteString("metrics snapshot\n")
	b.WriteString("================\n")
	if len(s.Counters) == 0 && len(s.Gauges) == 0 && len(s.Histograms) == 0 {
		b.WriteString("(empty)\n")
		return b.String()
	}
	if len(s.Counters) > 0 {
		b.WriteString("counters:\n")
		for _, c := range s.Counters {
			fmt.Fprintf(&b, "  %-58s %14d\n", displayName(c.Name, c.Labels), c.Value)
		}
	}
	if len(s.Gauges) > 0 {
		b.WriteString("gauges:\n")
		for _, g := range s.Gauges {
			fmt.Fprintf(&b, "  %-58s %14.6g  (%s)\n", displayName(g.Name, g.Labels), g.Value, g.Mode)
		}
	}
	if len(s.Histograms) > 0 {
		b.WriteString("histograms:\n")
		for _, h := range s.Histograms {
			mean := 0.0
			if h.Count > 0 {
				mean = h.Sum / float64(h.Count)
			}
			fmt.Fprintf(&b, "  %-58s n=%-8d mean=%-12.6g p50≈%-12.6g p99≈%.6g\n",
				displayName(h.Name, h.Labels), h.Count, mean,
				h.quantile(0.50), h.quantile(0.99))
		}
	}
	return b.String()
}

// displayName renders "name{k=v,...}" with sorted label keys.
func displayName(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + labels[k]
	}
	return name + "{" + strings.Join(parts, ",") + "}"
}

// quantile returns the upper bound of the bucket containing the q-th
// observation — a coarse but honest read of a fixed-bucket histogram. The
// overflow bucket reports as +Inf would be unhelpful, so it reports the
// last finite bound (a lower bound on the true quantile).
func (h *HistogramValue) quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	target := int64(q * float64(h.Count))
	if target >= h.Count {
		target = h.Count - 1
	}
	var seen int64
	for i, c := range h.Counts {
		seen += c
		if seen > target {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			return h.Bounds[len(h.Bounds)-1]
		}
	}
	return h.Bounds[len(h.Bounds)-1]
}
