package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer's public functions, recorded by the
// traced pass around the call.
type span struct {
	Workload string `json:"workload"`
	ID       int    `json:"id"`
	// Parent is the ID of the span open when this one began, 0 for a root.
	Parent int              `json:"parent"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps the spans of one traced pass in memory; they are written
// out once, when the benchmark ends. It is used from one goroutine.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int // IDs of the spans not yet ended, innermost last
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span under the innermost open one and returns its ID.
func (t *tracer) begin(name string) int {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Workload: t.workload, ID: id, Parent: parent, Name: name,
		Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span, records its
// counts, and returns its duration.
func (t *tracer) end(id int, counts map[string]int64) time.Duration {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	s.Counts = counts
	t.open = t.open[:len(t.open)-1]
	return s.dur()
}

// wall is the time since the tracer started.
func (t *tracer) wall() time.Duration { return time.Since(t.t0) }

// selfTimes sums, per span name, each span's duration minus the part of it
// that its direct children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(children[s.ID])
	}
	return out
}

// unattributed is the part of wall that no root span covers.
func unattributed(spans []span, wall time.Duration) time.Duration {
	var roots []span
	for _, s := range spans {
		if s.Parent == 0 {
			roots = append(roots, s)
		}
	}
	return wall - covered(roots)
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) time.Duration {
	iv := append([]span(nil), spans...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var total, end int64
	for _, s := range iv {
		start := s.Start
		if start < end {
			start = end
		}
		if s.End > start {
			total += s.End - start
			end = s.End
		}
	}
	return time.Duration(total)
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
