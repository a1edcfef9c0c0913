package obs

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety pins the disabled-registry contract: a nil registry hands
// out nil collectors whose handles are all no-ops — the one-branch hot
// path the simulator relies on.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Collector("experiment", "none")
	if c != nil {
		t.Fatal("nil registry produced a non-nil collector")
	}
	c.Counter("x").Inc()
	c.Counter("x").Add(5)
	c.Gauge("g", MergeMax).Set(3)
	c.Histogram("h", []float64{1, 2}).Observe(1.5)
	c.Close()
	r.AddCounter("y", 2)
	r.SetGauge("z", MergeSum, 1)
	if n := r.CountMetrics(); n != 0 {
		t.Fatalf("nil registry reports %d metrics", n)
	}
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Fatalf("nil registry snapshot has counters: %+v", s.Counters)
	}

	// Nil handles directly.
	var cnt *Counter
	cnt.Add(1)
	if cnt.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var g *Gauge
	g.Set(1)
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram recorded")
	}
}

// TestMergeModes checks each gauge fold.
func TestMergeModes(t *testing.T) {
	r := NewRegistry()
	for _, v := range []float64{3, 1, 2} {
		c := r.Collector()
		c.Gauge("sum", MergeSum).Set(v)
		c.Gauge("max", MergeMax).Set(v)
		c.Gauge("min", MergeMin).Set(v)
		c.Close()
	}
	s := r.Snapshot()
	got := map[string]float64{}
	for _, g := range s.Gauges {
		got[g.Name] = g.Value
	}
	if got["sum"] != 6 || got["max"] != 3 || got["min"] != 1 {
		t.Fatalf("gauge folds wrong: %v", got)
	}
}

// TestHistogramBuckets checks bucket assignment including boundaries and
// overflow.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	c := r.Collector()
	h := c.Histogram("h", []float64{10, 20, 30})
	for _, v := range []float64{5, 10, 10.5, 20, 25, 31, 1e9} {
		h.Observe(v)
	}
	c.Close()
	s := r.Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("histograms = %d", len(s.Histograms))
	}
	hv := s.Histograms[0]
	// 5,10 -> (<=10); 10.5,20 -> (<=20); 25 -> (<=30); 31,1e9 -> overflow.
	want := []int64{2, 2, 1, 2}
	for i, w := range want {
		if hv.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, hv.Counts[i], w, hv.Counts)
		}
	}
	if hv.Count != 7 {
		t.Fatalf("count = %d", hv.Count)
	}
}

// TestParallelMergeDeterminism is the serial==parallel contract: merging
// the same per-run collectors in any order and from any number of
// goroutines yields byte-identical snapshots.
func TestParallelMergeDeterminism(t *testing.T) {
	build := func(workers int) []byte {
		r := NewRegistry()
		var wg sync.WaitGroup
		runs := 24
		sem := make(chan struct{}, workers)
		for i := 0; i < runs; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				// Deterministic per-run content, random scheduling.
				time.Sleep(time.Duration(rand.Intn(3)) * time.Millisecond)
				c := r.Collector("experiment", "det", "run", fmt.Sprint(i%4))
				c.Counter("events").Add(int64(100 + i))
				c.Gauge("peak", MergeMax).Set(float64(i * 7 % 13))
				c.Histogram("lat", []float64{1, 10, 100}).Observe(float64(i))
				c.Close()
			}(i)
		}
		wg.Wait()
		var b bytes.Buffer
		if err := r.Snapshot().WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	serial := build(1)
	for _, w := range []int{2, 8} {
		if got := build(w); !bytes.Equal(serial, got) {
			t.Fatalf("snapshot differs between 1 and %d workers:\n%s\nvs\n%s", w, serial, got)
		}
	}
}

// TestMergeOrderFloatSums merges the same three collectors in every order:
// float addition is not associative (1e16 + 1 + 1 depends on grouping), so
// a histogram's sum and a sum-gauge must not fold in merge order, or a
// parallel run's snapshot would depend on which run finished first.
func TestMergeOrderFloatSums(t *testing.T) {
	values := []float64{1e16, 1, 1}
	var first []byte
	for _, order := range [][]int{{0, 1, 2}, {1, 2, 0}, {1, 0, 2}} {
		r := NewRegistry()
		for _, i := range order {
			c := r.Collector("experiment", "det")
			c.Gauge("load", MergeSum).Set(values[i])
			c.Histogram("lat", []float64{1, 10}).Observe(values[i])
			c.Close()
		}
		var b bytes.Buffer
		if err := r.Snapshot().WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = b.Bytes()
		} else if !bytes.Equal(first, b.Bytes()) {
			t.Fatalf("merge order %v changed the snapshot:\n%s\nvs\n%s", order, first, b.Bytes())
		}
	}
}

// TestSnapshotRoundTrip pins the stable-JSON promise: write, parse,
// re-write must be byte-identical, and the parsed snapshot validates.
func TestSnapshotRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Collector("experiment", "fig5", "flows", "80")
	c.Counter("sim_events_executed").Add(12345)
	c.Counter("net_queue_drops").Add(0)
	c.Gauge("net_queue_peak_pkts", MergeMax).Set(81)
	c.Histogram("cc_final_cwnd_bytes", ExpBuckets(1460, 2, 8)).Observe(1460)
	c.Close()
	r.SetGauge("wall_run_seconds", MergeSum, 1.25)

	var b1 bytes.Buffer
	if err := r.Snapshot().WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	s, err := ParseSnapshot(b1.Bytes())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var b2 bytes.Buffer
	if err := s.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("round trip not stable:\n%s\nvs\n%s", b1.String(), b2.String())
	}

	// Deterministic() strips the wall-clock domain.
	det := s.Deterministic()
	for _, g := range det.Gauges {
		if strings.HasPrefix(g.Name, "wall_") {
			t.Fatalf("wall metric %s survived Deterministic()", g.Name)
		}
	}
	if len(det.Gauges) != 1 {
		t.Fatalf("deterministic gauges = %d, want 1", len(det.Gauges))
	}
}

// TestParseSnapshotRejectsCorruption checks the validator actually
// validates.
func TestParseSnapshotRejectsCorruption(t *testing.T) {
	cases := map[string]string{
		"not json":        "{",
		"bad mode":        `{"counters":[],"gauges":[{"name":"g","mode":"median","value":1}],"histograms":[]}`,
		"count mismatch":  `{"counters":[],"gauges":[],"histograms":[{"name":"h","bounds":[1],"counts":[1,2],"count":5,"sum":0}]}`,
		"negative bucket": `{"counters":[],"gauges":[],"histograms":[{"name":"h","bounds":[1],"counts":[-1,1],"count":0,"sum":0}]}`,
		"shape mismatch":  `{"counters":[],"gauges":[],"histograms":[{"name":"h","bounds":[1,2],"counts":[1],"count":1,"sum":0}]}`,
		"unsorted": `{"counters":[{"name":"b","value":1},{"name":"a","value":1}],` +
			`"gauges":[],"histograms":[]}`,
	}
	for name, blob := range cases {
		if _, err := ParseSnapshot([]byte(blob)); err == nil {
			t.Errorf("%s: ParseSnapshot accepted corrupt input", name)
		}
	}
}

// TestSummaryRendersEveryKind sanity-checks the human table.
func TestSummaryRendersEveryKind(t *testing.T) {
	r := NewRegistry()
	c := r.Collector("experiment", "fig5")
	c.Counter("sim_events_executed").Add(10)
	c.Gauge("net_queue_peak_pkts", MergeMax).Set(81)
	h := c.Histogram("lat_ms", []float64{1, 2, 4, 8})
	for i := 0; i < 100; i++ {
		h.Observe(float64(i % 9))
	}
	c.Close()
	out := r.Snapshot().Summary()
	for _, want := range []string{"sim_events_executed", "net_queue_peak_pkts", "lat_ms", "experiment=fig5", "n=100"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
	empty := NewRegistry().Snapshot().Summary()
	if !strings.Contains(empty, "(empty)") {
		t.Fatalf("empty summary: %q", empty)
	}
}

// TestLabelValidation pins the identity-character constraints.
func TestLabelValidation(t *testing.T) {
	r := NewRegistry()
	for _, bad := range [][]string{
		{"only-key"},
		{"k", "a=b"},
		{"k", "a,b"},
		{"", "v"},
		{"k", ""},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("labels %q accepted", bad)
				}
			}()
			r.Collector(bad...)
		}()
	}
}

// TestKindAndBucketConflicts pins the fail-fast behavior on misuse.
func TestKindAndBucketConflicts(t *testing.T) {
	r := NewRegistry()
	c := r.Collector()
	c.Counter("m")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("kind conflict accepted")
			}
		}()
		c.Gauge("m", MergeMax)
	}()
	c.Histogram("h", []float64{1, 2})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bucket conflict accepted")
			}
		}()
		c.Histogram("h", []float64{1, 2, 3})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("descending bounds accepted")
			}
		}()
		c.Histogram("h2", []float64{3, 1})
	}()
}

// TestProfilerServes starts the pprof endpoint on an ephemeral port and
// fetches the index, plus checks MemStats sampling lands in the registry.
func TestProfilerServes(t *testing.T) {
	r := NewRegistry()
	p, err := StartProfiler("127.0.0.1:0", r, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	resp, err := http.Get("http://" + p.Addr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "profile") {
		t.Fatalf("pprof index: status %d, body %.80q", resp.StatusCode, body)
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		if hasGauge(r, "mem_heap_alloc_bytes") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("MemStats sampler never recorded")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func hasGauge(r *Registry, name string) bool {
	for _, g := range r.Snapshot().Gauges {
		if g.Name == name {
			return true
		}
	}
	return false
}

// TestBucketHelpers covers the bounds constructors.
func TestBucketHelpers(t *testing.T) {
	e := ExpBuckets(1, 2, 4)
	if fmt.Sprint(e) != "[1 2 4 8]" {
		t.Fatalf("ExpBuckets = %v", e)
	}
	l := LinearBuckets(0, 5, 3)
	if fmt.Sprint(l) != "[0 5 10]" {
		t.Fatalf("LinearBuckets = %v", l)
	}
}
