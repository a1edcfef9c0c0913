package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/fstest"
	"time"

	"incastlab/internal/core"
	"incastlab/internal/scenario"
	"incastlab/internal/sweep"
)

// fakeChildEnv makes the test binary act as incastsim -scenario when it is
// started as a pass's child: "run" runs the spec like incastsim does;
// "crash:K" stores K rows in the -cache directory and exits non-zero.
const fakeChildEnv = "INCASTBENCH_FAKE_CHILD"

func TestMain(m *testing.M) {
	if mode := os.Getenv(fakeChildEnv); mode != "" {
		if err := fakeChild(mode, os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "fake child:", err)
			os.Exit(3)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func fakeChild(mode string, args []string) error {
	fs := flag.NewFlagSet("incastsim", flag.ContinueOnError)
	path := fs.String("scenario", "", "")
	seed := fs.Uint64("seed", 1, "")
	workers := fs.Int("workers", 0, "")
	out := fs.String("out", "", "")
	cacheDir := fs.String("cache", "", "")
	quick := fs.Bool("quick", false, "")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if k, ok := strings.CutPrefix(mode, "crash:"); ok {
		n, _ := strconv.Atoi(k)
		if *cacheDir != "" {
			c, err := sweep.Open(*cacheDir)
			if err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				if err := c.Put(sweep.Key(strconv.Itoa(i)), []string{"1"}); err != nil {
					return err
				}
			}
		}
		return fmt.Errorf("crashing after %d cached rows", n)
	}
	spec, err := scenario.Load(*path)
	if err != nil {
		return err
	}
	opt := core.Options{Seed: *seed, Quick: *quick, Workers: *workers}
	var res *core.TableResult
	if *cacheDir == "" {
		res, err = core.RunScenario(opt, spec)
	} else {
		var c *sweep.Cache
		if c, err = sweep.Open(*cacheDir); err == nil {
			res, _, err = core.RunScenarioCached(opt, spec, c, core.Shard{})
		}
	}
	if err != nil {
		return err
	}
	return res.WriteFiles(*out)
}

// twoRows is a small flow-fidelity dumbbell sweep: two minimum-RTO floors
// at 40 flows.
const twoRows = `{
  "name": "two_rows",
  "workload": {"burst_ms": 2, "interval_ms": 50, "bursts": 2},
  "sweep": {"axis": "min_rto_ms", "values": [5, 10], "flows": [40]},
  "fidelity": "flow"
}`

// testRunner builds a runner for a two_rows workload whose child is this
// test binary, in the mode given by fakeChildEnv.
func testRunner(t *testing.T, cached bool) *runner {
	t.Helper()
	bin := t.TempDir()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(exe, filepath.Join(bin, "incastsim")); err != nil {
		t.Fatal(err)
	}
	e := env{
		inputs: fstest.MapFS{"workloads/two_rows.json": {Data: []byte(twoRows)}},
		bin:    bin,
		root:   "../../..",
		work:   t.TempDir(),
	}
	s, err := newRunner(workload{name: "two_rows", spec: "two_rows.json", cached: cached}, e, 7, baseline{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// A two-row spec runs end to end: set-up samples, child passes with their
// rusage and digests, the traced pass, and the results and spans files.
func TestEndToEndTwoRows(t *testing.T) {
	t.Setenv(fakeChildEnv, "run")
	s := testRunner(t, true)
	ctx := context.Background()
	if err := s.warmUp(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.timeFor(ctx, 0); err != nil {
		t.Fatal(err)
	}
	spans, err := s.traceRun(ctx)
	if err != nil {
		t.Fatal(err)
	}
	r := s.res
	r.endToEnd()

	if !r.correct() || r.Failed != 0 {
		t.Fatalf("want a correct run, got failed=%d errors=%v", r.Failed, r.Errors)
	}
	// Warm-up, minPasses timed passes, and the traced pass, two rows each.
	if want := 2 * (1 + minPasses + 1); r.Attempted != want {
		t.Errorf("attempted %d rows, want %d", r.Attempted, want)
	}
	for _, p := range r.Passes {
		if p.Digest != r.Digest {
			t.Errorf("%s pass digest %.12s, first pass %.12s", p.Kind, p.Digest, r.Digest)
		}
		if p.Kind != tracedPass && (p.PeakRSSMB <= 0 || p.CPUS <= 0) {
			t.Errorf("%s pass has no rusage: %+v", p.Kind, p)
		}
	}
	for _, m := range endToEndMetrics {
		if v := r.EndToEnd[m.name]; v.Value <= 0 || v.N < 1 {
			t.Errorf("%s = %+v, want a positive median", m.name, v)
		}
	}
	for _, name := range []string{"core.compile_ms", "core.run_s", "core.row_p50_ms", "flowsim.steps",
		"flowsim.records", "sweep.put_us", "trace.csv_write_ms", "process.cpu_s"} {
		if r.PerLayer[name].Value <= 0 {
			t.Errorf("per-layer %s = %v, want > 0", name, r.PerLayer[name].Value)
		}
	}

	dir := t.TempDir()
	if err := save(dir, report{Seed: 7, Workloads: map[string]*result{"two_rows": r}}, spans); err != nil {
		t.Fatal(err)
	}
	back, err := readReport(filepath.Join(dir, "results.json"))
	if err != nil || back.Workloads["two_rows"].Digest != r.Digest {
		t.Fatalf("results.json did not round-trip: %v", err)
	}
	f, err := os.Open(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var sp span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatal(err)
		}
		names[sp.Name] = true
	}
	for _, n := range []string{"scenario.load", "core.compile", "core.run", "core.row", "obs.snapshot", "sweep.put"} {
		if !names[n] {
			t.Errorf("spans.jsonl has no %s span", n)
		}
	}
}

// A child that exits non-zero loses its rows; a cached run keeps the rows
// that reached the cache.
func TestFailedChildLosesRows(t *testing.T) {
	t.Setenv(fakeChildEnv, "crash:1")
	for _, c := range []struct {
		cached bool
		failed int
	}{{false, 2}, {true, 1}} {
		s := testRunner(t, c.cached)
		p, err := s.runPass(context.Background(), pass{Kind: timedPass})
		if err != nil {
			t.Fatal(err)
		}
		if p.Failed != c.failed || p.Error == "" {
			t.Errorf("cached=%v: failed %d rows (error %q), want %d", c.cached, p.Failed, p.Error, c.failed)
		}
		if s.res.correct() {
			t.Errorf("cached=%v: a crashed pass reads as correct", c.cached)
		}
	}
}

func TestCheckOutputs(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"ok.csv":    "flows,bct_ms\n10,1.5\n20,2.5\n",
		"nan.csv":   "flows,bct_ms\n10,NaN\n20,2.5\n30,+Inf\n",
		"short.csv": "flows,bct_ms\n10,1.5\n",
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		want   map[string]int
		failed int
	}{
		{map[string]int{"ok.csv": 2}, 0},
		{map[string]int{"nan.csv": 3}, 2},
		{map[string]int{"short.csv": 3}, 2},
		{map[string]int{"missing.csv": 4}, 4},
	} {
		if _, failed, err := checkOutputs(dir, c.want); err != nil || failed != c.failed {
			t.Errorf("%v: failed %d (err %v), want %d", c.want, failed, err, c.failed)
		}
	}
}

func TestSelfTimeNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "leaf", Start: 15, End: 25},
		{ID: 4, Parent: 1, Name: "b", Start: 50, End: 90},
		{ID: 5, Parent: 4, Name: "leaf", Start: 60, End: 70},
		{ID: 6, Parent: 4, Name: "leaf", Start: 65, End: 75}, // overlaps its sibling
	}
	want := map[string]time.Duration{"root": 30, "a": 20, "b": 25, "leaf": 30}
	got := selfTimes(spans)
	for name, d := range want {
		if got[name] != d {
			t.Errorf("self time of %s = %v, want %v", name, got[name], d)
		}
	}
	if u := unattributed(spans, 120); u != 20 {
		t.Errorf("unattributed = %v, want 20", u)
	}

	tr := newTracer("w")
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner, nil)
	tr.end(outer, nil)
	if tr.spans[1].Parent != outer || tr.spans[0].Parent != 0 {
		t.Errorf("tracer parents: %+v", tr.spans)
	}
}
