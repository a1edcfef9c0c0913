package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestParallelRunnerIndexing(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		got := runParallel(Options{Workers: workers}, 33, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
	if out := runParallel(Options{Workers: 4}, 0, func(i int) int { return i }); len(out) != 0 {
		t.Fatalf("n=0 returned %d results", len(out))
	}
}

func TestParallelRunnerCallsEachOnce(t *testing.T) {
	const n = 100
	var calls [n]atomic.Int32
	runParallel(Options{Workers: 8}, n, func(i int) struct{} {
		calls[i].Add(1)
		return struct{}{}
	})
	for i := range calls {
		if c := calls[i].Load(); c != 1 {
			t.Fatalf("fn(%d) called %d times", i, c)
		}
	}
}

func TestParallelSerialUsesNoGoroutines(t *testing.T) {
	// workers=1 is documented as the plain serial loop (debugger-friendly):
	// every call must run on the calling goroutine, and so must every
	// experiment RunExperiments runs, its rows, and emit.
	before := runtime.NumGoroutine()
	check := func(where string) {
		if g := runtime.NumGoroutine(); g > before {
			// Another test's goroutines may linger, so only fail when the
			// count grew during our serial run.
			t.Errorf("%s: goroutines grew from %d to %d during serial run", where, before, g)
		}
	}
	opt := Options{Workers: 1}
	runParallel(opt, 50, func(i int) int {
		check("runParallel row")
		return i
	})
	exps := make([]Experiment, 3)
	for i := range exps {
		name := fmt.Sprintf("probe%d", i)
		exps[i] = Experiment{Name: name, Run: func(o Options) Result {
			check(name)
			runParallel(o, 4, func(int) int { check(name + " row"); return 0 })
			return &TableResult{ExpName: name}
		}}
	}
	emitted := 0
	RunExperiments(opt, exps, func(i int, res Result, _ time.Duration) {
		check("emit")
		if i != emitted || res.Name() != exps[i].Name {
			t.Errorf("emit(%d, %s), want emit(%d, %s)", i, res.Name(), emitted, exps[i].Name)
		}
		emitted++
	})
	if emitted != len(exps) {
		t.Errorf("emit called %d times for %d experiments", emitted, len(exps))
	}
}

// TestParallelRunExperimentsEmitOrder checks that emit runs once per
// experiment, in input order, even when later experiments finish first,
// and that it does not wait for experiments after the one it emits:
// experiment 1 cannot finish until emit(0) has run.
func TestParallelRunExperimentsEmitOrder(t *testing.T) {
	emitted0 := make(chan struct{})
	finished2 := make(chan struct{})
	wait := func(ch chan struct{}, what string) {
		select {
		case <-ch:
		case <-time.After(time.Minute):
			t.Errorf("timed out waiting for %s", what)
		}
	}
	exps := []Experiment{
		{Name: "first", Run: func(Options) Result {
			wait(finished2, "the third experiment to finish")
			return &TableResult{ExpName: "first"}
		}},
		{Name: "second", Run: func(Options) Result {
			wait(emitted0, "emit of the first experiment")
			return &TableResult{ExpName: "second"}
		}},
		{Name: "third", Run: func(Options) Result {
			defer close(finished2)
			return &TableResult{ExpName: "third"}
		}},
	}
	var got []string
	RunExperiments(Options{Workers: 2}, exps, func(i int, res Result, _ time.Duration) {
		got = append(got, fmt.Sprintf("%d:%s", i, res.Name()))
		if i == 0 {
			close(emitted0)
		}
	})
	if want := "[0:first 1:second 2:third]"; fmt.Sprint(got) != want {
		t.Fatalf("emit sequence %v, want %s", got, want)
	}
}

// TestParallelRowPoolBound runs two experiments that each fan probe rows
// out through runParallel: across both, no more than Workers rows may be
// in flight at once. The first experiment's opening row holds its slot
// until the second experiment has a row running, so the two must overlap.
func TestParallelRowPoolBound(t *testing.T) {
	const workers = 2
	var inFlight, peak atomic.Int32
	otherStarted := make(chan struct{})
	var once sync.Once
	probe := func(exp, i int) int {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		switch {
		case exp == 0 && i == 0:
			select {
			case <-otherStarted:
			case <-time.After(time.Minute):
				t.Error("the second experiment never ran a row while the first was running")
			}
		case exp == 1:
			once.Do(func() { close(otherStarted) })
		}
		time.Sleep(time.Millisecond)
		return i
	}
	exps := make([]Experiment, 2)
	for e := range exps {
		name := fmt.Sprintf("probe%d", e)
		exps[e] = Experiment{Name: name, Run: func(o Options) Result {
			runParallel(o, 16, func(i int) int { return probe(e, i) })
			return &TableResult{ExpName: name}
		}}
	}
	RunExperiments(Options{Workers: workers}, exps, func(int, Result, time.Duration) {})
	if p := peak.Load(); p > workers {
		t.Fatalf("%d rows in flight at once with Workers=%d", p, workers)
	}
}

// TestParallelPanicAfterEarlierEmits checks what a crash leaves behind: a
// panic in one experiment's row surfaces on the caller only after every
// experiment before it has been emitted, carrying the original value.
func TestParallelPanicAfterEarlierEmits(t *testing.T) {
	exps := []Experiment{
		{Name: "slow", Run: func(Options) Result {
			time.Sleep(20 * time.Millisecond)
			return &TableResult{ExpName: "slow"}
		}},
		{Name: "crashes", Run: func(o Options) Result {
			runParallel(o, 3, func(i int) int {
				if i == 1 {
					panic("row 1 failed")
				}
				return i
			})
			return &TableResult{ExpName: "crashes"}
		}},
		{Name: "never_emitted", Run: func(Options) Result { return &TableResult{ExpName: "never_emitted"} }},
	}
	var emitted []string
	defer func() {
		r := recover()
		c, ok := r.(*crash)
		if !ok || c.value != "row 1 failed" {
			t.Fatalf("recovered %v, want the row's panic", r)
		}
		if fmt.Sprint(emitted) != "[slow]" {
			t.Fatalf("emitted %v before the panic, want [slow]", emitted)
		}
	}()
	RunExperiments(Options{Workers: 2}, exps, func(i int, res Result, _ time.Duration) {
		emitted = append(emitted, res.Name())
	})
	t.Fatal("RunExperiments returned despite a panicking row")
}

// TestParallelFig5Deterministic is the tentpole's core invariant: the sweep
// must produce byte-identical summaries with Workers=1 (serial) and
// Workers=GOMAXPROCS, and across repeated runs with the same seed.
func TestParallelFig5Deterministic(t *testing.T) {
	serial := Options{Seed: 1, Quick: true, Workers: 1}
	parallel := Options{Seed: 1, Quick: true, Workers: runtime.GOMAXPROCS(0)}

	s1 := Fig5Modes(serial).Summary()
	p1 := Fig5Modes(parallel).Summary()
	if s1 != p1 {
		t.Fatal("Fig5Modes: parallel summary differs from serial")
	}
	p2 := Fig5Modes(parallel).Summary()
	if p1 != p2 {
		t.Fatal("Fig5Modes: repeated parallel runs differ for the same seed")
	}
}

// TestParallelAblationCCADeterministic covers the second sweep named by the
// determinism requirement, plus per-run CSV-level equality.
func TestParallelAblationCCADeterministic(t *testing.T) {
	serial := Options{Seed: 1, Quick: true, Workers: 1}
	parallel := Options{Seed: 1, Quick: true, Workers: runtime.GOMAXPROCS(0)}

	s1 := AblationCCA(serial).Summary()
	p1 := AblationCCA(parallel).Summary()
	if s1 != p1 {
		t.Fatal("AblationCCA: parallel summary differs from serial")
	}
	p2 := AblationCCA(parallel).Summary()
	if p1 != p2 {
		t.Fatal("AblationCCA: repeated parallel runs differ for the same seed")
	}
}

// TestParallelAllExperimentsMatchSerial sweeps the registry: every
// experiment run through RunExperiments, overlapping the others in one
// shared row pool, must give the summary and CSV artifacts it gives when
// run alone on the serial path, and its result must answer to its
// registry name. Driving it off Experiments() means a newly registered
// experiment is covered for free.
func TestParallelAllExperimentsMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick suite twice")
	}
	exps := Experiments()
	pooled := make([]Result, len(exps))
	RunExperiments(Options{Seed: 1, Quick: true, Workers: 2}, exps, func(i int, res Result, _ time.Duration) {
		pooled[i] = res
	})
	for i, exp := range exps {
		i, exp := i, exp
		t.Run(exp.Name, func(t *testing.T) {
			t.Parallel()
			serial := exp.Run(Options{Seed: 1, Quick: true, Workers: 1})
			if serial.Name() != exp.Name {
				t.Errorf("registered %q but Result.Name() = %q", exp.Name, serial.Name())
			}
			if serial.Summary() != pooled[i].Summary() {
				t.Errorf("%s: pooled summary differs from serial", exp.Name)
			}
			want, got := artifactFiles(t, serial), artifactFiles(t, pooled[i])
			if len(want) == 0 || len(got) != len(want) {
				t.Fatalf("%s: %d pooled artifacts, %d serial", exp.Name, len(got), len(want))
			}
			for name, b := range want {
				if !bytes.Equal(got[name], b) {
					t.Errorf("%s: pooled %s differs from serial", exp.Name, name)
				}
			}
		})
	}
}

// artifactFiles writes r's CSV artifacts into a fresh directory and
// returns their contents by file name.
func artifactFiles(t *testing.T, r Result) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	if err := r.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files
}

// TestParallelRunIncastSims checks the exported fan-out helper against
// one-at-a-time RunIncastSim calls.
func TestParallelRunIncastSims(t *testing.T) {
	cfgs := make([]SimConfig, 3)
	for i := range cfgs {
		cfgs[i] = SimConfig{Flows: 40 + 20*i, Bursts: 2, Seed: 1}
	}
	batch := RunIncastSims(0, cfgs)
	for i, cfg := range cfgs {
		want := RunIncastSim(cfg)
		got := batch[i]
		if fmt.Sprintf("%+v", got.AvgQueue.Values) != fmt.Sprintf("%+v", want.AvgQueue.Values) ||
			got.MeanBCT != want.MeanBCT || got.MaxBCT != want.MaxBCT ||
			got.Timeouts != want.Timeouts || got.Drops != want.Drops ||
			got.SentPackets != want.SentPackets {
			t.Fatalf("cfg %d: batched result differs from serial RunIncastSim", i)
		}
	}
}
