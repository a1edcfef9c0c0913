package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"incastlab/internal/scenario"
	"incastlab/internal/sweep"
)

// closTestSpec is a small cross-rack sweep used by the cache and sharding
// tests: 2 placements x 2 degrees on a 3-rack fabric, quick bursts.
func closTestSpec() scenario.Spec {
	return scenario.Spec{
		Name: "clos_cache_test",
		Topology: &scenario.Topology{
			Clos: &scenario.Clos{Racks: 3, HostsPerRack: 9, Spines: 2, SpineLinkGbps: 100},
		},
		Workload: scenario.Workload{BurstMS: 2, QuickBursts: 2},
		Sweep: scenario.Sweep{
			Axis:   "placement",
			Values: scenario.Strs("same-rack", "cross-rack"),
			Flows:  []int{4, 8},
		},
	}
}

func tableCSV(t *testing.T, r *TableResult) string {
	t.Helper()
	if r == nil || len(r.Artifacts) != 1 {
		t.Fatal("expected one CSV artifact")
	}
	var b strings.Builder
	if err := r.Artifacts[0].Table.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestShardValidate(t *testing.T) {
	valid := []Shard{{}, {0, 1}, {0, 2}, {1, 2}, {7, 8}}
	for _, s := range valid {
		if err := s.Validate(); err != nil {
			t.Errorf("%+v: %v", s, err)
		}
	}
	invalid := []Shard{{0, -1}, {1, 0}, {-1, 2}, {2, 2}, {5, 3}}
	for _, s := range invalid {
		if err := s.Validate(); err == nil {
			t.Errorf("%+v: Validate accepted an invalid shard", s)
		}
	}
}

// TestScenarioRowKeyContract pins what the content address must and must
// not depend on. Workers, Audit, and Metrics are excluded because results
// are bit-identical across them (the obs and registry CI gates enforce
// that); fragmenting the cache on them would destroy cross-machine reuse.
func TestScenarioRowKeyContract(t *testing.T) {
	spec := closTestSpec()
	base := Options{Seed: 1, Quick: true, Workers: 1}
	key := ScenarioRowKey(base, spec, 0)
	if key != ScenarioRowKey(base, spec, 0) {
		t.Fatal("row key is not deterministic")
	}

	same := []Options{
		{Seed: 1, Quick: true, Workers: 8},
		{Seed: 1, Quick: true, Workers: 1, Audit: true},
	}
	for _, o := range same {
		if ScenarioRowKey(o, spec, 0) != key {
			t.Errorf("key depends on %+v; Workers/Audit must not fragment the cache", o)
		}
	}

	different := map[string]string{
		"row":      ScenarioRowKey(base, spec, 1),
		"seed":     ScenarioRowKey(Options{Seed: 2, Quick: true, Workers: 1}, spec, 0),
		"quick":    ScenarioRowKey(Options{Seed: 1, Quick: false, Workers: 1}, spec, 0),
		"fidelity": ScenarioRowKey(Options{Seed: 1, Quick: true, Workers: 1, Fidelity: FidelityFlow}, spec, 0),
		"aggregation": ScenarioRowKey(Options{Seed: 1, Quick: true, Workers: 1,
			Fidelity: FidelityFlow, Aggregation: AggregationCohort}, spec, 0),
	}
	for what, k := range different {
		if k == key {
			t.Errorf("key ignores %s; stale rows would be served across it", what)
		}
	}

	// Aggregation must fragment the cache on its own, not just via the
	// fidelity it requires: a cohort-solved row and a perflow-solved row
	// of the same flow-fidelity sweep are different results.
	flowOpt := Options{Seed: 1, Quick: true, Workers: 1, Fidelity: FidelityFlow}
	cohortOpt := flowOpt
	cohortOpt.Aggregation = AggregationCohort
	if ScenarioRowKey(flowOpt, spec, 0) == ScenarioRowKey(cohortOpt, spec, 0) {
		t.Error("key ignores Aggregation; perflow rows would be served for cohort runs")
	}

	other := closTestSpec()
	other.Sweep.Flows = []int{4, 16}
	if ScenarioRowKey(base, other, 0) == key {
		t.Error("key ignores the spec content")
	}
}

// TestScenarioCachedMatchesRunScenario: the cached runner's assembled
// table must be byte-identical to the plain runner's — cold, warm, and
// with the table rebuilt purely from cached rows.
func TestScenarioCachedMatchesRunScenario(t *testing.T) {
	opt := Options{Seed: 1, Quick: true, Workers: 1}
	spec := closTestSpec()

	plain, err := RunScenario(opt, spec)
	if err != nil {
		t.Fatal(err)
	}
	want := tableCSV(t, plain)

	cache, err := sweep.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold, stats, err := RunScenarioCached(opt, spec, cache, Shard{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Computed != stats.Rows || stats.Hits != 0 {
		t.Fatalf("cold run stats = %s, want all computed", stats)
	}
	if got := tableCSV(t, cold); got != want {
		t.Errorf("cold cached CSV differs from RunScenario:\n%s\nvs\n%s", got, want)
	}

	warm, stats, err := RunScenarioCached(opt, spec, cache, Shard{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hits != stats.Rows || stats.Computed != 0 {
		t.Fatalf("warm run stats = %s, want all hits", stats)
	}
	if got := tableCSV(t, warm); got != want {
		t.Error("cache-resumed CSV differs from the cold run")
	}
	if warm.Summary() != plain.Summary() {
		t.Error("cache-resumed summary text differs from RunScenario")
	}
}

// TestParallelShardedCacheResume is the sharded runner's race-gate test:
// every shard runs in its own goroutine against one shared cache
// directory (as -shard-procs does with processes), each computes only its
// own rows, and the final assembly — all cache hits — must be
// byte-identical to an unsharded cold run. Runs under -race in ci.sh.
func TestParallelShardedCacheResume(t *testing.T) {
	opt := Options{Seed: 1, Quick: true, Workers: 1}
	spec := closTestSpec()

	want := tableCSV(t, mustScenario(opt, spec))

	cache, err := sweep.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const shards = 2
	statsCh := make(chan CacheStats, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := opt
			o.Workers = runtime.GOMAXPROCS(0)
			_, stats, err := RunScenarioCached(o, spec, cache, Shard{Index: i, Count: shards})
			if err != nil {
				t.Errorf("shard %d: %v", i, err)
				return
			}
			statsCh <- stats
		}(i)
	}
	wg.Wait()
	close(statsCh)
	computed := 0
	for s := range statsCh {
		computed += s.Computed
		if s.Computed == 0 {
			t.Error("a shard computed no rows; the split is degenerate")
		}
	}
	if computed != 4 {
		t.Fatalf("shards computed %d rows in total, want 4", computed)
	}

	final, stats, err := RunScenarioCached(opt, spec, cache, Shard{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hits != stats.Rows {
		t.Fatalf("assembly stats = %s, want all hits", stats)
	}
	if got := tableCSV(t, final); got != want {
		t.Errorf("sharded assembly differs from unsharded run:\n%s\nvs\n%s", got, want)
	}
}

// TestScenarioCachedShardSkipsForeignRows: a single shard of N leaves the
// other shards' rows uncomputed and reports no table yet.
func TestScenarioCachedShardSkipsForeignRows(t *testing.T) {
	opt := Options{Seed: 1, Quick: true, Workers: 1}
	spec := closTestSpec()
	cache, err := sweep.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := RunScenarioCached(opt, spec, cache, Shard{Index: 0, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Error("incomplete sweep returned a table")
	}
	if stats.Computed != 2 || stats.Skipped != 2 {
		t.Fatalf("stats = %s, want 2 computed, 2 skipped", stats)
	}
}

// TestScenarioCachedKeepsRowsBeforeAFailure: rows are stored as they
// finish, so a sweep that stops at a failing row keeps every row finished
// before it. The last row's 90 s minimum RTO cannot finish inside the
// fluid solver's 60 s horizon, so it fails within milliseconds, after rows
// 0 and 1. The failure counts whether it is raised as a panic or returned
// as an error, so the test holds however a failed row is reported.
func TestScenarioCachedKeepsRowsBeforeAFailure(t *testing.T) {
	spec := scenario.Spec{
		Name:     "failing_last_row",
		Topology: &scenario.Topology{QueuePackets: 20},
		Workload: scenario.Workload{BurstMS: 4, IntervalMS: 50, Bursts: 2},
		Sweep: scenario.Sweep{
			Axis:   "min_rto_ms",
			Values: scenario.Nums(1, 2, 90000),
			Flows:  []int{200},
		},
		Fidelity: FidelityFlow,
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opt := Options{Seed: 1, Quick: true, Workers: workers}
			dir := t.TempDir()
			cache, err := sweep.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			failed := func() (failed bool) {
				defer func() {
					if recover() != nil {
						failed = true
					}
				}()
				_, _, err := RunScenarioCached(opt, spec, cache, Shard{})
				return err != nil
			}()
			if !failed {
				t.Fatal("the sweep finished; its 90 s min-RTO row should fail at the solver's horizon")
			}

			reopened, err := sweep.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			for row, want := range []bool{true, true, false} {
				if _, ok, err := reopened.Get(ScenarioRowKey(opt, spec, row)); err != nil || ok != want {
					t.Errorf("row %d: cached=%v err=%v, want cached=%v", row, ok, err, want)
				}
			}
		})
	}
}
