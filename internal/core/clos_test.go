package core

import (
	"encoding/json"
	"runtime"
	"testing"

	"incastlab/internal/cc"
	"incastlab/internal/netsim"
	"incastlab/internal/scenario"
	"incastlab/internal/sim"
	"incastlab/internal/sweep"
)

// TestSharedBufferPoolReuse is the pooled-reuse regression for shared
// buffers: the shared-buffer ablation must produce byte-identical CSVs on
// a cold process and again after the engine/packet-pool bundles have been
// recycled through other sweeps. SharedBuffer DT state (usedBytes,
// externalBytes, registered queues) lives in per-run objects built fresh
// by each topology constructor — only the engine and packet free lists are
// pooled — so occupancy cannot carry over; this test pins that invariant
// so a future "optimize: pool the topology too" change cannot silently
// leak occupancy across sweep points.
func TestSharedBufferPoolReuse(t *testing.T) {
	opt := Options{Seed: 1, Quick: true, Workers: 1}
	first := tableCSV(t, AblationSharedBuffer(opt))

	// Dirty the pool: interleave other sweeps (different topology sizes,
	// shared buffers on and off) so recycled bundles saw foreign runs.
	AblationG(opt)
	mustScenario(opt, closTestSpec())

	second := tableCSV(t, AblationSharedBuffer(opt))
	if first != second {
		t.Errorf("shared-buffer sweep is not reproducible across pooled engine reuse:\n%s\nvs\n%s",
			first, second)
	}
}

// TestParallelClosDeterministic: the Clos cross-rack sweep — ECMP path
// hashing included — must be byte-identical between the serial runner and
// the full worker pool, and across repeated runs. Runs under -race in
// ci.sh; together with TestParallelShardedCacheResume this pins "same
// seed + spec => identical path assignments serial vs parallel and across
// cache hits".
func TestParallelClosDeterministic(t *testing.T) {
	spec := closTestSpec()
	serial := tableCSV(t, mustScenario(Options{Seed: 1, Quick: true, Workers: 1}, spec))
	parallel := tableCSV(t, mustScenario(Options{Seed: 1, Quick: true, Workers: runtime.GOMAXPROCS(0)}, spec))
	if serial != parallel {
		t.Error("Clos sweep differs between serial and parallel runners")
	}
	again := tableCSV(t, mustScenario(Options{Seed: 1, Quick: true, Workers: runtime.GOMAXPROCS(0)}, spec))
	if parallel != again {
		t.Error("repeated parallel Clos runs differ for the same seed")
	}
}

// TestClosECMPSeedChangesResults: a different ecmp_seed reshuffles
// cross-rack flow placement, which must show up in the sweep output
// (collision pattern, hence queue/BCT cells). Same-rack rows never cross
// the spines, so only the cross-rack rows may move.
func TestClosECMPSeedChangesResults(t *testing.T) {
	opt := Options{Seed: 1, Quick: true, Workers: 1}
	a := closTestSpec()
	a.Topology.Clos.ECMPSeed = 1
	b := closTestSpec()
	b.Topology.Clos.ECMPSeed = 99

	ca := tableCSV(t, mustScenario(opt, a))
	cb := tableCSV(t, mustScenario(opt, b))
	if ca == cb {
		t.Error("changing topology.clos.ecmp_seed left every sweep cell unchanged")
	}
}

// TestClosCrossRackSpecContract: the registered experiment's spec is
// valid, registered as an extension, and expressible as the JSON the
// -scenario CLI accepts (round-trips losslessly), like the ablation specs.
func TestClosCrossRackSpecContract(t *testing.T) {
	s := closCrossRackSpec()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	e, ok := LookupExperiment(s.Name)
	if !ok {
		t.Fatalf("%q is not a registered experiment", s.Name)
	}
	if e.Kind != KindExtension {
		t.Errorf("%s registered as %q, want %q", s.Name, e.Kind, KindExtension)
	}
	roundTripSpec(t, s)
}

func roundTripSpec(t *testing.T, s scenario.Spec) {
	t.Helper()
	first, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("%s: marshal: %v", s.Name, err)
	}
	parsed, err := scenario.Parse(first)
	if err != nil {
		t.Fatalf("%s: parse own JSON: %v", s.Name, err)
	}
	second, err := json.Marshal(parsed)
	if err != nil {
		t.Fatalf("%s: re-marshal: %v", s.Name, err)
	}
	if string(first) != string(second) {
		t.Errorf("%s: JSON round trip is lossy:\n%s\n%s", s.Name, first, second)
	}
}

// closFlowTestSpec is closTestSpec at flow fidelity with an aggregators
// axis: every row runs the multi-queue fluid solver over the fabric.
func closFlowTestSpec() scenario.Spec {
	return scenario.Spec{
		Name: "clos_flow_test",
		Topology: &scenario.Topology{
			Clos: &scenario.Clos{Racks: 3, HostsPerRack: 9, Spines: 2, SpineLinkGbps: 100},
		},
		Workload: scenario.Workload{BurstMS: 2, QuickBursts: 2},
		Sweep: scenario.Sweep{
			Axis:   "aggregators",
			Values: scenario.Nums(1, 3),
			Flows:  []int{4, 8},
		},
		Fidelity: "flow",
	}
}

// TestParallelClosFlowDeterministic: Clos sweeps at fidelity "flow" —
// ECMP spine assignment and the multi-queue fluid integration — must be
// byte-identical between the serial runner, the full worker pool, and a
// cache-hit replay. Runs under -race in ci.sh: any shared mutable state
// between concurrent fluid runs shows up here.
func TestParallelClosFlowDeterministic(t *testing.T) {
	spec := closFlowTestSpec()
	serial := tableCSV(t, mustScenario(Options{Seed: 1, Quick: true, Workers: 1}, spec))
	parallel := tableCSV(t, mustScenario(Options{Seed: 1, Quick: true, Workers: runtime.GOMAXPROCS(0)}, spec))
	if serial != parallel {
		t.Error("flow-fidelity Clos sweep differs between serial and parallel runners")
	}

	cache, err := sweep.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Seed: 1, Quick: true, Workers: runtime.GOMAXPROCS(0)}
	if _, _, err := RunScenarioCached(opt, spec, cache, Shard{}); err != nil {
		t.Fatal(err)
	}
	warm, stats, err := RunScenarioCached(opt, spec, cache, Shard{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hits != stats.Rows || stats.Computed != 0 {
		t.Fatalf("warm run stats = %s, want all hits", stats)
	}
	if got := tableCSV(t, warm); got != serial {
		t.Error("cache-hit replay of the flow-fidelity Clos sweep differs from the serial run")
	}
}

// TestParallelCohortDeterministic: the same fabric sweep solved with
// cohort aggregation forced on must also be byte-identical between the
// serial runner, the full worker pool, and a cache-hit replay. Runs
// under -race in ci.sh: the cohort solver's split bookkeeping is all
// per-run state, and this pins that no scratch leaks across concurrent
// runs.
func TestParallelCohortDeterministic(t *testing.T) {
	spec := closFlowTestSpec()
	spec.Name = "clos_cohort_test"
	spec.Aggregation = AggregationCohort
	spec.Sweep.Flows = []int{16, 48}
	// 3 aggregators x 48 cross-rack workers lands 49 hosts in a rack.
	spec.Topology.Clos.HostsPerRack = 64

	serial := tableCSV(t, mustScenario(Options{Seed: 1, Quick: true, Workers: 1}, spec))
	parallel := tableCSV(t, mustScenario(Options{Seed: 1, Quick: true, Workers: runtime.GOMAXPROCS(0)}, spec))
	if serial != parallel {
		t.Error("cohort-aggregated Clos sweep differs between serial and parallel runners")
	}

	cache, err := sweep.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Seed: 1, Quick: true, Workers: runtime.GOMAXPROCS(0)}
	if _, _, err := RunScenarioCached(opt, spec, cache, Shard{}); err != nil {
		t.Fatal(err)
	}
	warm, stats, err := RunScenarioCached(opt, spec, cache, Shard{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hits != stats.Rows || stats.Computed != 0 {
		t.Fatalf("warm run stats = %s, want all hits", stats)
	}
	if got := tableCSV(t, warm); got != serial {
		t.Error("cache-hit replay of the cohort-aggregated Clos sweep differs from the serial run")
	}
}

// TestClosICTCPBudgetsEachReceivingHost: ICTCP runs one controller per
// receiving host, each budgeting its own NIC, so on a Clos two
// aggregators' concurrent incasts, each into its own leaf downlink,
// complete about as fast as one incast alone. One controller over both
// aggregators' receivers would split one NIC's budget between two NICs.
func TestClosICTCPBudgetsEachReceivingHost(t *testing.T) {
	clos := netsim.DefaultClosConfig(4, 40)
	run := func(aggregators int) sim.Time {
		return RunIncastSim(SimConfig{
			Flows: 4, Clos: &clos, Aggregators: aggregators, EnableICTCP: true,
			Alg:           func(int) cc.Algorithm { return cc.NewReno(10 * netsim.MSS) },
			BurstDuration: 5 * sim.Millisecond, Bursts: 3,
		}).MeanBCT
	}
	one, two := run(1), run(2)
	t.Logf("mean BCT: %v with one aggregator, %v with two", one, two)
	if float64(two) > 1.2*float64(one) {
		t.Errorf("two aggregators' mean BCT %v exceeds one aggregator's %v by more than 20%%", two, one)
	}
}
