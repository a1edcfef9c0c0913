package flowsim

import (
	"math"
	"strings"
	"testing"

	"incastlab/internal/netsim"
	"incastlab/internal/sim"
)

// closQuickConfig builds a NetworkConfig for an n-flow cross-rack incast
// on the default two-spine fabric, the fluid mirror of
// workload.ClosIncast's cross-rack placement.
func closQuickConfig(t *testing.T, n int, placementCross bool) NetworkConfig {
	t.Helper()
	cc := netsim.DefaultClosConfig(8, 501)
	srcs := make([]netsim.NodeID, n)
	dsts := make([]netsim.NodeID, n)
	for i := range srcs {
		if placementCross {
			srcs[i] = cc.HostID(1+i%(cc.Racks-1), i/(cc.Racks-1))
		} else {
			srcs[i] = cc.HostID(0, i+1)
		}
		dsts[i] = 0
	}
	net, err := cc.FluidPaths(srcs, dsts)
	if err != nil {
		t.Fatalf("FluidPaths: %v", err)
	}
	cfg := quickConfig(n, CCConfig{})
	cfg.BaseRTT = cc.BaseRTT(placementCross)
	return NetworkConfig{Config: cfg, Net: net}
}

// TestNetworkClosCrossRack smoke-tests the multi-queue integrator on the
// real fabric geometry with per-step invariant checking on: every burst
// completes, conservation holds at every checkpoint, and the bottleneck
// statistics land in the mode the packet backend sees for the same
// operating point (Mode 1 at 80 flows, Mode 2 at 500).
func TestNetworkClosCrossRack(t *testing.T) {
	for _, tc := range []struct {
		n    int
		mode string
	}{
		{80, "1 (healthy)"},
		{500, "2 (degenerate)"},
	} {
		res, err := RunNetwork(closQuickConfig(t, tc.n, true))
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		if got := Classify(res.Timeouts, res.FracBelowK); got != tc.mode {
			t.Errorf("n=%d: mode %q, want %q (timeouts=%d fracBelowK=%.3f)",
				tc.n, got, tc.mode, res.Timeouts, res.FracBelowK)
		}
		if res.DeliveredPackets <= 0 || res.MeanBCT <= 0 {
			t.Errorf("n=%d: degenerate result: delivered=%d meanBCT=%v",
				tc.n, res.DeliveredPackets, res.MeanBCT)
		}
	}
}

// TestNetworkSameRackMatchesDumbbell pins the Clos same-rack placement to
// the dumbbell: a same-rack incast's only queue is the aggregator's leaf
// downlink, so the network ClosConfig.FluidPaths builds and the one
// SingleQueue builds from the same Config are the same one-queue network
// and must produce the same run.
func TestNetworkSameRackMatchesDumbbell(t *testing.T) {
	ncfg := closQuickConfig(t, 80, false)
	if err := ncfg.prepare(); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if len(ncfg.Net.Queues) != 1 {
		t.Fatalf("same-rack Clos incast built %d queues, want 1", len(ncfg.Net.Queues))
	}
	got, err := RunNetwork(ncfg)
	if err != nil {
		t.Fatalf("RunNetwork: %v", err)
	}
	want, err := Run(ncfg.Config)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got.Steps != want.Steps || got.MeanBCT != want.MeanBCT || got.Timeouts != want.Timeouts {
		t.Errorf("same-rack RunNetwork diverged from Run: steps %d vs %d, meanBCT %v vs %v",
			got.Steps, want.Steps, got.MeanBCT, want.MeanBCT)
	}
}

// TestSingleQueueAllocs pins that wrapping a dumbbell as its one-queue
// network costs a constant number of allocations: every flow shares one
// path slice instead of allocating its own.
func TestSingleQueueAllocs(t *testing.T) {
	cfg := quickConfig(1400, CCConfig{})
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := SingleQueue(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("SingleQueue at %d flows allocates %.0f objects, want a small constant (<= 8)", cfg.Flows, allocs)
	}
}

// TestNetworkValidation covers RunNetwork's input contract: a nil
// network, mismatched flow counts, structurally invalid path sets, and a
// flow whose path class does not exist all fail with named errors instead
// of running.
func TestNetworkValidation(t *testing.T) {
	cfg := quickConfig(4, CCConfig{})
	if _, err := RunNetwork(NetworkConfig{Config: cfg}); err == nil {
		t.Error("nil network accepted")
	}
	ncfg, err := SingleQueue(cfg)
	if err != nil {
		t.Fatalf("SingleQueue: %v", err)
	}
	ncfg.Flows = 5
	if _, err := RunNetwork(ncfg); err == nil {
		t.Error("flow/path count mismatch accepted")
	}
	bad := &netsim.FluidPaths{
		Queues:  []netsim.FluidQueue{{Name: "x", RateBps: 0, CapacityPackets: 1, ECNThresholdPackets: 1}},
		Paths:   [][]int32{{0}},
		BaseRTT: []sim.Time{sim.Millisecond},
		Class:   []int32{0},
		Stage:   []int{0},
	}
	if _, err := RunNetwork(NetworkConfig{Config: quickConfig(1, CCConfig{}), Net: bad}); err == nil {
		t.Error("zero-rate queue accepted")
	}
	ncfg, err = SingleQueue(cfg)
	if err != nil {
		t.Fatalf("SingleQueue: %v", err)
	}
	ncfg.Net.Class[3] = 1
	if _, err := RunNetwork(ncfg); err == nil || !strings.Contains(err.Error(), "class") {
		t.Errorf("flow in a path class that does not exist: error %v, want one naming the class", err)
	}
}

// victimNet is a three-queue network for the tail-drop victim tests: one
// shared uplink (queue 0, stage 0) in front of two terminal queues
// (queues 1 and 2, stage 1), one path class per terminal queue.
// terminal[i] picks flow i's terminal queue.
func victimNet(terminal []int32) *netsim.FluidPaths {
	q := netsim.FluidQueue{RateBps: 10 * netsim.Gbps, CapacityPackets: 100, ECNThresholdPackets: 20}
	net := &netsim.FluidPaths{
		Queues:  []netsim.FluidQueue{q, q, q},
		Paths:   [][]int32{{0, 1}, {0, 2}},
		BaseRTT: []sim.Time{10 * sim.Microsecond, 10 * sim.Microsecond},
		Class:   make([]int32, len(terminal)),
		Stage:   []int{0, 1, 1},
	}
	for i, j := range terminal {
		net.Class[i] = j - 1
	}
	net.Queues[0].Name, net.Queues[1].Name, net.Queues[2].Name = "uplink", "terminal-a", "terminal-b"
	net.Bottleneck = 1
	return net
}

// victimEngine builds a network engine over victimNet for the given plan,
// then swaps in a hand-made release schedule — units released in the
// given order, 10 us apart — and rebuilds the victim index from it.
func victimEngine(t *testing.T, terminal []int32, plan cohortPlan, order []int32) *netEngine {
	t.Helper()
	cfg := NetworkConfig{Config: quickConfig(len(terminal), CCConfig{}), Net: victimNet(terminal)}
	cfg.Bursts = 1
	if err := cfg.prepare(); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	e, err := newNetEngine(cfg, plan)
	if err != nil {
		t.Fatalf("newNetEngine: %v", err)
	}
	t.Cleanup(e.release)
	e.releases = e.releases[:0]
	for k, u := range order {
		e.releases = append(e.releases, release{at: sim.Time(k+1) * 10 * sim.Microsecond, flow: u})
	}
	e.buildVictimIndex()
	return e
}

// offer gives record i a per-member arrival of a packets at hop h, as if
// it had been released at its scheduled time.
func (e *netEngine) offer(i int32, h int, a float64) {
	e.hop(i, h).arr = a
	e.qs[e.paths[i][h]].arrTotal += a * float64(e.mCnt[i])
}

// hop returns record i's state at hop h.
func (e *netEngine) hop(i int32, h int) *hopState {
	return &e.hops[e.hot[i].off+int32(h)]
}

// TestDropTailVictimOrder pins the tail-drop victim order through the
// per-queue victim index: when terminal queue 1 overflows, only records
// that cross it lose volume, newest release first; records behind the
// other terminal queue keep their offers; and a record whose release has
// not happened yet is never touched, whatever its arrivals say.
func TestDropTailVictimOrder(t *testing.T) {
	// Flows 0-3 end at queue 1, flows 4-5 at queue 2.
	terminal := []int32{1, 1, 1, 1, 2, 2}
	order := []int32{2, 0, 4, 1, 5, 3} // flow 3 is released last
	e := victimEngine(t, terminal, singletonPlan(len(terminal)), order)
	e.relPtr = 5 // flow 3 not released yet
	for k := 0; k < e.relPtr; k++ {
		r := e.releases[k]
		e.flows[r.flow].lastRelease = r.at
	}
	for i := range terminal {
		e.offer(int32(i), 1, 2)
	}
	stepEnd := 60 * sim.Microsecond
	e.now = stepEnd - 2*sim.Microsecond
	// Newest released crossers of queue 1: flow 1 (whole offer), then
	// flow 0 (one of its two packets); flow 2 is older and keeps all.
	e.dropTailQueue(1, 3, stepEnd)
	want := []float64{1, 0, 2, 2, 2, 2}
	for i, w := range want {
		if got := e.hop(int32(i), 1).arr; math.Abs(got-w) > 1e-12 {
			t.Errorf("flow %d: arrival %.3f after the drop, want %.3f", i, got, w)
		}
	}
	if e.drops != 3 {
		t.Errorf("drops %.3f, want 3", e.drops)
	}
	if got := e.qs[1].arrTotal; math.Abs(got-5) > 1e-12 {
		t.Errorf("queue 1 arrivals %.3f after the drop, want 5", got)
	}
	if got := e.qs[2].arrTotal; got != 4 {
		t.Errorf("queue 2 arrivals %.3f, want 4 (untouched)", got)
	}
}

// TestDropTailFindsSplitChildren pins that split children, which have no
// index entries of their own, are reached through their parent's entry:
// the lineage walk under the parent's release covers them.
func TestDropTailFindsSplitChildren(t *testing.T) {
	terminal := []int32{1, 1, 1, 1, 2}
	plan := cohortPlan{
		perm: []int32{0, 1, 2, 3, 4},
		off:  []int32{0, 4},
		cnt:  []int32{4, 1},
	}
	e := victimEngine(t, terminal, plan, []int32{0, 1})
	e.relPtr = 2
	for _, r := range e.releases {
		e.flows[r.flow].lastRelease = r.at
	}
	stepEnd := 30 * sim.Microsecond
	e.now = stepEnd - 2*sim.Microsecond
	// 1.5 packets out of a four-member cohort offering one each: one
	// member loses its whole offer and one loses half, so the cohort
	// splits into the untouched parent and two children.
	e.offer(0, 1, 1)
	e.dropTailQueue(1, 1.5, stepEnd)
	if len(e.mCnt) != 4 || e.splitsMade != 1 {
		t.Fatalf("after a partial drop: %d records, %d splits; want 4 records, 1 split", len(e.mCnt), e.splitsMade)
	}
	var children []int32
	for i := e.hot[0].lineNext; i >= 0; i = e.hot[i].lineNext {
		children = append(children, i)
	}
	if len(children) != 2 {
		t.Fatalf("record 0 lineage holds %d children, want 2", len(children))
	}

	// Next step: only the children offer into queue 1. The index still has
	// the single entry it was built with, yet the drop reaches both.
	for j := range e.qs {
		e.qs[j].arrTotal = 0
	}
	for _, c := range children {
		e.hop(c, 1).arr = 0
		e.offer(c, 1, 1)
	}
	e.hop(0, 1).arr = 0
	e.dropTailQueue(1, 2, stepEnd)
	for _, c := range children {
		if got := e.hop(c, 1).arr; got != 0 {
			t.Errorf("split child %d kept %.3f of its offer, want it dropped", c, got)
		}
	}
	if got := e.qs[1].arrTotal; math.Abs(got) > 1e-12 {
		t.Errorf("queue 1 arrivals %.3f after dropping every child, want 0", got)
	}
}
