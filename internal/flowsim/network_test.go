package flowsim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"incastlab/internal/netsim"
	"incastlab/internal/sim"
	"incastlab/internal/workload"
)

// closQuickConfig builds the quick workload and the path set of an n-flow
// incast on the default two-spine fabric, cross-rack or same-rack: the
// fluid mirror of workload.ClosFlowEndpoints' placements.
func closQuickConfig(t *testing.T, n int, placementCross bool) (Config, *netsim.FluidPaths) {
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
	return quickConfig(n, CCConfig{}), net
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
		res, err := Run(closQuickConfig(t, tc.n, true))
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		if got := res.Mode(); got != tc.mode {
			t.Errorf("n=%d: mode %q, want %q (timeouts=%d fracBelowK=%.3f)",
				tc.n, got, tc.mode, res.Timeouts, res.FracBelowK)
		}
		if res.DeliveredPackets <= 0 || res.MeanBCT <= 0 {
			t.Errorf("n=%d: degenerate result: delivered=%d meanBCT=%v",
				tc.n, res.DeliveredPackets, res.MeanBCT)
		}
	}
}

// TestLifetimeTotalsConserve pins the lifetime totals the obs harvest
// reads, on lossy runs: every queue sends what it admitted, the
// aggregator's downlink sends every delivered packet, every drop is one
// retransmitted packet, and the lifetime BCTs hold every burst, the
// measured ones as their tail. The cohort dumbbell's written-off crumbs
// add up to whole packets, which the queue totals must count as sent.
func TestLifetimeTotalsConserve(t *testing.T) {
	type run struct {
		cfg Config
		net *netsim.FluidPaths
	}
	closCfg, closNet := closQuickConfig(t, 1400, true)
	for name, r := range map[string]run{
		"clos cross-rack per flow": {closCfg, closNet},
		"dumbbell cohorts": {Config{
			SegmentsPerFlow: workload.BytesPerFlowFor(10*netsim.Gbps, 750*sim.Millisecond, 100_000) / netsim.MSS,
			Bursts:          3,
			Interval:        2 * sim.Second,
			JitterMax:       100 * sim.Millisecond,
			Aggregation:     AggregationCohort,
		}, dumbbell(t, 100_000)},
	} {
		res, err := Run(r.cfg, r.net)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lt := res.Lifetime
		near := func(a, b int64) bool { return a-b <= 1 && b-a <= 1 }
		var dropped int64
		for _, q := range lt.Queues {
			if !near(q.Admitted, q.Departed) {
				t.Errorf("%s: queue %s admitted %d packets but sent %d", name, q.Name, q.Admitted, q.Departed)
			}
			dropped += q.Dropped
		}
		if dropped == 0 {
			t.Fatalf("%s: want a lossy run", name)
		}
		if d := dropped - lt.RetransmitPackets; d < -int64(len(lt.Queues)) || d > int64(len(lt.Queues)) {
			t.Errorf("%s: queues dropped %d packets, but %d were retransmitted", name, dropped, lt.RetransmitPackets)
		}
		if b := lt.Queues[r.net.Bottleneck]; !near(b.Departed, lt.DeliveredPackets) {
			t.Errorf("%s: bottleneck %s sent %d packets, but %d were delivered", name, b.Name, b.Departed, lt.DeliveredPackets)
		}
		if len(lt.BCTs) != r.cfg.Bursts || res.MaxBCT != slices.Max(lt.BCTs[1:]) {
			t.Errorf("%s: lifetime BCTs %v, measured max %v, want %d bursts with the measured ones last",
				name, lt.BCTs, res.MaxBCT, r.cfg.Bursts)
		}
	}
}

// TestNetworkSameRackMatchesDumbbell pins the Clos same-rack placement to
// the dumbbell: a same-rack incast's only queue is the aggregator's leaf
// downlink, so the path set ClosConfig.FluidPaths builds is the dumbbell's
// one-queue path set under another name, and with the base RTT matched
// (the dumbbell's adds its core hop) the one Run must produce the same
// run over both.
func TestNetworkSameRackMatchesDumbbell(t *testing.T) {
	cfg, clos := closQuickConfig(t, 80, false)
	if len(clos.Queues) != 1 {
		t.Fatalf("same-rack Clos incast built %d queues, want 1", len(clos.Queues))
	}
	db := dumbbell(t, 80)
	q, dq := clos.Queues[0], db.Queues[0]
	if q.RateBps != dq.RateBps || q.CapacityPackets != dq.CapacityPackets || q.ECNThresholdPackets != dq.ECNThresholdPackets ||
		!slices.EqualFunc(clos.Paths, db.Paths, slices.Equal) || !slices.Equal(clos.Counts, db.Counts) ||
		clos.Bottleneck != db.Bottleneck {
		t.Fatalf("same-rack Clos path set %+v differs from the dumbbell's %+v", clos, db)
	}
	db.BaseRTT[0] = clos.BaseRTT[0]
	got, err := Run(cfg, clos)
	if err != nil {
		t.Fatalf("Run over the Clos path set: %v", err)
	}
	want, err := Run(cfg, db)
	if err != nil {
		t.Fatalf("Run over the dumbbell path set: %v", err)
	}
	if got.Steps != want.Steps || got.MeanBCT != want.MeanBCT || got.Timeouts != want.Timeouts {
		t.Errorf("same-rack Clos run diverged from the dumbbell's: steps %d vs %d, meanBCT %v vs %v",
			got.Steps, want.Steps, got.MeanBCT, want.MeanBCT)
	}
}

// TestNetworkValidation covers Run's path-set contract: a nil path set,
// a structurally invalid one, and a flow whose path class does not exist
// all fail with named errors instead of running. The class counts cannot
// see a stray class function, so the per-flow plan and the cohort run's
// member expansion must.
func TestNetworkValidation(t *testing.T) {
	cfg := quickConfig(4, CCConfig{})
	if _, err := Run(cfg, nil); err == nil {
		t.Error("nil network accepted")
	}
	bad := &netsim.FluidPaths{
		Queues:  []netsim.FluidQueue{{Name: "x", RateBps: 0, CapacityPackets: 1, ECNThresholdPackets: 1}},
		Paths:   [][]int32{{0}},
		BaseRTT: []sim.Time{sim.Millisecond},
		Counts:  []int32{1},
		Stage:   []int{0},
	}
	if _, err := Run(quickConfig(1, CCConfig{}), bad); err == nil {
		t.Error("zero-rate queue accepted")
	}
	for _, agg := range []string{AggregationPerFlow, AggregationCohort} {
		net := dumbbell(t, 4)
		net.SetClasses([]int32{0, 0, 0, 1})
		net.Counts = []int32{4} // the counts agree; only the class function strays
		c := cfg
		c.Aggregation = agg
		res, err := Run(c, net)
		if agg == AggregationCohort && err == nil {
			// A cohort run never resolves classes; expanding its members does.
			_, err = res.Final.FlowRecords()
		}
		if err == nil || !strings.Contains(err.Error(), "class 1") {
			t.Errorf("%s: flow in a path class that does not exist: error %v, want one naming the class", agg, err)
		}
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
		Stage:   []int{0, 1, 1},
	}
	net.SetClasses(victimClasses(terminal))
	net.Queues[0].Name, net.Queues[1].Name, net.Queues[2].Name = "uplink", "terminal-a", "terminal-b"
	net.Bottleneck = 1
	return net
}

// victimClasses is victimNet's class of each flow: the path to its
// terminal queue.
func victimClasses(terminal []int32) []int32 {
	classes := make([]int32, len(terminal))
	for i, j := range terminal {
		classes[i] = j - 1
	}
	return classes
}

// victimEngine builds a network engine over victimNet for the given plan,
// then swaps in a hand-made release schedule — units released in the
// given order, 10 us apart — and rebuilds the victim index and the
// per-release live counts from it.
func victimEngine(t *testing.T, terminal []int32, plan cohortPlan, order []int32) *netEngine {
	t.Helper()
	cfg, net := quickConfig(len(terminal), CCConfig{}), victimNet(terminal)
	cfg.Bursts = 1
	if err := cfg.fill(net); err != nil {
		t.Fatalf("fill: %v", err)
	}
	e, err := newNetEngine(cfg, net, plan)
	if err != nil {
		t.Fatalf("newNetEngine: %v", err)
	}
	t.Cleanup(e.release)
	e.releases = e.releases[:0]
	for k, u := range order {
		e.releases = append(e.releases, release{at: sim.Time(k+1) * 10 * sim.Microsecond, flow: u})
	}
	e.buildVictimIndex()
	e.relLive = grown(e.relLive, len(e.releases))
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
	e := victimEngine(t, terminal, singletonPlan(victimClasses(terminal)), order)
	stepEnd := 60 * sim.Microsecond
	e.now = stepEnd - 2*sim.Microsecond
	e.releaseDue() // activates every released flow; flow 3 is not released yet
	if e.relPtr != 5 {
		t.Fatalf("%d releases made, want 5", e.relPtr)
	}
	for i := range terminal {
		e.offer(int32(i), 1, 2)
	}
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
		off:   []int32{0, 4},
		cnt:   []int32{4, 1},
		class: []int32{0, 1},
	}
	e := victimEngine(t, terminal, plan, []int32{0, 1})
	stepEnd := 30 * sim.Microsecond
	e.now = stepEnd - 2*sim.Microsecond
	e.releaseDue() // releases and activates both records
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

// TestNetworkStrandedVolumeIsAnError: a cohort parked on an RTO takes a
// partial drop at a deeper hop and splits. Its children inherit the stall
// deadline and park with wake entries of their own, so once the rest
// drains they wake, send the volume the drop returned to them, and the
// burst completes. A record left holding unsent volume with nothing to
// wake it (built here by taking the children's wake entries away) must
// fail the run, naming the stranded records, instead of completing the
// burst.
func TestNetworkStrandedVolumeIsAnError(t *testing.T) {
	split := func() *netEngine {
		plan := cohortPlan{off: []int32{0}, cnt: []int32{4}, class: []int32{0}}
		e := victimEngine(t, []int32{1, 1, 1, 1}, plan, []int32{0})
		e.now = 10 * sim.Microsecond
		e.releaseDue()
		stepEnd := e.now + 2*sim.Microsecond
		// The uplink drops the cohort's whole first-hop offer with nothing
		// in flight: every member times out.
		e.offer(0, 0, 1)
		e.dropTailQueue(0, 4, stepEnd)
		if !e.hot[0].parked {
			t.Fatal("cohort not parked after losing its whole offer with nothing in flight")
		}
		// A packet per member admitted earlier reaches the terminal hop
		// while the cohort is parked, and 1.5 of the 4 are dropped there:
		// the cohort splits into the untouched parent and two children.
		e.hot[0].unsent--
		e.offer(0, 1, 1)
		e.dropTailQueue(1, 1.5, stepEnd)
		if len(e.mCnt) != 3 {
			t.Fatalf("after the partial drop: %d records, want 3", len(e.mCnt))
		}
		// The step ends with the surviving arrivals back at their sources.
		for i := range e.hot {
			hs := e.hop(int32(i), 1)
			e.hot[i].unsent += hs.arr
			hs.arr, hs.arrMk = 0, 0
		}
		for j := range e.qs {
			e.qs[j].arrTotal = 0
		}
		e.now = stepEnd
		return e
	}

	e := split()
	for c := int32(1); c < 3; c++ {
		if !e.hot[c].parked || e.hot[c].stallT != e.hot[0].stallT {
			t.Fatalf("child %d: parked %t until %v, want parked with the parent's deadline %v",
				c, e.hot[c].parked, e.hot[c].stallT, e.hot[0].stallT)
		}
	}
	// Every parked record has a wake entry at its deadline.
	if err := e.checkIndexes(); err != nil {
		t.Fatal(err)
	}
	if err := e.run(); err != nil {
		t.Fatalf("run with the children parked: %v", err)
	}
	if e.burstsDone != 1 {
		t.Errorf("%d bursts completed, want 1", e.burstsDone)
	}

	e = split()
	keep := e.wakes[:0]
	for _, st := range e.wakes {
		if st.rec == 0 {
			keep = append(keep, st)
		}
	}
	e.wakes = keep
	e.wakes.init()
	e.hot[1].parked, e.hot[2].parked = false, false
	err := e.run()
	if err == nil {
		t.Fatalf("run completed %d of 1 bursts with the split children's volume unsent", e.burstsDone)
	}
	if !strings.Contains(err.Error(), "2 records holding") || !strings.Contains(err.Error(), "parked false") {
		t.Errorf("error %q does not name the 2 stranded records and the first one's state", err)
	}
	if e.burstsDone != 0 {
		t.Errorf("%d bursts completed, want 0", e.burstsDone)
	}
}

// TestNetworkParkedCohortSplitCompletes runs 49 Reno flows, one 26-segment
// burst from 1 Gb/s NICs, through four 1 Gb/s hops whose last holds 4
// packets with K=1. Cohorts parked on an RTO keep draining hop to hop and
// split on partial drops at the last hop; their children must wake on
// their own, or 113 unsent packets strand in 5 of them. Both aggregation
// levels complete, deliver every packet, and time out.
func TestNetworkParkedCohortSplitCompletes(t *testing.T) {
	q := netsim.FluidQueue{RateBps: netsim.Gbps, CapacityPackets: 1333, ECNThresholdPackets: 65}
	net := &netsim.FluidPaths{
		Queues:     []netsim.FluidQueue{q, q, q, {RateBps: netsim.Gbps, CapacityPackets: 4, ECNThresholdPackets: 1}},
		Paths:      [][]int32{{0, 1, 2, 3}},
		BaseRTT:    []sim.Time{30 * sim.Microsecond},
		Counts:     []int32{49},
		Stage:      []int{0, 1, 2, 3},
		Bottleneck: 3,
	}
	for j := range net.Queues {
		net.Queues[j].Name = fmt.Sprintf("hop%d", j)
	}
	for _, agg := range []string{AggregationCohort, AggregationPerFlow} {
		cfg := Config{
			SegmentsPerFlow: 26,
			Bursts:          1,
			LineRateBps:     netsim.Gbps,
			CC:              CCConfig{Kind: KindReno},
			Aggregation:     agg,
			Check:           true,
		}
		res, err := Run(cfg, net)
		if err != nil {
			t.Fatalf("%s: %v", agg, err)
		}
		if res.Lifetime.DeliveredPackets != 49*26 || res.Timeouts == 0 {
			t.Errorf("%s: delivered %d of %d packets with %d timeouts, want all of them and a Mode-3 run",
				agg, res.Lifetime.DeliveredPackets, 49*26, res.Timeouts)
		}
		if agg == AggregationCohort && res.CohortSplits == 0 {
			t.Errorf("cohort run made no splits")
		}
	}
}

// dropTailQueueRef is the unfiltered tail-drop walk: every released
// index entry of queue j, newest first, tested record by record, whether
// or not its release has a live record. TestDropTailAndWakesMatchReferences
// holds dropTailQueue to it.
func (e *netEngine) dropTailQueueRef(j int32, overflow float64, stepEnd sim.Time) {
	list := e.vic[e.vicOff[j]:e.vicOff[j+1]]
	released, _ := slices.BinarySearchFunc(list, int32(e.relPtr), func(v victim, rel int32) int {
		return cmp.Compare(v.rel, rel)
	})
	remaining := overflow
	for k := released - 1; k >= 0 && remaining > volEps; k-- {
		v := list[k]
		rel := e.releases[v.rel]
		h := int(v.hop)
		for i := rel.flow; i >= 0 && remaining > volEps; i = e.hot[i].lineNext {
			oh := e.hot[i].off + v.hop
			a := e.hops[oh].arr
			if a <= 0 || e.flows[i].lastRelease != rel.at {
				continue
			}
			avail := a * float64(e.mCnt[i])
			d := avail
			if d > remaining {
				d = remaining
			}
			if d >= avail {
				e.netDropHit(i, oh, h, j, a, stepEnd)
				remaining -= d
				continue
			}
			remaining -= e.netSplitDrop(i, oh, h, j, d, stepEnd)
		}
	}
}

// wakeDueRef wakes by a linear scan of every wake entry in parking order
// (the heap's entries sorted by sequence), each due one woken in turn and
// the rest kept. It returns the woken records in wake order.
func (e *netEngine) wakeDueRef() []int32 {
	stalled := parkings(e)
	keep := stalled[:0]
	var woken []int32
	for _, st := range stalled {
		if st.at > e.now {
			keep = append(keep, st)
			continue
		}
		i := st.rec
		e.hot[i].stallT = 0
		e.hot[i].parked = false
		if e.hot[i].unsent > volEps || e.residual(i) > volEps {
			e.activate(i)
		}
		woken = append(woken, i)
	}
	e.wakes = append(e.wakes[:0], keep...)
	e.wakes.init()
	return woken
}

// parkings returns the engine's wake entries in parking order.
func parkings(e *netEngine) []stallEntry {
	p := slices.Clone(e.wakes)
	slices.SortFunc(p, func(a, b stallEntry) int { return cmp.Compare(a.seq, b.seq) })
	return p
}

// randomNet builds a random three-stage network of six queues, two per
// stage: one to four path classes, each a stage-monotonic path of one to
// three hops with its own base RTT, and n flows spread over them.
func randomNet(rng *rand.Rand, n int) *netsim.FluidPaths {
	q := netsim.FluidQueue{RateBps: 10 * netsim.Gbps, CapacityPackets: 100, ECNThresholdPackets: 20}
	net := &netsim.FluidPaths{
		Queues: []netsim.FluidQueue{q, q, q, q, q, q},
		Stage:  []int{0, 0, 1, 1, 2, 2},
	}
	for j := range net.Queues {
		net.Queues[j].Name = fmt.Sprintf("q%d", j)
	}
	for c := 1 + rng.Intn(4); c > 0; c-- {
		var path []int32
		for s := 0; s < 3; s++ {
			if (s == 2 && len(path) == 0) || rng.Intn(3) > 0 {
				path = append(path, int32(2*s+rng.Intn(2)))
			}
		}
		net.Paths = append(net.Paths, path)
		net.BaseRTT = append(net.BaseRTT, sim.Time(5+rng.Intn(20))*sim.Microsecond)
	}
	classes := make([]int32, n)
	for i := range classes {
		classes[i] = int32(rng.Intn(len(net.Paths)))
	}
	net.SetClasses(classes)
	last := net.Paths[0]
	net.Bottleneck = int(last[len(last)-1])
	return net
}

// fluidInput decodes fuzz bytes into a small fluid run. The path set has
// six queues, two per stage over three stages, each at 1-10 Gb/s with
// 2-61 packets and K within its capacity; one to four path classes, each
// a stage-monotonic path of one to three hops with a 5-54 us base RTT;
// and 2-61 flows spread over them. The config sends 1-40 segments per
// flow in 1-3 bursts from a 1-10 Gb/s NIC under DCTCP, Reno or Swift, at
// cohort or per-flow aggregation, with Check on. Bytes past the end of
// data read as zero, so every input decodes.
func fluidInput(data []byte) (Config, *netsim.FluidPaths) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	net := &netsim.FluidPaths{Stage: []int{0, 0, 1, 1, 2, 2}}
	for j := 0; j < 6; j++ {
		q := netsim.FluidQueue{Name: fmt.Sprintf("q%d", j), RateBps: int64(1+next()%10) * netsim.Gbps, CapacityPackets: 2 + next()%60}
		q.ECNThresholdPackets = 1 + next()%q.CapacityPackets
		net.Queues = append(net.Queues, q)
	}
	for c := 1 + next()%4; c > 0; c-- {
		var path []int32
		for s := 0; s < 3; s++ {
			// Bit 0 skips the stage (the last is never skipped on an empty
			// path), bit 1 picks the stage's queue.
			if b := next(); b&1 == 0 || (s == 2 && len(path) == 0) {
				path = append(path, int32(2*s+b>>1&1))
			}
		}
		net.Paths = append(net.Paths, path)
		net.BaseRTT = append(net.BaseRTT, sim.Time(5+next()%50)*sim.Microsecond)
	}
	classes := make([]int32, 2+next()%60)
	for i := range classes {
		classes[i] = int32(next() % len(net.Paths))
	}
	net.SetClasses(classes)
	last := net.Paths[0]
	net.Bottleneck = int(last[len(last)-1])
	cfg := Config{
		SegmentsPerFlow: int64(1 + next()%40),
		Bursts:          1 + next()%3,
		LineRateBps:     int64(1+next()%10) * netsim.Gbps,
		CC:              CCConfig{Kind: Kind(next() % 3)},
		Aggregation:     AggregationPerFlow,
		Check:           true,
	}
	if next()&1 == 1 {
		cfg.Aggregation = AggregationCohort
	}
	return cfg, net
}

// fluidRepro is fluidInput's bytes for 49 Reno flows sending one
// 26-segment burst from 1 Gb/s NICs through three 1 Gb/s hops, the last
// holding 4 packets with K=1, at cohort aggregation: the shape of
// TestNetworkParkedCohortSplitCompletes, whose parked cohorts' split
// children stranded volume until they woke on their own.
func fluidRepro() []byte {
	b := []byte{
		0, 59, 60, // q0: 1 Gb/s, 61 packets, K 61
		0, 0, 0, // q1
		0, 59, 60, // q2: as q0
		0, 0, 0, // q3
		0, 2, 0, // q4: 1 Gb/s, 4 packets, K 1
		0, 0, 0, // q5
		0,       // one path class
		0, 0, 0, // through q0, q2 and q4
		25, // 30 us base RTT
		47, // 49 flows
	}
	b = append(b, make([]byte, 49)...) // all in class 0
	// 26 segments, one burst, 1 Gb/s NICs, Reno, cohorts.
	return append(b, 25, 0, 0, 1, 1)
}

// FuzzFluidRun runs generated small path sets and configs (fluidInput)
// through Run with Check on: every run must complete without error, and a
// run never ends with more records than flows.
func FuzzFluidRun(f *testing.F) {
	f.Add(fluidRepro())
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, net := fluidInput(data)
		res, err := Run(cfg, net)
		if err != nil {
			t.Fatalf("%s run of %d flows: %v", cfg.Aggregation, net.Flows(), err)
		}
		if res.Cohorts > net.Flows() {
			t.Fatalf("%d records for %d flows", res.Cohorts, net.Flows())
		}
	})
}

// oracleEngine builds a three-burst cohort engine over randomNet(seed),
// with one to six jitter buckets per class (one member per record when a
// class is that small). With everyVictimParks, every RTO lasts a
// nanosecond and fast retransmit never triggers, so each drop victim
// parks afresh and the parking sequence records the victim order.
func oracleEngine(t *testing.T, seed int64, everyVictimParks bool) *netEngine {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 6 + rng.Intn(30)
	cfg, net := quickConfig(n, CCConfig{}), randomNet(rng, n)
	cfg.Bursts = 3
	cfg.Interval = 400 * sim.Microsecond
	cfg.Seed = uint64(seed)
	cfg.Aggregation = AggregationCohort
	cfg.cohortBuckets = 1 + rng.Intn(6)
	if everyVictimParks {
		cfg.MinRTO, cfg.maxRTO, cfg.dupAckPackets = 1, 1, 1e9
	} else {
		cfg.MinRTO, cfg.maxRTO = 30*sim.Microsecond, 500*sim.Microsecond
	}
	if err := cfg.fill(net); err != nil {
		t.Fatalf("seed %d: fill: %v", seed, err)
	}
	plan, err := buildPlan(&cfg, net)
	if err != nil {
		t.Fatalf("seed %d: buildPlan: %v", seed, err)
	}
	e, err := newNetEngine(cfg, net, plan)
	if err != nil {
		t.Fatalf("seed %d: newNetEngine: %v", seed, err)
	}
	t.Cleanup(e.release)
	return e
}

// sameEngineState fails the test unless a and b hold the same records,
// hops, lists, wake entries, counters and per-release live counts.
func sameEngineState(t *testing.T, where string, a, b *netEngine) {
	t.Helper()
	bits := func(e *netEngine) []uint64 {
		var v []uint64
		for _, f := range []float64{e.drops, e.retxPkts, e.sent, e.timeouts, e.fastRetx} {
			v = append(v, math.Float64bits(f))
		}
		return v
	}
	var diff string
	switch {
	case !slices.Equal(a.mOff, b.mOff) || !slices.Equal(a.mCnt, b.mCnt):
		diff = "member spans"
	case !slices.Equal(a.hot, b.hot):
		diff = "hot records"
	case !slices.Equal(a.flows, b.flows):
		diff = "flow states"
	case !slices.Equal(a.hops, b.hops):
		diff = "hop states"
	case !slices.Equal(a.qs, b.qs):
		diff = "queues"
	case !slices.Equal(a.activeList, b.activeList):
		diff = "active lists"
	case !slices.Equal(parkings(a), parkings(b)):
		diff = "wake entries in parking order"
	case !slices.Equal(bits(a), bits(b)):
		diff = "drop, retransmit, sent or loss counters"
	case !slices.Equal(a.relLive, b.relLive):
		diff = "live counts"
	default:
		return
	}
	t.Fatalf("%s: %s differ", where, diff)
}

// TestDropTailAndWakesMatchReferences holds the live-release filter and
// the wake heap to plain linear walks. Twin engines over a random
// small network (varied paths, cohort sizes and base RTTs) see the same
// releases, offers at random hops, overflows at random queues, parks,
// retirements and wakes; one drops and wakes through the engine, the
// other through dropTailQueueRef and wakeDueRef. After every operation
// the two must hold the same state: the same victims with bit-identical
// drop amounts and counters, and the same parkings in the same order —
// with everyVictimParks, that order is the victim order. Each wake must
// wake the same records in the same order, and the engine's indexes must
// pass checkIndexes throughout.
func TestDropTailAndWakesMatchReferences(t *testing.T) {
	var rearmed, skipped bool
	for seed := int64(1); seed <= 60; seed++ {
		everyVictimParks := seed%2 == 0
		a := oracleEngine(t, seed, everyVictimParks)
		b := oracleEngine(t, seed, everyVictimParks)
		rng := rand.New(rand.NewSource(-seed))
		check := func(what string, round int) {
			t.Helper()
			where := fmt.Sprintf("seed %d round %d, after %s", seed, round, what)
			sameEngineState(t, where, a, b)
			if err := a.checkIndexes(); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
		}
		for round := 0; round < 80; round++ {
			a.now += sim.Time(11+rng.Intn(40)) * sim.Microsecond
			b.now = a.now
			a.releaseDue()
			b.releaseDue()
			parked := len(a.wakes)
			a.wakeDue()
			woken := b.wakeDueRef()
			// wakeDue leaves the entries it woke behind the heap, in wake order.
			if got := a.wakes[len(a.wakes):parked]; !slices.EqualFunc(got, woken, func(st stallEntry, i int32) bool { return st.rec == i }) {
				t.Fatalf("seed %d round %d: woke %v, the linear scan wakes %v", seed, round, got, woken)
			}
			check("wakes", round)

			for _, i := range a.activeList {
				if rng.Intn(3) == 0 {
					continue
				}
				h := rng.Intn(len(a.paths[i]))
				amt := float64(1+rng.Intn(16)) / 8
				a.offer(i, h, amt)
				b.offer(i, h, amt)
				if !everyVictimParks && rng.Intn(2) == 0 {
					// In-network backlog lets some victims fast-retransmit.
					k := rng.Intn(len(a.paths[i]))
					bk := float64(rng.Intn(6))
					a.hop(i, k).bk, b.hop(i, k).bk = bk, bk
				}
			}
			stepEnd := a.now + 10*sim.Microsecond
			drops := 2
			if everyVictimParks {
				drops = 1 // a second drop could hit a victim the first parked
			}
			for d := 0; d < drops; d++ {
				j := int32(rng.Intn(len(a.qs)))
				arr := a.qs[j].arrTotal
				if arr <= 0 {
					continue
				}
				for _, v := range a.vic[a.vicOff[j]:a.vicOff[j+1]] {
					if int(v.rel) < a.relPtr && a.relLive[v.rel] == 0 {
						skipped = true
					}
				}
				overflow := arr * 1.1 * rng.Float64()
				a.dropTailQueue(j, overflow, stepEnd)
				b.dropTailQueueRef(j, overflow, stepEnd)
				check(fmt.Sprintf("dropping %.3f at queue %d", overflow, j), round)
				seen := map[int32]bool{}
				for _, st := range a.wakes {
					rearmed = rearmed || seen[st.rec]
					seen[st.rec] = true
				}
			}

			// The step ends: arrivals are spent, and some records retire.
			for _, e := range []*netEngine{a, b} {
				for k := range e.hops {
					e.hops[k].arr, e.hops[k].arrMk = 0, 0
				}
				for j := range e.qs {
					e.qs[j].arrTotal = 0
				}
			}
			// The active lists are equal (checked above).
			keepA, keepB := a.activeList[:0], b.activeList[:0]
			for _, i := range a.activeList {
				if rng.Intn(4) == 0 {
					a.retire(i)
					b.retire(i)
					continue
				}
				keepA = append(keepA, i)
				keepB = append(keepB, i)
			}
			a.activeList, b.activeList = keepA, keepB
			check("retirements", round)
		}
	}
	if !skipped {
		t.Error("no drop walked past a release with no live record; the filter went unexercised")
	}
	if !rearmed {
		t.Error("no parked record was re-armed; the wake heap's re-arm path went unexercised")
	}
}

// TestCheckIndexesCatchesDrift pins that the audit-mode index check sees
// each kind of drift: a live count off by one, an inactive record holding
// arrivals, a parked record without its wake entry, and an entry whose
// deadline disagrees with its record's.
func TestCheckIndexesCatchesDrift(t *testing.T) {
	fresh := func() *netEngine {
		e := victimEngine(t, []int32{1, 1, 2}, singletonPlan([]int32{0, 0, 1}), []int32{0, 1})
		e.now = 25 * sim.Microsecond
		e.releaseDue()
		e.offer(0, 1, 1)
		e.dropTailQueue(1, 1, e.now+2*sim.Microsecond) // parks flow 0
		if err := e.checkIndexes(); err != nil {
			t.Fatalf("consistent engine: %v", err)
		}
		return e
	}
	for _, tc := range []struct {
		drift   string
		corrupt func(e *netEngine)
		want    string
	}{
		{"live count", func(e *netEngine) { e.relLive[0]++ }, "live records"},
		{"inactive arrivals", func(e *netEngine) { e.offer(2, 0, 1) }, "inactive record 2"},
		{"missing wake", func(e *netEngine) { e.wakes = e.wakes[:0] }, "no wake entry"},
		{"wrong deadline", func(e *netEngine) { e.wakes[0].at++ }, "wake entry for record 0"},
	} {
		e := fresh()
		tc.corrupt(e)
		if err := e.checkIndexes(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: checkIndexes says %v, want an error naming %q", tc.drift, err, tc.want)
		}
	}
}
