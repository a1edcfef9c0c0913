package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"incastlab/internal/cc"
	"incastlab/internal/flowsim"
	"incastlab/internal/netsim"
	"incastlab/internal/obs"
	"incastlab/internal/scenario"
	"incastlab/internal/sim"
	"incastlab/internal/tcp"
	"incastlab/internal/workload"
)

// TestFlowDispatchMatchesPacketModes is the seeded cross-backend
// regression gate at the core layer: the same SimConfig run at both
// fidelities must classify into the same paper mode at every quick Fig-5
// operating point, with burst completion times inside the differential
// tolerance contract (see DESIGN.md and internal/audit).
func TestFlowDispatchMatchesPacketModes(t *testing.T) {
	for _, n := range []int{80, 500, 1400} {
		base := SimConfig{Flows: n, Bursts: 4, Audit: true}
		packet := RunIncastSim(base)
		flowCfg := base
		flowCfg.Fidelity = FidelityFlow
		flow := RunIncastSim(flowCfg)

		if packet.Fidelity != FidelityPacket || flow.Fidelity != FidelityFlow {
			t.Fatalf("n=%d: fidelity stamps %q / %q", n, packet.Fidelity, flow.Fidelity)
		}
		if pm, fm := packet.Mode(), flow.Mode(); pm != fm {
			t.Errorf("n=%d: packet mode %q, flow mode %q", n, pm, fm)
		}
		if flow.AlgName != packet.AlgName {
			t.Errorf("n=%d: alg name %q vs %q", n, flow.AlgName, packet.AlgName)
		}
		pBCT, fBCT := float64(packet.MeanBCT), float64(flow.MeanBCT)
		if rel := math.Abs(fBCT-pBCT) / pBCT; rel > 0.35 {
			t.Errorf("n=%d: mean BCT diverges %.1f%%: packet %v, flow %v",
				n, 100*rel, packet.MeanBCT, flow.MeanBCT)
		}
	}
}

// TestShortSampleWindowTakesOneSample: a sample window shorter than the
// sample interval still takes one sample per measured burst, at both
// fidelities, so AvgQueue (which fig5's queue plot indexes) is never empty.
func TestShortSampleWindowTakesOneSample(t *testing.T) {
	for _, fidelity := range []string{FidelityPacket, FidelityFlow} {
		res := RunIncastSim(SimConfig{Flows: 20, Bursts: 2, Fidelity: fidelity,
			SampleInterval: sim.Millisecond, SampleWindow: 500 * sim.Microsecond})
		if n := len(res.AvgQueue.Values); n != 1 {
			t.Errorf("%s: %d samples per burst, want 1", fidelity, n)
		}
	}
}

// TestFlowObsKeySetParity pins the harvest contract: a flow-level run
// publishes the same metric identities as a packet-level run of the same
// config once the families backendFamilies declares for one backend are
// set aside — on the dumbbell, less the packet side's uplink port, which
// the fluid dumbbell does not model — and each side publishes every family
// declared for it and none declared for the other. On a Clos both sides
// name the bottleneck and every spine's port into the aggregator's rack,
// idle or not.
func TestFlowObsKeySetParity(t *testing.T) {
	clos := netsim.DefaultClosConfig(4, 40)
	cases := []struct {
		name string
		cfg  SimConfig
		// uplink is the number of packet-only shared identities, all on
		// the uplink port.
		uplink int
	}{
		{"dumbbell", SimConfig{Flows: 60}, 10},
		{"clos cross-rack", SimConfig{Flows: 60, Clos: &clos, Placement: workload.PlacementCrossRack}, 0},
		{"clos same-rack", SimConfig{Flows: 30, Clos: &clos, Placement: workload.PlacementSameRack}, 0},
		{"clos 2 aggregators", SimConfig{Flows: 30, Clos: &clos, Aggregators: 2}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// ids maps each side's shared identities, and families its
			// backend-specific family names.
			ids := map[string]map[string]bool{}
			families := map[string]map[string]bool{}
			for _, fidelity := range []string{FidelityPacket, FidelityFlow} {
				cfg := tc.cfg
				cfg.BurstDuration, cfg.Bursts, cfg.Interval = sim.Millisecond, 3, 5*sim.Millisecond
				cfg.Metrics, cfg.Experiment, cfg.Fidelity = obs.NewRegistry(), "parity", fidelity
				RunIncastSim(cfg)
				ids[fidelity], families[fidelity] = map[string]bool{}, map[string]bool{}
				for _, id := range metricIdentities(cfg.Metrics.Snapshot()) {
					name := strings.SplitN(strings.SplitN(id, ":", 2)[1], ",", 2)[0]
					if backendFamilies[name] != "" {
						families[fidelity][name] = true
					} else {
						ids[fidelity][id] = true
					}
				}
			}
			var packetOnly int
			for id := range ids[FidelityPacket] {
				if ids[FidelityFlow][id] {
					continue
				}
				packetOnly++
				if !strings.HasSuffix(id, ",port=uplink") {
					t.Errorf("flow snapshot is missing %s", id)
				}
			}
			if packetOnly != tc.uplink {
				t.Errorf("packet snapshot has %d identities the flow one lacks, want %d uplink ones", packetOnly, tc.uplink)
			}
			for id := range ids[FidelityFlow] {
				if !ids[FidelityPacket][id] {
					t.Errorf("flow snapshot has extra %s", id)
				}
			}
			for name, backend := range backendFamilies {
				for _, fidelity := range []string{FidelityPacket, FidelityFlow} {
					if got, want := families[fidelity][name], backend == fidelity; got != want {
						t.Errorf("%s snapshot publishes %s: %t, want %t (declared %s-only)", fidelity, name, got, want, backend)
					}
				}
			}
		})
	}
}

// metricIdentities lists a snapshot's metric identities, kind:name then
// its labels sorted by key, in sorted order.
func metricIdentities(s *obs.Snapshot) []string {
	label := func(labels map[string]string) string {
		keys := make([]string, 0, len(labels))
		for k := range labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, ",%s=%s", k, labels[k])
		}
		return b.String()
	}
	var ids []string
	for _, c := range s.Counters {
		ids = append(ids, "counter:"+c.Name+label(c.Labels))
	}
	for _, g := range s.Gauges {
		ids = append(ids, "gauge:"+g.Name+label(g.Labels))
	}
	for _, h := range s.Histograms {
		ids = append(ids, "histogram:"+h.Name+label(h.Labels))
	}
	sort.Strings(ids)
	return ids
}

// ccUnmappable is a congestion control with no flow-level reduced form.
type ccUnmappable struct{ *cc.Reno }

func (ccUnmappable) Name() string { return "unmappable" }

func TestFlowCompatible(t *testing.T) {
	if err := (SimConfig{Flows: 10}).FlowCompatible(); err != nil {
		t.Errorf("default config should be flow-compatible: %v", err)
	}
	cases := []struct {
		name string
		cfg  SimConfig
	}{
		{"ictcp", SimConfig{Flows: 10, EnableICTCP: true}},
		{"in-flight tracking", SimConfig{Flows: 10, TrackInFlight: true}},
		{"delayed acks", SimConfig{Flows: 10, Receiver: tcp.ReceiverConfig{DelayedAcks: true}}},
		{"idle restart", SimConfig{Flows: 10, Sender: tcp.SenderConfig{RestartAfterIdle: true}}},
		{"unmappable cc", SimConfig{Flows: 10, Alg: func(int) cc.Algorithm {
			return ccUnmappable{cc.NewReno(14600)}
		}}},
	}
	for _, tc := range cases {
		err := tc.cfg.FlowCompatible()
		if err == nil {
			t.Errorf("%s: config accepted as flow-compatible", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), "packet") && !strings.Contains(err.Error(), "reduced form") {
			t.Errorf("%s: error does not point at the packet backend: %v", tc.name, err)
		}
	}
}

// TestFlowJitterReachingInterval pins that a run whose start jitter — here
// the 100 us default — reaches its burst interval is not flow-compatible:
// the fluid release schedule cannot hold it. FlowCompatible names the
// rule, a flow-level scenario row is refused at compile time, and the
// best-effort lowering of figures -fidelity flow keeps the run on the
// packet backend, which runs it.
func TestFlowJitterReachingInterval(t *testing.T) {
	cfg := SimConfig{Flows: 80, Bursts: 2, Interval: 50 * sim.Microsecond}
	if err := cfg.FlowCompatible(); err == nil || !strings.Contains(err.Error(), "jitter") {
		t.Errorf("FlowCompatible = %v, want an error naming the jitter", err)
	}
	spec := scenario.Spec{
		Name:     "flow_jitter",
		Workload: scenario.Workload{Flows: 80, Bursts: 2, IntervalMS: 0.05},
		Sweep:    scenario.Sweep{Axis: "ecn_threshold_pkts", Values: scenario.Nums(65)},
		Fidelity: "flow",
	}
	if _, _, _, err := CompileScenario(Options{}, spec); err == nil || !strings.Contains(err.Error(), "row 0") {
		t.Errorf("flow-level spec with jitter past its interval: compile error %v, want one naming row 0", err)
	}
	// Lowered to the fluid backend, this run would panic.
	Options{Fidelity: FidelityFlow}.stamp("t", &cfg)
	res := RunIncastSim(cfg)
	if res.Fidelity != FidelityPacket || res.MeanBCT <= 0 {
		t.Errorf("kept run: fidelity %q, mean BCT %v; want a completed packet run", res.Fidelity, res.MeanBCT)
	}
}

// TestScenarioFlowRejectsCoreLink pins that a flow-level scenario cannot
// set the dumbbell's core link rate: the fluid dumbbell models only the
// bottleneck queue, so the override would be silently ignored. Compile
// must fail naming the field and the row.
func TestScenarioFlowRejectsCoreLink(t *testing.T) {
	spec := scenario.Spec{
		Name:     "flow_core_link",
		Workload: scenario.Workload{Flows: 50},
		Topology: &scenario.Topology{CoreLinkGbps: 40},
		Sweep:    scenario.Sweep{Axis: "ecn_threshold_pkts", Values: scenario.Nums(65)},
		Fidelity: "flow",
	}
	_, _, _, err := CompileScenario(Options{}, spec)
	if err == nil {
		t.Fatal("flow-level spec with topology.core_link_gbps compiled")
	}
	for _, want := range []string{"core_link_gbps", "row 0"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("compile error %q does not name %q", err, want)
		}
	}
	spec.Fidelity = "packet"
	if _, _, _, err := CompileScenario(Options{}, spec); err != nil {
		t.Errorf("packet-level spec with topology.core_link_gbps rejected: %v", err)
	}
	spec.Fidelity = "flow"
	spec.Topology.CoreLinkGbps = 100
	if _, _, _, err := CompileScenario(Options{}, spec); err != nil {
		t.Errorf("flow-level spec with the default core link rate rejected: %v", err)
	}
}

// TestFlowCompatiblePerFlowLimit pins the up-front rejection of per-flow
// runs past the fluid backend's record limit — counted over every
// aggregator's workers on a Clos fabric — with an error naming the
// aggregation knob.
func TestFlowCompatiblePerFlowLimit(t *testing.T) {
	clos := netsim.DefaultClosConfig(16, 65560)
	cases := []struct {
		name string
		cfg  SimConfig
		ok   bool
	}{
		{"dumbbell at the limit", SimConfig{Flows: flowsim.MaxPerFlowFlows, Aggregation: AggregationPerFlow}, true},
		{"dumbbell past the limit", SimConfig{Flows: flowsim.MaxPerFlowFlows + 1, Aggregation: AggregationPerFlow}, false},
		{"dumbbell past the limit, cohort", SimConfig{Flows: flowsim.MaxPerFlowFlows + 1, Aggregation: AggregationCohort}, true},
		{"clos 16 x 65536", SimConfig{Flows: 65536, Aggregators: 16, Clos: &clos,
			Placement: workload.PlacementCrossRack, Aggregation: AggregationPerFlow}, false},
		{"clos 16 x 65536, auto", SimConfig{Flows: 65536, Aggregators: 16, Clos: &clos,
			Placement: workload.PlacementCrossRack}, true},
	}
	for _, tc := range cases {
		err := tc.cfg.FlowCompatible()
		if tc.ok && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "aggregation")) {
			t.Errorf("%s: want an error naming the aggregation, got %v", tc.name, err)
		}
	}
}

// TestFlowCompatibleClosPlacement pins that counting Clos flows without
// building their endpoints keeps every placement error, word for word
// the one ClosFlowEndpoints returns for the same row.
func TestFlowCompatibleClosPlacement(t *testing.T) {
	clos := netsim.DefaultClosConfig(4, 8)
	cases := []struct {
		name, want string
		cfg        SimConfig
	}{
		{"full rack", "rack 1 full placing worker 21 of aggregator 0",
			SimConfig{Flows: 22, Aggregators: 2, Clos: &clos, Placement: workload.PlacementCrossRack}},
		{"full rack, same-rack", "rack 0 full placing worker 7 of aggregator 0",
			SimConfig{Flows: 8, Aggregators: 2, Clos: &clos, Placement: workload.PlacementSameRack}},
		{"too many aggregators", "5 aggregators exceed the 4 racks",
			SimConfig{Flows: 4, Aggregators: 5, Clos: &clos, Placement: workload.PlacementCrossRack}},
		{"unknown placement", "unknown placement",
			SimConfig{Flows: 4, Aggregators: 2, Clos: &clos, Placement: "same-row"}},
	}
	for _, tc := range cases {
		err := tc.cfg.FlowCompatible()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: FlowCompatible = %v, want an error containing %q", tc.name, err, tc.want)
			continue
		}
		if _, _, epErr := workload.ClosFlowEndpoints(clos, tc.cfg.Flows, tc.cfg.Aggregators, tc.cfg.Placement); epErr == nil || epErr.Error() != err.Error() {
			t.Errorf("%s: FlowCompatible says %q but ClosFlowEndpoints says %v", tc.name, err, epErr)
		}
	}
	ok := SimConfig{Flows: 6, Aggregators: 2, Clos: &clos, Placement: workload.PlacementCrossRack}
	if err := ok.FlowCompatible(); err != nil {
		t.Errorf("2 x 6 cross-rack workers on 4 racks x 8 hosts rejected: %v", err)
	}
}

// TestClosGridElevenBursts pins the rows of clos_million_flow_grid.json
// that lost their last burst with "bursts": 11: the 100-flow rows at 1, 2
// and 3 aggregators drain completely, but their delivered totals end a
// few 1e-6 packets short of the target through rounding. A drained
// network completes its bursts, so each row finishes with the same mean
// BCT as its neighbours.
func TestClosGridElevenBursts(t *testing.T) {
	spec, err := scenario.Load("../../examples/scenarios/clos_million_flow_grid.json")
	if err != nil {
		t.Fatal(err)
	}
	spec.Workload.Bursts = 11
	_, _, cfgs, err := CompileScenario(Options{Seed: 1}, spec)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]sim.Time{1: 15833 * sim.Microsecond, 2: 15845 * sim.Microsecond, 3: 15846 * sim.Microsecond}
	for _, cfg := range cfgs {
		bct, ok := want[cfg.Aggregators]
		if cfg.Flows != 100 || !ok {
			continue
		}
		delete(want, cfg.Aggregators)
		t.Run(fmt.Sprintf("aggregators=%d", cfg.Aggregators), func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("run failed: %v", r)
				}
			}()
			if cfg.Bursts != 11 {
				t.Fatalf("row runs %d bursts, want 11", cfg.Bursts)
			}
			res := RunIncastSim(cfg)
			if d := res.MeanBCT - bct; d < -sim.Microsecond || d > sim.Microsecond {
				t.Errorf("mean BCT %v, want %v", res.MeanBCT, bct)
			}
			if res.Timeouts != 0 || res.Drops != 0 {
				t.Errorf("timeouts %d, drops %d; want none", res.Timeouts, res.Drops)
			}
		})
	}
	if len(want) != 0 {
		t.Errorf("grid has no 100-flow rows at aggregators %v", want)
	}
}

// strandSpec is a 2-rack Clos sweep of small Reno incasts into 4-packet
// queues at fidelity flow with cohort records: cohorts parked on an RTO
// keep draining through the fabric and take partial drops there, so their
// split children park too, and each must wake on its own to send what the
// drops returned.
const strandSpec = `{"name":"strand","topology":{"host_link_gbps":1,"queue_packets":4,"ecn_threshold_pkts":1,` +
	`"clos":{"racks":2,"hosts_per_rack":256,"spine_link_gbps":1}},"cc":{"algorithm":"reno"},` +
	`"fidelity":"flow","aggregation":"cohort","sweep":{"axis":"flows","values":` +
	`[10,20,30,40,50,60,70,80,90,100,110,120,130,140,150,160,170,180,190,200,210,220,230,240]}}`

// TestClosSplitChildrenWake runs strandSpec at quick: every row completes.
// On the 180-flow row a parked cohort's split child holds unsent volume
// that only its own wake sends.
func TestClosSplitChildrenWake(t *testing.T) {
	spec, err := scenario.Parse([]byte(strandSpec))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("sweep failed: %v", r)
		}
	}()
	res, err := RunScenario(Options{Seed: 1, Quick: true, Workers: 1}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rows := len(res.Table().Rows); rows != 24 {
		t.Errorf("%d rows, want 24", rows)
	}
}

func TestUnknownFidelityPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("unknown fidelity did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "fidelity") {
			t.Fatalf("panic does not name the fidelity: %v", r)
		}
	}()
	RunIncastSim(SimConfig{Flows: 10, Fidelity: "warp"})
}

// TestFlowAggregationNotificationRejected pins that cohort aggregation
// does not widen the fluid backend's feature envelope: a flow-fidelity
// run with switch-side incast notification still fails loudly, naming
// the blocking feature, regardless of the aggregation level.
func TestFlowAggregationNotificationRejected(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("flow fidelity with notification did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "notification") {
			t.Fatalf("panic does not name the blocking feature: %v", r)
		}
	}()
	RunIncastSim(SimConfig{
		Flows:        10,
		Fidelity:     FidelityFlow,
		Aggregation:  AggregationCohort,
		Notification: &NotificationConfig{},
	})
}

// TestPacketAggregationPanics: the aggregation knob shapes the fluid
// backend's flow population; requesting it on a packet-level run is a
// contradiction that must fail loudly, not be ignored.
func TestPacketAggregationPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("packet fidelity with aggregation did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "aggregation") {
			t.Fatalf("panic does not name the knob: %v", r)
		}
	}()
	RunIncastSim(SimConfig{Flows: 10, Aggregation: AggregationCohort})
}

// TestOptionsFidelityBestEffort pins the Options-level knob: compatible
// runs are lowered to the fluid backend, packet-only runs keep the packet
// backend silently, and explicit per-config choices are never overridden.
func TestOptionsFidelityBestEffort(t *testing.T) {
	o := Options{Fidelity: FidelityFlow}

	plain := SimConfig{Flows: 10}
	o.stamp("t", &plain)
	if plain.Fidelity != FidelityFlow {
		t.Errorf("compatible config not lowered: fidelity %q", plain.Fidelity)
	}
	ictcp := SimConfig{Flows: 10, EnableICTCP: true}
	o.stamp("t", &ictcp)
	if ictcp.Fidelity != "" {
		t.Errorf("ICTCP config lowered to %q; must keep the packet backend", ictcp.Fidelity)
	}
	unmarked := SimConfig{Flows: 10, Net: netsim.DefaultDumbbellConfig()}
	unmarked.Net.ECNThresholdPackets = 0
	o.stamp("t", &unmarked)
	if unmarked.Fidelity != "" {
		t.Errorf("config without an ECN threshold lowered to %q; must keep the packet backend", unmarked.Fidelity)
	}
	explicit := SimConfig{Flows: 10, Fidelity: FidelityPacket}
	o.stamp("t", &explicit)
	if explicit.Fidelity != FidelityPacket {
		t.Errorf("explicit packet request overridden to %q", explicit.Fidelity)
	}
	if err := (Options{Fidelity: "warp"}).Validate(); err == nil {
		t.Error("Options.Validate accepted unknown fidelity")
	}
}

// TestScenarioFlowFidelity pins compile-time behavior of the spec-level
// knob: rows inherit the fidelity, and an explicitly flow-level spec that
// needs packet-only machinery fails at compile time, naming the feature.
func TestScenarioFlowFidelity(t *testing.T) {
	spec := scenario.Spec{
		Name:     "flow_fid_test",
		Workload: scenario.Workload{Flows: 50},
		Sweep:    scenario.Sweep{Axis: "ecn_threshold_pkts", Values: scenario.Nums(20, 65)},
		Fidelity: "flow",
	}
	_, _, cfgs, err := CompileScenario(Options{}, spec)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for i, cfg := range cfgs {
		if cfg.Fidelity != FidelityFlow {
			t.Errorf("row %d fidelity %q, want flow", i, cfg.Fidelity)
		}
	}

	bad := spec
	bad.Transport = &scenario.Transport{ICTCP: true}
	if _, _, _, err := CompileScenario(Options{}, bad); err == nil {
		t.Error("flow-level spec with ICTCP compiled")
	} else if !strings.Contains(err.Error(), "ICTCP") {
		t.Errorf("compile error does not name the blocking feature: %v", err)
	}

	unknown := spec
	unknown.Fidelity = "warp"
	if _, _, _, err := CompileScenario(Options{}, unknown); err == nil {
		t.Error("unknown fidelity compiled")
	}
}

// TestFlowEndStateHistograms gates keeping the fluid end state per record:
// on a cohort-aggregated Clos row, the cc_final_cwnd_bytes and
// cc_final_alpha histograms the harvest publishes must equal those of the
// per-flow expansion the harvest used to read from flowsim — each member's
// window and alpha written at its flow ID, read from the on-demand member
// list, then observed in flow-ID order — bucket for bucket, with
// bit-identical sums.
func TestFlowEndStateHistograms(t *testing.T) {
	clos := netsim.DefaultClosConfig(8, 600)
	cfg := SimConfig{
		Flows: 4200, Aggregators: 1, Clos: &clos, Placement: workload.PlacementCrossRack,
		Bursts: 3, Fidelity: FidelityFlow, Aggregation: AggregationCohort,
	}
	cfg.fill()
	fres, err := runFluid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	end := fres.Final
	members, err := end.Members()
	if err != nil {
		t.Fatal(err)
	}
	if fres.Cohorts >= len(members) || fres.CohortSplits == 0 || end.Alpha == nil {
		t.Fatalf("want a split cohort DCTCP run: %d records for %d flows, %d splits, alphas %t",
			fres.Cohorts, len(members), fres.CohortSplits, end.Alpha != nil)
	}
	win := make([]float64, len(members))
	alpha := make([]float64, len(members))
	for r := range end.Win {
		for _, m := range members[end.Off[r] : end.Off[r]+end.Cnt[r]] {
			win[m] = end.Win[r]
			alpha[m] = end.Alpha[r]
		}
	}
	want := obs.NewRegistry()
	c := want.Collector()
	cwnd := c.Histogram("cc_final_cwnd_bytes", cwndBuckets)
	for _, w := range win {
		cwnd.Observe(w * float64(netsim.MSS))
	}
	alphas := c.Histogram("cc_final_alpha", alphaBuckets)
	for _, a := range alpha {
		alphas.Observe(a)
	}
	c.Close()

	cfg.Metrics = obs.NewRegistry()
	RunIncastSim(cfg)
	got := map[string]obs.HistogramValue{}
	for _, h := range cfg.Metrics.Snapshot().Histograms {
		got[h.Name] = h
	}
	for _, w := range want.Snapshot().Histograms {
		g, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: not published", w.Name)
		case g.Count != w.Count || !slices.Equal(g.Counts, w.Counts):
			t.Errorf("%s: %d observations in buckets %v, want %d in %v", w.Name, g.Count, g.Counts, w.Count, w.Counts)
		case math.Float64bits(g.Sum) != math.Float64bits(w.Sum):
			t.Errorf("%s: sum %v, want %v", w.Name, g.Sum, w.Sum)
		}
	}
}

// TestFluidRunMemoryFollowsRecords pins that a fluid run's allocation
// follows its records and path classes, not its flows. One cohort Clos
// configuration whose queues never overflow (so no record ever splits)
// runs at N and at 8N workers per aggregator: the same classes, the same
// records. Each run starts from a cold scratch pool (two collections
// empty it), and both are large enough to fill whole endpoint chunks, so
// the two allocate the same bytes up to noise, far less apart than the
// ~24 B per added flow that endpoint lists, a per-flow class array and a
// member permutation would cost.
func TestFluidRunMemoryFollowsRecords(t *testing.T) {
	clos := netsim.DefaultClosConfig(4, 16400)
	clos.QueueCapacityPackets = 1 << 20 // nothing drops, so nothing splits
	const aggs, n = 2, 2048
	run := func(workers int) (uint64, *flowsim.Result) {
		cfg := SimConfig{
			Flows: workers, Aggregators: aggs, Clos: &clos, Placement: workload.PlacementCrossRack,
			Bursts: 2, Fidelity: FidelityFlow, Aggregation: AggregationCohort,
		}
		cfg.fill()
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := runFluid(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc, res
	}
	small, sres := run(n)
	big, bres := run(8 * n)
	if sres.CohortSplits != 0 || bres.CohortSplits != 0 || sres.Cohorts != bres.Cohorts {
		t.Fatalf("want the same unsplit records at both sizes: %d and %d records, %d and %d splits",
			sres.Cohorts, bres.Cohorts, sres.CohortSplits, bres.CohortSplits)
	}
	added := 7 * n * aggs
	diff := int64(big) - int64(small)
	t.Logf("%d records: %d B at %d flows, %d B at %d flows (%+.3f B per added flow)",
		sres.Cohorts, small, n*aggs, big, 8*n*aggs, float64(diff)/float64(added))
	if diff < 0 {
		diff = -diff
	}
	if limit := int64(added); diff > limit {
		t.Errorf("runs of %d and %d flows allocate %d and %d B: %d B apart, above %d B (1 B per added flow)",
			n*aggs, 8*n*aggs, small, big, diff, limit)
	}
}
