package core

import (
	"fmt"
	"math"
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
		if pm, fm := mode(packet), mode(flow); pm != fm {
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

// TestFlowObsKeySetParity pins the harvest contract: a flow-level run
// publishes exactly the same metric identities as a packet-level run of
// the same config — counters with no fluid counterpart appear as explicit
// zeros rather than going absent, so dashboards never see a sparse key
// set.
func TestFlowObsKeySetParity(t *testing.T) {
	snapshot := func(fidelity string) *obs.Snapshot {
		reg := obs.NewRegistry()
		RunIncastSim(SimConfig{
			Flows: 60, BurstDuration: sim.Millisecond, Bursts: 3,
			Interval: 5 * sim.Millisecond,
			Metrics:  reg, Experiment: "parity", Fidelity: fidelity,
		})
		return reg.Snapshot()
	}
	identities := func(s *obs.Snapshot) []string {
		var ids []string
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
	packet := identities(snapshot(FidelityPacket))
	flow := identities(snapshot(FidelityFlow))
	if len(packet) == 0 {
		t.Fatal("packet snapshot is empty")
	}
	pset := make(map[string]bool, len(packet))
	for _, id := range packet {
		pset[id] = true
	}
	fset := make(map[string]bool, len(flow))
	for _, id := range flow {
		fset[id] = true
	}
	for _, id := range packet {
		if !fset[id] {
			t.Errorf("flow snapshot is missing %s", id)
		}
	}
	for _, id := range flow {
		if !pset[id] {
			t.Errorf("flow snapshot has extra %s", id)
		}
	}
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
// aggregation knob, and pins the scenario package's mirror of the limit.
func TestFlowCompatiblePerFlowLimit(t *testing.T) {
	if scenario.MaxPerFlowFlows != flowsim.MaxPerFlowFlows {
		t.Fatalf("scenario.MaxPerFlowFlows = %d, flowsim.MaxPerFlowFlows = %d", scenario.MaxPerFlowFlows, flowsim.MaxPerFlowFlows)
	}
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

	plain := o.instrument("t", SimConfig{Flows: 10})
	if plain.Fidelity != FidelityFlow {
		t.Errorf("compatible config not lowered: fidelity %q", plain.Fidelity)
	}
	ictcp := o.instrument("t", SimConfig{Flows: 10, EnableICTCP: true})
	if ictcp.Fidelity != "" {
		t.Errorf("ICTCP config lowered to %q; must keep the packet backend", ictcp.Fidelity)
	}
	explicit := o.instrument("t", SimConfig{Flows: 10, Fidelity: FidelityPacket})
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
