package core

import (
	"strings"
	"testing"

	"incastlab/internal/cc"
	"incastlab/internal/netsim"
)

// TestSimConfigValidate runs each rule of SimConfig.Validate at both
// fidelities: the rules every row meets, and at fidelity flow the
// backend's own on top.
func TestSimConfigValidate(t *testing.T) {
	clos := netsim.DefaultClosConfig(4, 16)
	noSpines := clos
	noSpines.Spines = 0
	sharedClos := clos
	sharedClos.SharedBufferBytes = 2_000_000
	slowClos := clos
	slowClos.SpineLinkBps = 0
	shared := netsim.DefaultDumbbellConfig()
	shared.SharedBufferBytes = 2_000_000
	slow := netsim.DefaultDumbbellConfig()
	slow.HostLinkBps = 0
	unmarked := netsim.DefaultDumbbellConfig()
	unmarked.ECNThresholdPackets = 0
	unbounded := netsim.DefaultDumbbellConfig()
	unbounded.QueueCapacityPackets = 0
	unmarkedClos := clos
	unmarkedClos.ECNThresholdPackets = 0
	unboundedClos := clos
	unboundedClos.QueueCapacityPackets = 0
	cases := []struct {
		name         string
		cfg          SimConfig
		packet, flow string // "" accepts; otherwise a substring of the error
	}{
		{"defaults", SimConfig{Flows: 50}, "", ""},
		{"no flows", SimConfig{Flows: 0}, "positive incast degree", "positive incast degree"},
		{"negative flows", SimConfig{Flows: -3}, "positive incast degree", "positive incast degree"},
		{"unknown aggregation", SimConfig{Flows: 50, Aggregation: "bogus"}, `unknown aggregation "bogus"`, `unknown aggregation "bogus"`},
		{"aggregation", SimConfig{Flows: 50, Aggregation: AggregationCohort}, `requires fidelity "flow"`, ""},
		{"contention without a shared buffer", SimConfig{Flows: 50, ExternalBufferBytes: 700_000}, "shared buffer", "shared buffer"},
		{"contention in a shared buffer", SimConfig{Flows: 50, Net: shared, ExternalBufferBytes: 700_000},
			"", "external shared-buffer contention is packet-level only"},
		{"clos contention without a shared buffer", SimConfig{Flows: 8, Clos: &clos, ExternalBufferBytes: 700_000},
			"shared buffer", "shared buffer"},
		{"clos contention in a shared buffer", SimConfig{Flows: 8, Clos: &sharedClos, ExternalBufferBytes: 700_000},
			"", "external shared-buffer contention is packet-level only"},
		{"clos that does not build", SimConfig{Flows: 8, Clos: &noSpines}, "at least 1 spine", "at least 1 spine"},
		{"clos without bandwidth", SimConfig{Flows: 8, Clos: &slowClos},
			"Clos link rates must be positive", "Clos link rates must be positive"},
		{"dumbbell without bandwidth", SimConfig{Flows: 50, Net: slow},
			"dumbbell link rates must be positive", "dumbbell link rates must be positive"},
		// The packet backend reads a zero ECN threshold as no marking and
		// a zero queue bound as unbounded; a fluid queue has neither.
		{"dumbbell without marking", SimConfig{Flows: 50, Net: unmarked}, "", "ECN threshold (ECNThresholdPackets = 0"},
		{"dumbbell without a queue bound", SimConfig{Flows: 50, Net: unbounded}, "", "queue capacity (QueueCapacityPackets = 0"},
		{"clos without marking", SimConfig{Flows: 8, Clos: &unmarkedClos}, "", "ECN threshold (ECNThresholdPackets = 0"},
		{"clos without a queue bound", SimConfig{Flows: 8, Clos: &unboundedClos}, "", "queue capacity (QueueCapacityPackets = 0"},
		// A dumbbell set only in part has no link rates; it is refused,
		// naming where to start, rather than swapped for the defaults.
		{"partly set dumbbell", SimConfig{Flows: 50, Net: netsim.DumbbellConfig{PortConfig: netsim.PortConfig{ECNThresholdPackets: 20}}},
			"start Net from netsim.DefaultDumbbellConfig()", "start Net from netsim.DefaultDumbbellConfig()"},
		// Only a Clos places workers or runs concurrent incasts; a dumbbell
		// row would run one plain incast and ignore both fields.
		{"dumbbell with aggregators", SimConfig{Flows: 20, Aggregators: 4}, "Aggregators (4)", "Aggregators (4)"},
		{"dumbbell with a placement", SimConfig{Flows: 20, Placement: "same-rack"}, `Placement "same-rack"`, `Placement "same-rack"`},
		{"dumbbell with one aggregator", SimConfig{Flows: 20, Aggregators: 1}, "", ""},
		{"clos at capacity", SimConfig{Flows: 48, Clos: &clos}, "", ""},
		{"cross-rack overflow", SimConfig{Flows: 49, Clos: &clos}, "cross-rack workers exceed", "cross-rack workers exceed"},
		{"same-rack overflow", SimConfig{Flows: 16, Clos: &clos, Placement: "same-rack"},
			"free slots under the aggregator's leaf", "free slots under the aggregator's leaf"},
		{"too many aggregators", SimConfig{Flows: 4, Clos: &clos, Aggregators: 5}, "exceed the 4 racks", "exceed the 4 racks"},
		{"overloaded racks", SimConfig{Flows: 20, Clos: &clos, Aggregators: 4},
			`rack 3 full placing worker 6 of aggregator 2 (4 aggregators x 20 workers, placement "cross-rack"`,
			`rack 3 full placing worker 6 of aggregator 2 (4 aggregators x 20 workers, placement "cross-rack"`},
		{"notification", SimConfig{Flows: 50, Notification: &NotificationConfig{}}, "", "switch-side incast notification"},
		{"per-flow past the limit", SimConfig{Flows: 1 << 20, Aggregation: AggregationPerFlow},
			`requires fidelity "flow"`, `aggregation "perflow" holds at most`},
	}
	for _, tc := range cases {
		for _, side := range []struct{ fidelity, want string }{{FidelityPacket, tc.packet}, {FidelityFlow, tc.flow}} {
			cfg := tc.cfg
			cfg.Fidelity = side.fidelity
			err := cfg.Validate()
			switch {
			case side.want == "" && err != nil:
				t.Errorf("%s at fidelity %s: rejected: %v", tc.name, side.fidelity, err)
			case side.want != "" && (err == nil || !strings.Contains(err.Error(), side.want)):
				t.Errorf("%s at fidelity %s: Validate = %v, want an error containing %q", tc.name, side.fidelity, err, side.want)
			}
		}
	}
	// FlowCompatible, which Options.stamp calls on rows Validate has not
	// seen, checks the topology before it derives the base RTT from the
	// link rates: a 0 bps link is an error, not a panic.
	for _, cfg := range []SimConfig{{Flows: 8, Clos: &slowClos}, {Flows: 50, Net: slow}} {
		if err := cfg.FlowCompatible(); err == nil || !strings.Contains(err.Error(), "link rates must be positive") {
			t.Errorf("FlowCompatible on a 0 bps link = %v", err)
		}
	}
	if err := (SimConfig{Flows: 50, Fidelity: "warp"}).Validate(); err == nil || !strings.Contains(err.Error(), `unknown fidelity "warp"`) {
		t.Errorf("unknown fidelity: Validate = %v", err)
	}
	// A packet row is checked without building its algorithm.
	built := SimConfig{Flows: 50, Alg: func(int) cc.Algorithm { panic("Validate built the algorithm") }}
	if err := built.Validate(); err != nil {
		t.Errorf("packet row: %v", err)
	}
}

// TestFlowCompatibleNeedsFlows: a config without a positive degree gets
// the degree error back, as FlowCompatible's contract says, not a panic
// from filling the defaults.
func TestFlowCompatibleNeedsFlows(t *testing.T) {
	for _, n := range []int{0, -3} {
		if err := (SimConfig{Flows: n}).FlowCompatible(); err == nil || !strings.Contains(err.Error(), "positive incast degree") {
			t.Errorf("Flows = %d: FlowCompatible = %v, want the degree error", n, err)
		}
	}
}
