package scenario_test

import (
	"strings"
	"testing"

	"incastlab/internal/scenario"
)

// TestValidateRejections: each malformed spec is refused before any row
// runs, by scenario.Validate for a rule of the spec's own and by
// core.CompileScenario for a rule of the compiled rows.
func TestValidateRejections(t *testing.T) {
	valid := func() scenario.Spec {
		return scenario.Spec{
			Name:     "ok",
			Workload: scenario.Workload{Flows: 100},
			Sweep:    scenario.Sweep{Axis: "g", Values: scenario.Nums(0.5)},
		}
	}
	cases := []struct {
		name     string
		mut      func(*scenario.Spec)
		want     string // substring of the actionable error
		compiled bool   // the rule is SimConfig.Validate's, met at compile time
	}{
		{"empty name", func(s *scenario.Spec) { s.Name = "" }, "needs a name", false},
		{"bad name", func(s *scenario.Spec) { s.Name = "No Spaces!" }, "name must match", false},
		{"negative flows", func(s *scenario.Spec) { s.Workload.Flows = -3 }, "cannot be negative", false},
		{"no flows anywhere", func(s *scenario.Spec) { s.Workload.Flows = 0 }, "workload.flows must be a positive incast degree", false},
		{"flows twice", func(s *scenario.Spec) { s.Sweep.Flows = []int{10} }, "conflicts with the sweep's flow degrees", false},
		{"flows axis twice", func(s *scenario.Spec) {
			s.Workload.Flows = 0
			s.Sweep = scenario.Sweep{Axis: "flows", Values: scenario.Nums(10), Flows: []int{10}}
		}, "mutually exclusive", false},
		{"unknown axis", func(s *scenario.Spec) { s.Sweep.Axis = "mtu" }, "not a known axis", false},
		{"empty sweep", func(s *scenario.Spec) { s.Sweep.Values = nil }, "sweep.values is empty", false},
		{"kind mismatch", func(s *scenario.Spec) { s.Sweep.Values = scenario.Strs("big") }, "takes number values", false},
		{"label arity", func(s *scenario.Spec) { s.Sweep.Labels = []string{"a", "b"} }, "2 entries for 1 values", false},
		{"gain range", func(s *scenario.Spec) { s.Sweep.Values = scenario.Nums(1.5) }, "must be in (0, 1]", false},
		{"fractional degree", func(s *scenario.Spec) {
			s.Sweep = scenario.Sweep{Axis: "flows", Values: scenario.Nums(2.5)}
			s.Workload.Flows = 0
		}, "positive integers", false},
		{"unknown cc", func(s *scenario.Spec) { s.Sweep = scenario.Sweep{Axis: "cc", Values: scenario.Strs("cubic")} }, "not a congestion-control name", false},
		{"unknown scheme", func(s *scenario.Spec) { s.Sweep = scenario.Sweep{Axis: "scheme", Values: scenario.Strs("dctcp+wave0")} }, "schemes are dctcp", false},
		{"cc algorithm", func(s *scenario.Spec) { s.CC = &scenario.CC{Algorithm: "bbr"} }, "not one of", false},
		{"shared buffer without topology", func(s *scenario.Spec) {
			s.Sweep = scenario.Sweep{Axis: "shared_buffer", Values: scenario.Flags(false, true)}
		}, "needs a topology", false},
		{"contend without shared", func(s *scenario.Spec) { s.Topology = &scenario.Topology{ContendBytes: 1} }, "requires shared_buffer_bytes", false},
		{"host rate below the bound", func(s *scenario.Spec) { s.Topology = &scenario.Topology{HostLinkGbps: 1e-12} },
			"topology.host_link_gbps = 1e-12: want a positive rate from 0.1 to 10000 Gbps", false},
		{"core rate past the bound", func(s *scenario.Spec) { s.Topology = &scenario.Topology{CoreLinkGbps: 10001} },
			"topology.core_link_gbps = 10001: want a positive rate", false},
		{"negative host rate", func(s *scenario.Spec) { s.Topology = &scenario.Topology{HostLinkGbps: -10} },
			"topology.host_link_gbps = -10: want a positive rate", false},
		{"queue past the bound", func(s *scenario.Spec) { s.Topology = &scenario.Topology{QueuePackets: 1_000_000_001} },
			"queue_packets (1000000001) and ecn_threshold_pkts (0) must lie in [0, 1e9] packets", false},
		{"negative rto", func(s *scenario.Spec) { s.Transport = &scenario.Transport{MinRTOMS: -1} }, "want a positive timeout", false},
		{"unknown fidelity", func(s *scenario.Spec) { s.Fidelity = "warp" }, `unknown fidelity "warp"`, true},
		{"unknown aggregation", func(s *scenario.Spec) {
			s.Fidelity = "flow"
			s.Aggregation = "bogus"
		}, `unknown aggregation "bogus"`, true},
		{"aggregation on a packet row", func(s *scenario.Spec) { s.Aggregation = "cohort" }, `aggregation "cohort" requires fidelity "flow"`, true},
		{"negative detector window", func(s *scenario.Spec) { s.Notification = &scenario.Notification{WindowUS: -1} }, "want a positive window", false},
		{"negative slope", func(s *scenario.Spec) { s.Notification = &scenario.Notification{SlopePackets: -1} }, "cannot be negative", false},
		{"backoff range", func(s *scenario.Spec) { s.Notification = &scenario.Notification{Backoff: 1.5} }, "lives in (0, 1)", false},
		{"negative hold_acks", func(s *scenario.Spec) { s.Notification = &scenario.Notification{HoldAcks: -1} }, "hold_acks cannot be negative", false},
		{"negative flow horizon", func(s *scenario.Spec) { s.Notification = &scenario.Notification{FlowHorizonUS: -5} }, "want a positive horizon", false},
		{"notification axis without block", func(s *scenario.Spec) {
			s.Sweep = scenario.Sweep{Axis: "notification", Values: scenario.Flags(false, true)}
		}, "needs a notification block", false},
		{"min_ports without clos", func(s *scenario.Spec) { s.Notification = &scenario.Notification{MinPorts: 2} }, "needs a topology.clos block", false},
		{"notification at flow fidelity", func(s *scenario.Spec) {
			s.Notification = &scenario.Notification{}
			s.Fidelity = "flow"
		}, "switch-side incast notification is packet-level only", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := valid()
			if err := compileErr(t, spec, false); err != nil {
				t.Fatalf("base spec rejected: %v", err)
			}
			tc.mut(&spec)
			err := compileErr(t, spec, tc.compiled)
			if err == nil {
				t.Fatal("want a validation error, got nil")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}
