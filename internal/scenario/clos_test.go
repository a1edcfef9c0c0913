package scenario

import (
	"encoding/json"
	"strings"
	"testing"
)

// closSpec is a valid placement sweep on a small fabric, the base every
// rejection case mutates.
func closSpec() Spec {
	return Spec{
		Name: "clos_ok",
		Topology: &Topology{
			Clos: &Clos{Racks: 4, HostsPerRack: 16, Spines: 2, SpineLinkGbps: 100},
		},
		Sweep: Sweep{
			Axis:   "placement",
			Values: Strs("same-rack", "cross-rack"),
			Flows:  []int{8},
		},
	}
}

// TestClosSpecRoundTrip: a clos spec must survive marshal -> Parse ->
// marshal unchanged, so registered experiments are expressible as the
// files `incastsim -scenario` accepts.
func TestClosSpecRoundTrip(t *testing.T) {
	spec := closSpec()
	spec.Topology.Clos.ECMPSeed = 7
	spec.Topology.Clos.Placement = "cross-rack"
	spec.Sweep = Sweep{Axis: "flows", Values: Nums(8, 24)}
	first, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	parsed, err := Parse(first)
	if err != nil {
		t.Fatalf("parse own marshal output: %v", err)
	}
	second, err := json.MarshalIndent(parsed, "", "  ")
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if string(first) != string(second) {
		t.Errorf("round trip is lossy:\nfirst:\n%s\nsecond:\n%s", first, second)
	}
}

// TestClosParseRejectsUnknownFields: typo'd keys inside the clos block
// fail loudly like everywhere else in the spec.
func TestClosParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse([]byte(`{"name": "x", "workload": {"flows": 4},
		"topology": {"clos": {"racks": 2, "hosts_per_rack": 8, "spinez": 3}},
		"sweep": {"axis": "flows", "values": [4]}}`))
	if err == nil || !strings.Contains(err.Error(), "spinez") {
		t.Errorf("typo'd clos key: want a parse error naming the field, got %v", err)
	}
}

func TestClosValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string // substring of the actionable error
	}{
		{"one rack", func(s *Spec) { s.Topology.Clos.Racks = 1 }, "at least 2 racks"},
		{"one host per rack", func(s *Spec) { s.Topology.Clos.HostsPerRack = 1 }, "at least 2 (the aggregator plus one worker slot)"},
		{"negative spines", func(s *Spec) { s.Topology.Clos.Spines = -1 }, "cannot be negative"},
		{"bad spine rate", func(s *Spec) { s.Topology.Clos.SpineLinkGbps = -40 }, "want a positive rate"},
		{"bad oversubscription", func(s *Spec) {
			s.Topology.Clos.SpineLinkGbps = 0
			s.Topology.Clos.Oversubscription = -2
		}, "want a positive factor"},
		{"rate and oversubscription", func(s *Spec) { s.Topology.Clos.Oversubscription = 4 }, "they determine each other, pick one"},
		{"unknown placement", func(s *Spec) { s.Topology.Clos.Placement = "same-host" }, "is not one of cross-rack, same-rack"},
		{"core rate with clos", func(s *Spec) { s.Topology.CoreLinkGbps = 100 }, "set clos.spine_link_gbps instead"},
		{"placement axis without clos", func(s *Spec) { s.Topology.Clos = nil }, "needs a topology.clos block"},
		{"unknown placement value", func(s *Spec) { s.Sweep.Values = Strs("cross-rack", "same-row") }, "placements are cross-rack or same-rack"},
		{"same-rack overflow", func(s *Spec) { s.Sweep.Flows = []int{16} }, "free slots under the aggregator's leaf"},
		{"cross-rack overflow", func(s *Spec) {
			s.Sweep = Sweep{Axis: "flows", Values: Nums(50)}
			s.Topology.Clos.Placement = "cross-rack"
		}, "hosts outside the aggregator's rack"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := closSpec()
			if err := spec.Validate(); err != nil {
				t.Fatalf("base spec invalid: %v", err)
			}
			tc.mut(&spec)
			err := spec.Validate()
			if err == nil {
				t.Fatal("want a validation error, got nil")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestClosFlowFidelityAccepted: since the fluid engine solves the whole
// queue network (PR 9), fidelity "flow" + topology.clos is a legal spec;
// capacity checks still apply.
func TestClosFlowFidelityAccepted(t *testing.T) {
	spec := closSpec()
	spec.Fidelity = "flow"
	if err := spec.Validate(); err != nil {
		t.Errorf("fidelity flow + clos rejected: %v", err)
	}
	spec.Sweep.Flows = []int{16} // over the 15 same-rack slots
	if err := spec.Validate(); err == nil {
		t.Error("capacity overflow accepted at flow fidelity")
	}
}

// TestClosAggregators: the aggregators knob and axis validate — counts must
// be positive integers within the rack count, and per-rack load (including
// each rack's reserved slot-0 aggregator) must fit hosts_per_rack.
func TestClosAggregators(t *testing.T) {
	spec := closSpec()
	spec.Topology.Clos.Aggregators = 4
	if err := spec.Validate(); err != nil {
		t.Errorf("4 aggregators on 4 racks rejected: %v", err)
	}
	spec.Topology.Clos.Aggregators = 5
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "exceed the 4 racks") {
		t.Errorf("5 aggregators on 4 racks: want rack-count error, got %v", err)
	}
	spec.Topology.Clos.Aggregators = -1
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "cannot be negative") {
		t.Errorf("negative aggregators: want error, got %v", err)
	}

	// 4 racks x 16 hosts, 4 aggregators: each rack holds 1 aggregator +
	// 3 aggregators' worth of its share of workers. 20 workers/agg spread
	// over 3 remote racks = 7+7+6, so the busiest rack holds 1+7+7+6 = 21
	// hosts > 16.
	over := closSpec()
	over.Sweep = Sweep{Axis: "aggregators", Values: Nums(1, 4)}
	over.Workload.Flows = 20
	if err := over.Validate(); err == nil || !strings.Contains(err.Error(), "hosts_per_rack") {
		t.Errorf("overloaded multi-aggregator fabric: want rack-load error, got %v", err)
	}
	over.Workload.Flows = 15
	if err := over.Validate(); err != nil {
		t.Errorf("15 workers x 4 aggregators (load 16/rack) rejected: %v", err)
	}
	noClos := closSpec()
	noClos.Topology.Clos = nil
	noClos.Sweep = Sweep{Axis: "aggregators", Values: Nums(2), Flows: []int{8}}
	if err := noClos.Validate(); err == nil || !strings.Contains(err.Error(), "topology.clos") {
		t.Errorf("aggregators axis without clos: want error naming topology.clos, got %v", err)
	}
}

// TestNotificationFlowFidelityErrorNamesKnobs: the notification path stays
// packet-only; the rejection must name both knobs — the fidelity value and
// the notification block — so a user knows which of the two to change.
func TestNotificationFlowFidelityErrorNamesKnobs(t *testing.T) {
	spec := closSpec()
	spec.Fidelity = "flow"
	spec.Notification = &Notification{}
	err := spec.Validate()
	if err == nil {
		t.Fatal("fidelity flow + notification validated")
	}
	for _, field := range []string{`fidelity "flow"`, "notification"} {
		if !strings.Contains(err.Error(), field) {
			t.Errorf("error %q does not name %s", err, field)
		}
	}
}

// TestClosCapacityAcceptsBoundary: degrees exactly at the slot limits are
// legal for both placements.
func TestClosCapacityAcceptsBoundary(t *testing.T) {
	spec := closSpec()
	// 16 hosts per rack: 15 same-rack slots, 48 cross-rack slots.
	spec.Sweep.Flows = []int{15}
	if err := spec.Validate(); err != nil {
		t.Errorf("15 workers on a 16-host rack rejected: %v", err)
	}
	cross := closSpec()
	cross.Sweep = Sweep{Axis: "flows", Values: Nums(48)}
	cross.Topology.Clos.Placement = "cross-rack"
	if err := cross.Validate(); err != nil {
		t.Errorf("48 cross-rack workers on 3 remote racks rejected: %v", err)
	}
}

// TestPerFlowAggregationLimit: a "perflow" row must fit the fluid
// backend's per-flow record limit, counting every aggregator's workers;
// the rejection names the knob, and the same row under cohort aggregation
// validates.
func TestPerFlowAggregationLimit(t *testing.T) {
	spec := Spec{
		Name: "million",
		Topology: &Topology{
			Clos: &Clos{Racks: 16, HostsPerRack: 65560, Spines: 2, SpineLinkGbps: 400, Placement: "cross-rack"},
		},
		Sweep:       Sweep{Axis: "aggregators", Values: Nums(1, 16), Flows: []int{65536}},
		Fidelity:    "flow",
		Aggregation: "perflow",
	}
	err := spec.Validate()
	if err == nil || !strings.Contains(err.Error(), `aggregation "perflow"`) {
		t.Fatalf("16 x 65,536 per-flow workers: want an error naming the aggregation, got %v", err)
	}
	spec.Aggregation = "cohort"
	if err := spec.Validate(); err != nil {
		t.Errorf("the same row under cohort aggregation rejected: %v", err)
	}
	spec.Aggregation = "perflow"
	spec.Sweep.Values = Nums(1, 15) // 15 x 65,536 < 2^20
	if err := spec.Validate(); err != nil {
		t.Errorf("15 x 65,536 per-flow workers rejected: %v", err)
	}
	dumbbell := Spec{Name: "wide", Workload: Workload{Flows: MaxPerFlowFlows + 1}, Sweep: Sweep{Axis: "cc", Values: Strs("dctcp")},
		Fidelity: "flow", Aggregation: "perflow"}
	if err := dumbbell.Validate(); err == nil || !strings.Contains(err.Error(), "aggregation") {
		t.Errorf("2^20 per-flow dumbbell flows: want an error naming the aggregation, got %v", err)
	}
}
