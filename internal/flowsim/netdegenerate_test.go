package flowsim

import (
	"strings"
	"testing"

	"incastlab/internal/netsim"
	"incastlab/internal/sim"
	"incastlab/internal/workload"
)

// TestNetworkZeroFlows: a path set without flows is a configuration
// error, not a silent no-op — Run must refuse it.
func TestNetworkZeroFlows(t *testing.T) {
	net := &netsim.FluidPaths{
		Queues: []netsim.FluidQueue{{
			Name: "bottleneck", RateBps: 10 * netsim.Gbps,
			CapacityPackets: 100, ECNThresholdPackets: 20,
		}},
		Paths:   nil,
		BaseRTT: nil,
		Stage:   []int{0},
	}
	_, err := Run(Config{SegmentsPerFlow: 10}, net)
	if err == nil {
		t.Fatal("zero-flow network run accepted")
	}
	if !strings.Contains(err.Error(), "flow") {
		t.Errorf("zero-flow error %q does not mention flows", err)
	}
}

// TestNetworkDegreeOneIncast: a single cross-rack flow has the fabric to
// itself — its host NIC and the aggregator downlink run at the same rate,
// so nothing queues, nothing marks, nothing drops, and every burst
// completes in roughly the serialization time.
func TestNetworkDegreeOneIncast(t *testing.T) {
	cc := netsim.DefaultClosConfig(2, 2)
	cc.ECMPSeed = 1
	srcs, dsts, err := workload.ClosFlowEndpoints(cc, 1, 1, workload.PlacementCrossRack)
	if err != nil {
		t.Fatalf("endpoints: %v", err)
	}
	net, err := cc.FluidPaths(srcs, dsts)
	if err != nil {
		t.Fatalf("FluidPaths: %v", err)
	}
	if len(net.Paths) != 1 || len(net.Paths[0]) != 3 {
		t.Fatalf("degree-1 cross-rack path = %v, want one three-hop path", net.Paths)
	}
	segs := workload.BytesPerFlowFor(cc.HostLinkBps, 15*sim.Millisecond, 1) / netsim.MSS
	res, err := Run(Config{
		SegmentsPerFlow: segs,
		Bursts:          3,
		LineRateBps:     cc.HostLinkBps,
		Check:           true,
	}, net)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Timeouts != 0 || res.Drops != 0 {
		t.Errorf("degree-1 incast lost traffic: timeouts %d, drops %d", res.Timeouts, res.Drops)
	}
	if res.Marks != 0 {
		t.Errorf("degree-1 incast marked %d packets; one flow at line rate should never queue past K", res.Marks)
	}
	ideal := 15 * sim.Millisecond
	if res.MeanBCT < ideal || res.MeanBCT > 2*ideal {
		t.Errorf("degree-1 mean BCT %v outside [%v, %v]", res.MeanBCT, ideal, 2*ideal)
	}
}

// TestNetworkRTOBackoffAtStepBoundary drives the multi-queue engine into
// Mode 3 with the integration step pinned (minStep == maxStep) and the
// RTO floor an exact multiple of it, so every stall deadline lands
// exactly on a step end. The wake test is stallT <= now; an off-by-one
// in either direction strands the stalled flows and the run times out at
// the horizon instead of completing.
func TestNetworkRTOBackoffAtStepBoundary(t *testing.T) {
	const step = 100 * sim.Microsecond
	net := &netsim.FluidPaths{
		Queues: []netsim.FluidQueue{
			{Name: "uplink", RateBps: 10 * netsim.Gbps, CapacityPackets: 1000, ECNThresholdPackets: 65},
			{Name: "downlink", RateBps: netsim.Gbps, CapacityPackets: 12, ECNThresholdPackets: 5},
		},
		Paths:      [][]int32{{0, 1}},
		BaseRTT:    []sim.Time{20 * sim.Microsecond},
		Counts:     []int32{4},
		Stage:      []int{0, 1},
		Bottleneck: 1,
	}
	res, err := Run(Config{
		SegmentsPerFlow: 200,
		Bursts:          2,
		Interval:        50 * sim.Millisecond,
		MinRTO:          10 * step, // exactly 10 pinned steps
		maxRTO:          80 * step, // caps the doubling at 8 steps' worth x8
		dupAckPackets:   1 << 20,   // every loss is timeout-class: pure Mode 3
		minStep:         step,
		maxStep:         step,
		LineRateBps:     10 * netsim.Gbps,
		Check:           true,
	}, net)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Timeouts == 0 {
		t.Fatal("12-packet bottleneck under a 4-flow incast produced no timeouts")
	}
	if got := res.Mode(); got != "3 (timeouts)" {
		t.Errorf("mode = %q, want Mode 3 (timeouts %d, fracBelowK %.3f)",
			got, res.Timeouts, res.FracBelowK)
	}
}
