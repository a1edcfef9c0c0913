package audit

import (
	"strings"
	"testing"
)

// TestClosDifferentialGate is the fabric closed-loop gate at the
// ext_clos_crossrack operating points: cross-rack placement on the 8-rack,
// 501-host fabric at N=80 (Mode 1) and N=500 (Mode 2), packet vs flow,
// with both sides' invariant checking on. Any tolerance breach is a
// failure with the full breach list in the error.
func TestClosDifferentialGate(t *testing.T) {
	res, err := RunClosDiff(ClosDiffConfig{Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("gate covered %d points, want 2", len(res.Points))
	}
	wantModes := map[int]string{80: "1 (healthy)", 500: "2 (degenerate)"}
	for _, p := range res.Points {
		if want := wantModes[p.Flows]; p.PacketMode != want || p.FlowMode != want {
			t.Errorf("n=%d: modes packet %q / flow %q, want %q on both sides",
				p.Flows, p.PacketMode, p.FlowMode, want)
		}
	}
}

// TestClosDifferentialGateSameRack pins the placement control: same-rack
// workers never cross a spine, so the fluid side collapses to the
// one-queue instance and must still track the packet fabric.
func TestClosDifferentialGateSameRack(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if _, err := RunClosDiff(ClosDiffConfig{
		Placement: "same-rack",
		Flows:     []int{80},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestClosDifferentialGateMultiAggregator runs two concurrent incasts over
// the fabric — aggregators at racks 0 and 1, workers interleaved over the
// remaining racks — and holds packet vs flow to the same contract.
func TestClosDifferentialGateMultiAggregator(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if _, err := RunClosDiff(ClosDiffConfig{
		Aggregators: 2,
		Flows:       []int{80},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestClosDiffReportsBreaches forces a breach with an absurd tolerance
// floor by shrinking the fabric until modes flip... instead, simplest: a
// negative check that the breach formatting machinery reports the flows
// degree. Run an operating point with tolerances so tight agreement is
// impossible, and require the error to name the degree and the statistic.
func TestClosDiffReportsBreaches(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	_, err := RunClosDiff(ClosDiffConfig{
		Flows:      []int{80},
		MeanBCTTol: 1e-9,
		MaxBCTTol:  1e-9,
	})
	if err == nil {
		t.Fatal("near-zero tolerances produced no breach")
	}
	if !strings.Contains(err.Error(), "n=80") || !strings.Contains(err.Error(), "mean BCT") {
		t.Errorf("breach report missing context: %v", err)
	}
}
