package flowsim

import (
	"testing"

	"incastlab/internal/netsim"
	"incastlab/internal/sim"
	"incastlab/internal/workload"
)

// TestCalibrationDebug prints the quick Fig-5 points for manual
// calibration; run with -v. Kept separate from the assertions in
// flowsim_test.go.
func TestCalibrationDebug(t *testing.T) {
	for _, n := range []int{80, 100, 500, 1000, 1400} {
		segs := workload.BytesPerFlowFor(10*netsim.Gbps, 15*sim.Millisecond, n) / netsim.MSS
		res, err := Run(Config{
			SegmentsPerFlow: segs,
			Bursts:          4,
			Check:           true,
		}, dumbbell(t, n))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		t.Logf("n=%4d segs=%3d mode=%-15q busyAvg=%7.1f max=%6.1f spike=%6.1f fracBelowK=%.3f meanBCT=%7.3fms maxBCT=%7.3fms to=%d fr=%d drops=%d marks=%d sent=%d steps=%d",
			n, segs, res.Mode(), res.BusyAvgQueue(), res.MaxQueue, res.SpikePackets,
			res.FracBelowK, float64(res.MeanBCT)/1e6, float64(res.MaxBCT)/1e6,
			res.Timeouts, res.FastRetransmits, res.Drops, res.Marks, res.SentPackets, res.Steps)
	}
}
