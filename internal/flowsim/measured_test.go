package flowsim

import (
	"math"
	"slices"
	"testing"

	"incastlab/internal/sim"
)

// TestWindowFold pins the measured-window arithmetic both fidelities
// share: sums divide by the measured bursts even when the run ended
// before a burst's last samples, a sample is busy from half a packet, and
// the spike looks at the first 2 ms of the averaged trace.
func TestWindowFold(t *testing.T) {
	// Three bursts, so bursts 1 and 2 are measured; four samples 1 ms
	// apart; marking from 5 packets.
	w := NewWindow(3, 4*sim.Millisecond, sim.Millisecond, 5)
	for i, v := range []float64{0.4, 6, 3, 0} {
		w.Add(i, v)
	}
	for i, v := range []float64{2, 8} { // the run ended here
		w.Add(i, v)
	}
	var m Measured
	w.Fold(&m)
	if want := []float64{1.2, 7, 1.5, 0}; !slices.Equal(m.AvgQueue.Values, want) {
		t.Errorf("AvgQueue %v, want %v", m.AvgQueue.Values, want)
	}
	if m.AvgQueue.IntervalNS != int64(sim.Millisecond) {
		t.Errorf("AvgQueue interval %d ns, want 1 ms", m.AvgQueue.IntervalNS)
	}
	// Busy: 6, 3, 2 and 8; below K: 3 and 2.
	if m.MaxQueue != 8 || m.FracBelowK != 0.5 || m.SpikePackets != 7 {
		t.Errorf("max %v, below-K %v, spike %v; want 8, 0.5, 7", m.MaxQueue, m.FracBelowK, m.SpikePackets)
	}
	if got := m.BusyAvgQueue(); math.Abs(got-(1.2+7+1.5)/3) > 1e-12 {
		t.Errorf("BusyAvgQueue %v, want %v", got, (1.2+7+1.5)/3)
	}

	if short := NewWindow(2, sim.Microsecond, sim.Millisecond, 5); short.Samples() != 1 {
		t.Errorf("a window shorter than the interval takes %d samples, want 1", short.Samples())
	}

	m.SummarizeBCTs([]sim.Time{10, 4, 6}) // burst 0 is discarded
	if m.MeanBCT != 5 || m.MaxBCT != 6 {
		t.Errorf("BCTs: mean %v, max %v; want 5, 6", m.MeanBCT, m.MaxBCT)
	}
	var one Measured
	one.SummarizeBCTs([]sim.Time{7}) // a one-burst run measures burst 0
	if one.MeanBCT != 7 || one.MaxBCT != 7 {
		t.Errorf("one burst: mean %v, max %v; want 7, 7", one.MeanBCT, one.MaxBCT)
	}
}
