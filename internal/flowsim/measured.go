package flowsim

import (
	"incastlab/internal/sim"
	"incastlab/internal/stats"
)

// Measured is the Section 4 summary of one run over its measured bursts
// (see FirstMeasured). Both fidelities fill it the same way: the packet
// probe and the fluid solver feed one Window and one BCT summary, so a
// packet result and a fluid result of the same row mean the same thing
// field by field, as Classify already makes them share one taxonomy.
type Measured struct {
	// AvgQueue is the bottleneck's queue depth in packets, averaged
	// element-wise across measured bursts; time is relative to burst start.
	AvgQueue *stats.Series
	// MaxQueue is the highest sampled depth across measured bursts.
	MaxQueue float64
	// FracBelowK is the fraction of busy queue samples, taken per burst
	// before averaging, that sit below the ECN threshold — the Mode 1
	// signature ("the queue often falls below the ECN threshold, so DCTCP
	// observes periods of no marking").
	FracBelowK float64
	// SpikePackets is the peak of AvgQueue within the first 2 ms of a
	// burst: the Section 4.3 straggler spike.
	SpikePackets float64

	// MeanBCT and MaxBCT summarize measured burst completion times.
	MeanBCT, MaxBCT sim.Time

	// Counters over the measured window, in packets.
	Timeouts, FastRetransmits, RetransmitPackets, Drops, Marks int64
	SentPackets                                                int64
}

// BusyAvgQueue averages AvgQueue over the samples where the queue is
// non-empty (0 when it never is).
func (m *Measured) BusyAvgQueue() float64 {
	var sum float64
	n := 0
	for _, v := range m.AvgQueue.Values {
		if v > 0 {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Mode labels the run by the paper's taxonomy (see Classify).
func (m *Measured) Mode() string { return Classify(m.Timeouts, m.FracBelowK) }

// SummarizeBCTs sets MeanBCT and MaxBCT from bcts, every burst's
// completion time in burst order, the discarded first burst included.
func (m *Measured) SummarizeBCTs(bcts []sim.Time) {
	measured := bcts[FirstMeasured(len(bcts)):]
	var sum sim.Time
	for _, b := range measured {
		sum += b
		m.MaxBCT = max(m.MaxBCT, b)
	}
	m.MeanBCT = sum / sim.Time(len(measured))
}

// FirstMeasured returns the index of a run's first measured burst: the
// first burst warms the flows up and is discarded, unless it is the only
// one.
func FirstMeasured(bursts int) int {
	if bursts == 1 {
		return 0
	}
	return 1
}

// busyFloor is the minimum depth that counts as a busy sample: the packet
// backend samples whole packets, so fluid slivers below half a packet must
// not register as busy below-K observations.
const busyFloor = 0.5

// Window folds the bottleneck's depth samples over a run's measured bursts
// into a Measured. Sample i of a burst lies i sampling intervals after the
// burst's start. Samples must arrive in time order, so that each index
// sums its bursts in burst order.
type Window struct {
	interval     sim.Time
	measured     int
	k            float64 // the bottleneck's ECN threshold, packets
	sum          []float64
	busy, belowK int
	max          float64
}

// NewWindow opens the window of a run of bursts bursts whose bottleneck
// marks from k packets, sampled every interval for window after each
// measured burst's start (at least once per burst).
func NewWindow(bursts int, window, interval sim.Time, k int) Window {
	return Window{
		interval: interval,
		measured: bursts - FirstMeasured(bursts),
		k:        float64(k),
		sum:      make([]float64, max(1, int(window/interval))),
	}
}

// Samples returns the number of samples per measured burst.
func (w *Window) Samples() int { return len(w.sum) }

// Add records depth, in packets, as sample i of a measured burst.
func (w *Window) Add(i int, depth float64) {
	w.sum[i] += depth
	if depth > w.max {
		w.max = depth
	}
	if depth >= busyFloor {
		w.busy++
		if depth < w.k {
			w.belowK++
		}
	}
}

// Fold writes the queue fields of m. The average divides by the number
// of measured bursts, so a burst whose samples the run ended before
// counts those samples as empty.
func (w *Window) Fold(m *Measured) {
	avg := stats.NewSeries(0, int64(w.interval), len(w.sum))
	copy(avg.Values, w.sum)
	avg.Scale(1 / float64(w.measured))
	m.AvgQueue = avg
	m.MaxQueue = w.max
	if w.busy > 0 {
		m.FracBelowK = float64(w.belowK) / float64(w.busy)
	}
	spikeSamples := int(2 * sim.Millisecond / w.interval)
	for _, v := range avg.Values[:min(spikeSamples, len(avg.Values))] {
		m.SpikePackets = max(m.SpikePackets, v)
	}
}
