package core

import (
	"incastlab/internal/flowsim"
	"incastlab/internal/netsim"
	"incastlab/internal/sim"
	"incastlab/internal/tcp"
	"incastlab/internal/workload"
)

// burstProbe is the packet runner's measurement harness, on either
// topology: it feeds the bottleneck queue's per-burst depth samples to the
// run's measured window, snapshots the flows' counters at the start of the
// measured window (so the discarded first burst does not pollute deltas),
// and folds both into a SimResult.
type burstProbe struct {
	q     *netsim.Queue
	flows *workload.Flows
	win   flowsim.Window

	base      tcp.SenderStats
	baseDrops int64
	baseMarks int64

	// det, when set, reads the switch-side incast detector; the firing
	// count is snapshotted with the other counters at the measured window's
	// start so the result reports a windowed delta. The first-fire time is
	// lifetime (onset detection happens in the first burst, warmup or not).
	// Set it before the engine runs.
	det          detectorReadout
	baseDetFired int64
}

// newBurstProbe schedules the per-burst sampling of q and the
// measured-window snapshot of the flows' counters.
func newBurstProbe(cfg *SimConfig, eng *sim.Engine, q *netsim.Queue, flows *workload.Flows) *burstProbe {
	p := &burstProbe{
		q:     q,
		flows: flows,
		win:   flowsim.NewWindow(cfg.Bursts, cfg.SampleWindow, cfg.SampleInterval, q.ECNThresholdPackets()),
	}
	sample := func(i int) { p.win.Add(i, float64(q.LenPackets())) }
	first := flowsim.FirstMeasured(cfg.Bursts)
	for b := first; b < cfg.Bursts; b++ {
		netsim.SamplePeriodically(eng, sim.Time(b)*cfg.Interval, cfg.SampleInterval, p.win.Samples(), sample)
	}
	eng.Schedule(sim.Time(first)*cfg.Interval, func() {
		p.base = flows.AggregateSenderStats()
		st := q.Stats()
		p.baseDrops, p.baseMarks = st.DroppedPackets, st.MarkedPackets
		if p.det != nil {
			p.baseDetFired, _ = p.det()
		}
	})
	return p
}

// finish folds the sampled window, burst records, and counter deltas into
// res. Call after the run completes.
func (p *burstProbe) finish(res *SimResult) {
	p.win.Fold(&res.Measured)
	res.SummarizeBCTs(p.flows.BCTs())

	agg := p.flows.AggregateSenderStats()
	res.Timeouts = agg.Timeouts - p.base.Timeouts
	res.FastRetransmits = agg.FastRetransmits - p.base.FastRetransmits
	res.RetransmitPackets = agg.RetransmitPackets - p.base.RetransmitPackets
	res.SentPackets = agg.SentPackets - p.base.SentPackets
	res.IncastNotifies = agg.IncastNotifies - p.base.IncastNotifies
	if p.det != nil {
		fired, first := p.det()
		res.DetectorFirings = fired - p.baseDetFired
		res.DetectorFirstFire = first
	}
	st := p.q.Stats()
	res.Drops = st.DroppedPackets - p.baseDrops
	res.Marks = st.MarkedPackets - p.baseMarks
}
