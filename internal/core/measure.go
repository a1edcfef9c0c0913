package core

import (
	"incastlab/internal/netsim"
	"incastlab/internal/sim"
	"incastlab/internal/stats"
	"incastlab/internal/tcp"
	"incastlab/internal/workload"
)

// burstProbe is the packet runner's measurement harness, on either
// topology: per-burst queue-depth series on the bottleneck queue, a
// counter snapshot at the start of the measured window (so the discarded
// first burst does not pollute deltas), and the aggregation of both into
// a SimResult.
type burstProbe struct {
	cfg   *SimConfig
	q     *netsim.Queue
	flows *workload.Flows

	samplesPerBurst int
	// first is the index of the first measured burst (1, unless the run has
	// a single burst).
	first       int
	burstSeries []*stats.Series

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
		cfg:             cfg,
		q:               q,
		flows:           flows,
		samplesPerBurst: int(cfg.SampleWindow / cfg.SampleInterval),
		first:           1,
	}
	if cfg.Bursts == 1 {
		p.first = 0
	}
	measured := cfg.Bursts - p.first
	p.burstSeries = make([]*stats.Series, 0, measured)
	for b := p.first; b < cfg.Bursts; b++ {
		start := sim.Time(b) * cfg.Interval
		p.burstSeries = append(p.burstSeries,
			netsim.QueueDepthSeries(eng, q, start, cfg.SampleInterval, p.samplesPerBurst))
	}
	eng.Schedule(sim.Time(p.first)*cfg.Interval, func() {
		p.base = flows.AggregateSenderStats()
		st := q.Stats()
		p.baseDrops, p.baseMarks = st.DroppedPackets, st.MarkedPackets
		if p.det != nil {
			p.baseDetFired, _ = p.det()
		}
	})
	return p
}

// finish folds the sampled series, burst records, and counter deltas into
// res. Call after the run completes.
func (p *burstProbe) finish(res *SimResult) {
	// Average the per-burst queue traces.
	avg := stats.NewSeries(0, int64(p.cfg.SampleInterval), p.samplesPerBurst)
	var busy, belowK int
	for _, s := range p.burstSeries {
		for i, v := range s.Values {
			avg.Values[i] += v
			if v > res.MaxQueue {
				res.MaxQueue = v
			}
			if v > 0 {
				busy++
				if v < float64(res.ECNThreshold) {
					belowK++
				}
			}
		}
	}
	if busy > 0 {
		res.FracBelowK = float64(belowK) / float64(busy)
	}
	avg.Scale(1 / float64(len(p.burstSeries)))
	res.AvgQueue = avg
	spikeSamples := int(2 * sim.Millisecond / p.cfg.SampleInterval)
	for i := 0; i < spikeSamples && i < len(avg.Values); i++ {
		if avg.Values[i] > res.SpikePackets {
			res.SpikePackets = avg.Values[i]
		}
	}

	var bctSum sim.Time
	n := 0
	for _, b := range p.flows.Bursts()[p.first:] {
		bctSum += b.BCT
		if b.BCT > res.MaxBCT {
			res.MaxBCT = b.BCT
		}
		n++
	}
	res.MeanBCT = bctSum / sim.Time(n)

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
