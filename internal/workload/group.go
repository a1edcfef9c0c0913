package workload

import (
	"math/rand/v2"

	"incastlab/internal/sim"
	"incastlab/internal/tcp"
)

// GroupConfig drives repeated equal-demand bursts over an existing set of
// senders — the topology-independent core of an incast workload. An incast
// run schedules one Group over the flows Connect builds; rack experiments
// run several Groups toward different receivers of one shared-buffer ToR.
type GroupConfig struct {
	// BytesPerFlow is each sender's demand per burst.
	BytesPerFlow int64
	// Bursts is the number of bursts; burst 0 starts at time 0.
	Bursts int
	// Interval is the burst start-to-start spacing.
	Interval sim.Time
	// JitterMax jitters each flow's start within a burst.
	JitterMax sim.Time
	// Seed drives the jitter RNG.
	Seed uint64
	// Admitter optionally schedules flow release within bursts.
	Admitter Admitter
}

// Group is the burst scheduler and completion tracker for one set of
// senders. Each sender must carry only this group's demand (completion is
// inferred from acknowledged bytes).
type Group struct {
	cfg     GroupConfig
	eng     *sim.Engine
	senders []*tcp.Sender
	rng     *rand.Rand

	completedBursts []int
	pending         []int
	bursts          []BurstRecord
}

// NewGroup schedules the bursts over senders. It installs each sender's
// OnDemandMet callback; senders must not be shared between groups.
func NewGroup(eng *sim.Engine, senders []*tcp.Sender, cfg GroupConfig) *Group {
	if len(senders) == 0 {
		panic("workload: group needs at least one sender")
	}
	if cfg.BytesPerFlow <= 0 {
		panic("workload: per-flow demand must be positive")
	}
	if cfg.Bursts <= 0 {
		panic("workload: need at least one burst")
	}
	if cfg.Interval <= 0 {
		panic("workload: burst interval must be positive")
	}

	g := &Group{
		cfg:             cfg,
		eng:             eng,
		senders:         senders,
		rng:             sim.NewRand(cfg.Seed),
		completedBursts: make([]int, len(senders)),
		pending:         make([]int, cfg.Bursts),
		bursts:          make([]BurstRecord, cfg.Bursts),
	}
	for b := range g.pending {
		g.pending[b] = len(senders)
		g.bursts[b] = BurstRecord{Index: b, Start: sim.Time(b) * cfg.Interval}
	}
	for i, s := range senders {
		i := i
		s.SetOnDemandMet(func(now sim.Time) { g.onFlowDone(i, now) })
	}
	g.schedule()
	return g
}

// schedule enqueues every burst start.
func (g *Group) schedule() {
	for b := 0; b < g.cfg.Bursts; b++ {
		b := b
		start := g.bursts[b].Start
		jitters := make([]sim.Time, len(g.senders))
		for i := range jitters {
			if g.cfg.JitterMax > 0 {
				jitters[i] = sim.Time(g.rng.Int64N(int64(g.cfg.JitterMax) + 1))
			}
		}
		admit := func(flow int) {
			at := start + jitters[flow]
			if now := g.eng.Now(); at < now {
				at = now
			}
			g.eng.Schedule(at, func() {
				g.senders[flow].AddDemand(g.cfg.BytesPerFlow)
			})
		}
		if g.cfg.Admitter != nil {
			g.eng.Schedule(start, func() {
				g.cfg.Admitter.BeginBurst(AdmitContext{
					Eng:   g.eng,
					Burst: b,
					Start: start,
					Flows: len(g.senders),
					Admit: admit,
				})
			})
			continue
		}
		for i := range g.senders {
			admit(i)
		}
	}
}

// onFlowDone accounts burst completions for flow i; one notification may
// clear several outstanding bursts for a slow flow.
func (g *Group) onFlowDone(i int, now sim.Time) {
	done := int(g.senders[i].Acked() / g.cfg.BytesPerFlow)
	for b := g.completedBursts[i]; b < done && b < g.cfg.Bursts; b++ {
		g.pending[b]--
		if g.cfg.Admitter != nil {
			g.cfg.Admitter.FlowDone(b, i)
		}
		if g.pending[b] == 0 {
			g.bursts[b].End = now
			g.bursts[b].BCT = now - g.bursts[b].Start
		}
	}
	g.completedBursts[i] = done
}

// Bursts returns per-burst records; valid after the run completes.
func (g *Group) Bursts() []BurstRecord { return g.bursts }

// BCTs returns every burst's completion time, in burst order; valid after
// the run completes.
func (g *Group) BCTs() []sim.Time {
	bcts := make([]sim.Time, len(g.bursts))
	for i, b := range g.bursts {
		bcts[i] = b.BCT
	}
	return bcts
}

// Done reports whether every burst completed.
func (g *Group) Done() bool {
	for _, p := range g.pending {
		if p != 0 {
			return false
		}
	}
	return true
}

// Senders returns the group's senders.
func (g *Group) Senders() []*tcp.Sender { return g.senders }

// AggregateSenderStats sums transport counters across the group's flows.
func (g *Group) AggregateSenderStats() tcp.SenderStats {
	var agg tcp.SenderStats
	for _, s := range g.senders {
		st := s.Stats()
		agg.SentPackets += st.SentPackets
		agg.SentBytes += st.SentBytes
		agg.RetransmitPackets += st.RetransmitPackets
		agg.RetransmitBytes += st.RetransmitBytes
		agg.FastRetransmits += st.FastRetransmits
		agg.Timeouts += st.Timeouts
		agg.ECEAcks += st.ECEAcks
		agg.Acks += st.Acks
		agg.IncastNotifies += st.IncastNotifies
	}
	return agg
}
