// Package workload drives incast traffic patterns over the simulated
// network: N senders with equal per-burst demand toward one receiver,
// repeated bursts on persistent connections, and jittered flow starts —
// the Section 4 experiment shape.
package workload

import (
	"fmt"

	"incastlab/internal/cc"
	"incastlab/internal/netsim"
	"incastlab/internal/sim"
	"incastlab/internal/tcp"
)

// IncastConfig describes a repeated incast burst experiment.
type IncastConfig struct {
	// Flows is the incast degree N.
	Flows int
	// BytesPerFlow is the per-flow demand added at each burst start. For a
	// target burst duration D on a bottleneck of rate R, use R*D/8/N.
	BytesPerFlow int64
	// Bursts is how many bursts to run (the paper runs 11 and discards the
	// first as a slow-start transient).
	Bursts int
	// Interval is the start-to-start spacing of bursts.
	Interval sim.Time
	// JitterMax jitters each flow's start within a burst uniformly in
	// [0, JitterMax] to model variations in worker processing time
	// (paper: 0-100 us).
	JitterMax sim.Time
	// Seed drives the jitter RNG.
	Seed uint64
	// SenderConfig and ReceiverConfig tune the transport endpoints.
	SenderConfig   tcp.SenderConfig
	ReceiverConfig tcp.ReceiverConfig
	// Admitter optionally controls when each flow is released within a
	// burst (Section 5.2 wave scheduling); nil admits everyone at
	// start+jitter.
	Admitter Admitter
}

// BytesPerFlowFor returns the per-flow demand that fills a bottleneck of
// rate bps for the target duration across n flows, in whole MSS multiples
// (at least one segment). Using whole segments keeps per-flow demand equal
// and aligned, like the paper's equal-demand configuration.
func BytesPerFlowFor(bps int64, duration sim.Time, n int) int64 {
	total := bps / 8 * int64(duration) / 1_000_000_000
	per := total / int64(n)
	segs := per / netsim.MSS
	if segs < 1 {
		segs = 1
	}
	return segs * netsim.MSS
}

// DefaultIncastConfig returns the paper's Section 4 setup for n flows and a
// target burst duration: demand sized to the 10 Gbps bottleneck, 11 bursts,
// inter-burst gap of 5 ms, 0-100 us jitter.
func DefaultIncastConfig(n int, burstDuration sim.Time) IncastConfig {
	return IncastConfig{
		Flows:          n,
		BytesPerFlow:   BytesPerFlowFor(10*netsim.Gbps, burstDuration, n),
		Bursts:         11,
		Interval:       burstDuration + 5*sim.Millisecond,
		JitterMax:      100 * sim.Microsecond,
		Seed:           1,
		SenderConfig:   tcp.DefaultSenderConfig(),
		ReceiverConfig: tcp.DefaultReceiverConfig(),
	}
}

// AdmitContext is handed to an Admitter at each burst start.
type AdmitContext struct {
	// Eng is the simulation engine (for scheduling).
	Eng *sim.Engine
	// Burst is the burst index, from 0.
	Burst int
	// Start is the burst's nominal start time.
	Start sim.Time
	// Flows is the incast degree.
	Flows int
	// Admit releases flow i (adds its demand). Each flow must be admitted
	// exactly once per burst.
	Admit func(flow int)
}

// Admitter decides when each flow of a burst is released.
type Admitter interface {
	// BeginBurst is called at each burst's nominal start.
	BeginBurst(ctx AdmitContext)
	// FlowDone is called when a flow finishes its demand for the burst.
	FlowDone(burst, flow int)
}

// BurstRecord summarizes one burst of an incast run.
type BurstRecord struct {
	// Index is the burst number, from 0.
	Index int
	// Start is the nominal start time (before per-flow jitter).
	Start sim.Time
	// End is when the last flow finished its demand.
	End sim.Time
	// BCT is End - Start, the burst completion time.
	BCT sim.Time
}

// Incast wires an incast workload over a dumbbell topology: it builds the
// endpoints and delegates burst scheduling to a Group. Construct with
// NewIncast, optionally attach instrumentation, then run the engine.
type Incast struct {
	Flows
	net *netsim.Dumbbell
}

// NewIncast builds the topology and endpoints. netCfg.Senders must equal
// cfg.Flows. algFactory supplies a fresh congestion-control instance per
// flow.
func NewIncast(eng *sim.Engine, netCfg netsim.DumbbellConfig, cfg IncastConfig,
	algFactory func(flow int) cc.Algorithm) *Incast {
	return NewIncastWithPool(eng, netCfg, cfg, algFactory, nil)
}

// NewIncastWithPool is NewIncast with an injected packet pool (nil for a
// fresh one), letting sweep runners reuse a warm pool across runs.
func NewIncastWithPool(eng *sim.Engine, netCfg netsim.DumbbellConfig, cfg IncastConfig,
	algFactory func(flow int) cc.Algorithm, pool *netsim.PacketPool) *Incast {
	if cfg.Flows <= 0 {
		panic("workload: incast needs at least one flow")
	}
	if netCfg.Senders != cfg.Flows {
		panic(fmt.Sprintf("workload: topology has %d senders, config has %d flows",
			netCfg.Senders, cfg.Flows))
	}
	net := netsim.NewDumbbellWithPool(eng, netCfg, pool)
	return &Incast{
		net: net,
		Flows: newFlows(eng, cfg, cfg.Flows,
			func(f int) *netsim.Host { return net.Senders[f] },
			func(int) *netsim.Host { return net.Receiver },
			algFactory),
	}
}

// Network returns the underlying topology.
func (in *Incast) Network() *netsim.Dumbbell { return in.net }

// Flows is the endpoint-and-Group build both incast types share: one
// sender and one receiver per flow, and the Group that schedules their
// bursts.
type Flows struct {
	group     *Group
	receivers []*tcp.Receiver
}

// newFlows builds n flows over cfg's bursts: flow f runs from host src(f)
// to host dst(f) with FlowID f+1, every host behind one hub, the receiving
// hubs built first in order of first use.
func newFlows(eng *sim.Engine, cfg IncastConfig, n int, src, dst func(f int) *netsim.Host,
	algFactory func(flow int) cc.Algorithm) Flows {
	hubs := make(map[*netsim.Host]*tcp.Hub)
	hub := func(h *netsim.Host) *tcp.Hub {
		if hb, ok := hubs[h]; ok {
			return hb
		}
		hb := tcp.NewHub(h)
		hubs[h] = hb
		return hb
	}
	for f := 0; f < n; f++ {
		hub(dst(f))
	}
	senders := make([]*tcp.Sender, n)
	receivers := make([]*tcp.Receiver, n)
	for f := range senders {
		flow := netsim.FlowID(f + 1)
		s, d := src(f), dst(f)
		senders[f] = tcp.NewSender(eng, hub(s), flow, d.ID(), algFactory(f), cfg.SenderConfig)
		receivers[f] = tcp.NewReceiver(eng, hubs[d], flow, s.ID(), cfg.ReceiverConfig)
	}
	return Flows{
		receivers: receivers,
		group: NewGroup(eng, senders, GroupConfig{
			BytesPerFlow: cfg.BytesPerFlow,
			Bursts:       cfg.Bursts,
			Interval:     cfg.Interval,
			JitterMax:    cfg.JitterMax,
			Seed:         cfg.Seed,
			Admitter:     cfg.Admitter,
		}),
	}
}

// Senders returns the per-flow senders (for instrumentation).
func (f *Flows) Senders() []*tcp.Sender { return f.group.Senders() }

// Receivers returns the per-flow receivers, in flow order.
func (f *Flows) Receivers() []*tcp.Receiver { return f.receivers }

// Bursts returns per-burst records; valid after the run completes.
func (f *Flows) Bursts() []BurstRecord { return f.group.Bursts() }

// Done reports whether every burst completed.
func (f *Flows) Done() bool { return f.group.Done() }

// AggregateSenderStats sums transport counters across all flows.
func (f *Flows) AggregateSenderStats() tcp.SenderStats {
	return f.group.AggregateSenderStats()
}
