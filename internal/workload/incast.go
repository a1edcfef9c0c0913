// Package workload drives incast traffic patterns over the simulated
// network: N senders with equal per-burst demand toward one receiver,
// repeated bursts on persistent connections, and jittered flow starts —
// the Section 4 experiment shape. It builds flows and their burst
// schedule on hosts it is given; netsim builds the topology.
package workload

import (
	"incastlab/internal/cc"
	"incastlab/internal/netsim"
	"incastlab/internal/sim"
	"incastlab/internal/tcp"
)

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

// Connect builds n transport connections over given hosts and returns
// their senders and receivers in flow order: flow f runs from src(f) to
// dst(f) with FlowID f+1 and congestion control alg(f). Each host gets one
// hub however many flows share it, since a second hub would replace the
// first on the host.
func Connect(eng *sim.Engine, n int, src, dst func(f int) *netsim.Host, alg func(f int) cc.Algorithm,
	sender tcp.SenderConfig, receiver tcp.ReceiverConfig) ([]*tcp.Sender, []*tcp.Receiver) {
	hubs := make(map[*netsim.Host]*tcp.Hub)
	hub := func(h *netsim.Host) *tcp.Hub {
		hb := hubs[h]
		if hb == nil {
			hb = tcp.NewHub(h)
			hubs[h] = hb
		}
		return hb
	}
	senders := make([]*tcp.Sender, n)
	receivers := make([]*tcp.Receiver, n)
	for f := range senders {
		flow := netsim.FlowID(f + 1)
		s, d := src(f), dst(f)
		senders[f] = tcp.NewSender(eng, hub(s), flow, d.ID(), alg(f), sender)
		receivers[f] = tcp.NewReceiver(eng, hub(d), flow, s.ID(), receiver)
	}
	return senders, receivers
}

// Flows is an incast as its runner reads it: the Group that schedules and
// tracks the bursts of its connections, and their receivers in flow order.
type Flows struct {
	*Group
	Receivers []*tcp.Receiver
}
