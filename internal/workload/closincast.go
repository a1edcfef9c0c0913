package workload

import (
	"fmt"

	"incastlab/internal/cc"
	"incastlab/internal/netsim"
	"incastlab/internal/sim"
	"incastlab/internal/tcp"
)

// Worker placement policies for a Clos incast: where the workers sit
// relative to the aggregator (which always occupies rack 0, slot 0).
const (
	// PlacementCrossRack spreads workers round-robin over the other racks —
	// the production shape: responses converge through the fabric and the
	// aggregator ToR's downlink.
	PlacementCrossRack = "cross-rack"
	// PlacementSameRack packs workers under the aggregator's own leaf, so
	// traffic never crosses a spine — the dumbbell-like control.
	PlacementSameRack = "same-rack"
)

// ClosIncastConfig describes a repeated incast burst over a Clos fabric.
// The embedded fields mirror IncastConfig; Workers replaces Flows and
// Placement chooses where they live.
type ClosIncastConfig struct {
	// Workers is the incast degree N — per aggregator when Aggregators > 1.
	Workers int
	// Placement is PlacementCrossRack (default when empty) or
	// PlacementSameRack.
	Placement string
	// Aggregators is the number of concurrent incasts sharing the fabric
	// (0 or 1 = the classic single aggregator at host 0). Aggregator k
	// receives at rack k, slot 0, each fanning in its own Workers flows,
	// so the spine layer carries A overlapping incasts.
	Aggregators int
	// BytesPerFlow is the per-flow demand added at each burst start.
	BytesPerFlow int64
	// Bursts, Interval, JitterMax, Seed: as IncastConfig.
	Bursts    int
	Interval  sim.Time
	JitterMax sim.Time
	Seed      uint64
	// SenderConfig and ReceiverConfig tune the transport endpoints.
	SenderConfig   tcp.SenderConfig
	ReceiverConfig tcp.ReceiverConfig
	// Admitter optionally controls flow release within bursts.
	Admitter Admitter
}

// CheckClosPlacement reports whether a Clos incast of `workers` flows per
// aggregator fits the fabric under the placement, and returns its total
// flow count, without building the endpoint lists. ClosFlowEndpoints runs
// this check before it places anyone, so the two cannot disagree. The
// errors are too many aggregators, too few workers, an unknown placement,
// more single-aggregator workers than the fabric has hosts for, and a
// full rack (named by the first worker that would not fit).
func CheckClosPlacement(cfg netsim.ClosConfig, workers, aggregators int, placement string) (int, error) {
	if aggregators <= 1 {
		if workers <= 0 {
			return 0, fmt.Errorf("workload: clos incast needs at least one worker (got %d)", workers)
		}
		switch placement {
		case PlacementCrossRack, "":
			remote := cfg.Racks - 1
			if cap := remote * cfg.HostsPerRack; workers > cap {
				return 0, fmt.Errorf(
					"workload: %d cross-rack workers exceed the %d hosts in racks 1..%d (%d racks x %d hosts/rack)",
					workers, cap, cfg.Racks-1, remote, cfg.HostsPerRack)
			}
		case PlacementSameRack:
			if cap := cfg.HostsPerRack - 1; workers > cap {
				return 0, fmt.Errorf(
					"workload: %d same-rack workers exceed the %d free slots under the aggregator's leaf (%d hosts/rack)",
					workers, cap, cfg.HostsPerRack)
			}
		default:
			return 0, fmt.Errorf("workload: unknown placement %q (want %q or %q)",
				placement, PlacementCrossRack, PlacementSameRack)
		}
		return workers, nil
	}
	if aggregators > cfg.Racks {
		return 0, fmt.Errorf(
			"workload: %d aggregators exceed the %d racks (one aggregator per rack, at slot 0)",
			aggregators, cfg.Racks)
	}
	if workers <= 0 {
		return 0, fmt.Errorf("workload: clos incast needs at least one worker per aggregator (got %d)", workers)
	}
	full := func(r, i, k int) error {
		return fmt.Errorf(
			"workload: rack %d full placing worker %d of aggregator %d (%d aggregators x %d workers, placement %q, %d hosts/rack)",
			r, i, k, aggregators, workers, placement, cfg.HostsPerRack)
	}
	switch placement {
	case PlacementCrossRack, "":
	case PlacementSameRack:
		// Aggregator k's workers fill rack k from slot 1, which no other
		// aggregator touches.
		if workers > cfg.HostsPerRack-1 {
			return 0, full(0, max(cfg.HostsPerRack-1, 0), 0)
		}
		return aggregators * workers, nil
	default:
		return 0, fmt.Errorf("workload: unknown placement %q (want %q or %q)",
			placement, PlacementCrossRack, PlacementSameRack)
	}
	// Cross-rack: aggregator k's worker i lands in rack (k+1+j)%Racks for
	// j = i%(Racks-1), as that rack's (i/(Racks-1))-th arrival from k. With
	// used[r] slots of rack r taken before aggregator k places anyone, the
	// first of k's workers that finds rack r full is the one arriving
	// there when used[r] reaches HostsPerRack; the rack that overflows
	// first in worker order is the error.
	n := cfg.Racks - 1
	q, rem := workers/n, workers%n
	used := make([]int, cfg.Racks)
	for r := 0; r < aggregators; r++ {
		used[r] = 1 // slot 0 hosts aggregator r
	}
	for k := 0; k < aggregators; k++ {
		worst, worstRack := workers, -1
		for j := 0; j < n; j++ {
			r := (k + 1 + j) % cfg.Racks
			cnt := q
			if j < rem {
				cnt++
			}
			if free := max(cfg.HostsPerRack-used[r], 0); cnt > free {
				if i := j + free*n; i < worst {
					worst, worstRack = i, r
				}
			}
			used[r] += cnt
		}
		if worstRack >= 0 {
			return 0, full(worstRack, worst, k)
		}
	}
	return aggregators * workers, nil
}

// ClosFlowEndpoints returns the (src, dst) host pair of every flow in a
// Clos incast workload, in global flow order (aggregator-major: flow
// k*workers+i is worker i of aggregator k, carrying FlowID k*workers+i+1).
// This is the single source of truth both backends place flows from: the
// packet workload builds its senders from it and the fluid solver builds
// its queue paths from it, so ECMP hashes over identical (flow, src, dst)
// tuples. Placements that do not fit fail with CheckClosPlacement's error.
//
// Aggregator k sits at rack k slot 0 (aggregators <= 1 means the one
// aggregator at host 0). Its same-rack workers fill rack k's remaining
// slots, while its cross-rack workers round-robin over the other racks
// starting at rack k+1, taking each rack's next free slot (slot 0 stays
// reserved for that rack's aggregator, if any). With one aggregator,
// cross-rack worker i therefore sits in rack 1+i%(Racks-1), slot
// i/(Racks-1).
func ClosFlowEndpoints(cfg netsim.ClosConfig, workers, aggregators int, placement string) (srcs, dsts []netsim.NodeID, err error) {
	n, err := CheckClosPlacement(cfg, workers, aggregators, placement)
	if err != nil {
		return nil, nil, err
	}
	aggregators = max(aggregators, 1)
	next := make([]int, cfg.Racks) // next free slot per rack
	for r := 0; r < aggregators; r++ {
		next[r] = 1 // slot 0 hosts aggregator r
	}
	srcs = make([]netsim.NodeID, 0, n)
	dsts = make([]netsim.NodeID, 0, n)
	// HostID spelled out: a method call on cfg here costs a copy of the
	// config per flow.
	racks, hpr := cfg.Racks, cfg.HostsPerRack
	cross := placement != PlacementSameRack
	for k := 0; k < aggregators; k++ {
		agg := netsim.NodeID(k * hpr)
		for i := 0; i < workers; i++ {
			r := k
			if cross {
				r = (k + 1 + i%(racks-1)) % racks
			}
			srcs = append(srcs, netsim.NodeID(r*hpr+next[r]))
			next[r]++
			dsts = append(dsts, agg)
		}
	}
	return srcs, dsts, nil
}

// ClosIncast wires an incast workload over a Clos fabric: the aggregator
// at host 0 and workers placed by policy, with burst scheduling delegated
// to a Group exactly as the dumbbell Incast does.
type ClosIncast struct {
	cfg ClosIncastConfig
	net *netsim.Clos

	workers   []netsim.NodeID
	group     *Group
	receivers []*tcp.Receiver
}

// NewClosIncastWithPool builds the fabric and endpoints on an injected
// packet pool (nil for a fresh one), letting sweep runners reuse a warm
// pool across runs.
func NewClosIncastWithPool(eng *sim.Engine, netCfg netsim.ClosConfig, cfg ClosIncastConfig,
	algFactory func(flow int) cc.Algorithm, pool *netsim.PacketPool) *ClosIncast {
	srcs, dsts, err := ClosFlowEndpoints(netCfg, cfg.Workers, cfg.Aggregators, cfg.Placement)
	if err != nil {
		panic(err.Error())
	}

	in := &ClosIncast{
		cfg:     cfg,
		net:     netsim.NewClosWithPool(eng, netCfg, pool),
		workers: srcs,
	}

	// One hub per aggregator host, built in aggregator order (the single-
	// aggregator case keeps the original hub-before-workers construction
	// order, so event scheduling — and goldens — are unchanged).
	aggs := max(cfg.Aggregators, 1)
	aggHubs := make(map[netsim.NodeID]*tcp.Hub, aggs)
	for k := 0; k < aggs; k++ {
		id := dsts[k*cfg.Workers]
		aggHubs[id] = tcp.NewHub(in.net.Hosts[id])
	}
	senders := make([]*tcp.Sender, len(srcs))
	in.receivers = make([]*tcp.Receiver, len(srcs))
	for f, id := range srcs {
		flow := netsim.FlowID(f + 1)
		hub := tcp.NewHub(in.net.Hosts[id])
		senders[f] = tcp.NewSender(eng, hub, flow, dsts[f],
			algFactory(f), cfg.SenderConfig)
		in.receivers[f] = tcp.NewReceiver(eng, aggHubs[dsts[f]], flow, id, cfg.ReceiverConfig)
	}

	in.group = NewGroup(eng, senders, GroupConfig{
		BytesPerFlow: cfg.BytesPerFlow,
		Bursts:       cfg.Bursts,
		Interval:     cfg.Interval,
		JitterMax:    cfg.JitterMax,
		Seed:         cfg.Seed,
		Admitter:     cfg.Admitter,
	})
	return in
}

// Network returns the underlying fabric.
func (in *ClosIncast) Network() *netsim.Clos { return in.net }

// Aggregator returns the receiving host (host 0, rack 0).
func (in *ClosIncast) Aggregator() *netsim.Host { return in.net.Hosts[0] }

// WorkerHosts returns the worker host IDs in flow order.
func (in *ClosIncast) WorkerHosts() []netsim.NodeID { return in.workers }

// Senders returns the per-flow senders (for instrumentation).
func (in *ClosIncast) Senders() []*tcp.Sender { return in.group.Senders() }

// Receivers returns the per-flow receivers at the aggregator.
func (in *ClosIncast) Receivers() []*tcp.Receiver { return in.receivers }

// Config returns the workload configuration.
func (in *ClosIncast) Config() ClosIncastConfig { return in.cfg }

// Bursts returns per-burst records; valid after the run completes.
func (in *ClosIncast) Bursts() []BurstRecord { return in.group.Bursts() }

// Done reports whether every burst completed.
func (in *ClosIncast) Done() bool { return in.group.Done() }

// AggregateSenderStats sums transport counters across all flows.
func (in *ClosIncast) AggregateSenderStats() tcp.SenderStats {
	return in.group.AggregateSenderStats()
}
