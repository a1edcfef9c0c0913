package workload

import (
	"fmt"

	"incastlab/internal/netsim"
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

// CheckClosPlacement reports whether a Clos incast of `workers` flows per
// aggregator fits the fabric under the placement, and returns its total
// flow count, without building the endpoint lists. ClosFlowEndpoints runs
// this check before it places anyone, so the two cannot disagree. The
// errors are a fabric that does not build (netsim.ClosConfig.Validate),
// too many aggregators, too few workers, an unknown placement, more
// single-aggregator workers than the fabric has hosts for, and a full
// rack (named by the first worker that would not fit).
func CheckClosPlacement(cfg netsim.ClosConfig, workers, aggregators int, placement string) (int, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if placement == "" {
		placement = PlacementCrossRack
	}
	if aggregators <= 1 {
		if workers <= 0 {
			return 0, fmt.Errorf("workload: clos incast needs at least one worker (got %d)", workers)
		}
		switch placement {
		case PlacementCrossRack:
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
	case PlacementCrossRack:
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
	// first in worker order is the error. With fewer workers than other
	// racks, aggregator k reaches only the span racks after its own, so
	// the walk and the rack loads stop at aggregators+span racks.
	n := cfg.Racks - 1
	q, rem := workers/n, workers%n
	span := min(n, workers)
	used := make([]int, min(cfg.Racks, aggregators+span))
	for r := 0; r < aggregators; r++ {
		used[r] = 1 // slot 0 hosts aggregator r
	}
	for k := 0; k < aggregators; k++ {
		worst, worstRack := workers, -1
		for j := 0; j < span; j++ {
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
// packet run connects its flows from it and the fluid solver builds its
// queue paths from the same placement (ClosPlacement.Fill), so ECMP
// hashes over identical (flow, src, dst) tuples. Placements that do not
// fit fail with CheckClosPlacement's error.
//
// Aggregator k sits at rack k slot 0 (aggregators <= 1 means the one
// aggregator at host 0). Its same-rack workers fill rack k's remaining
// slots, while its cross-rack workers round-robin over the other racks
// starting at rack k+1, taking each rack's next free slot (slot 0 stays
// reserved for that rack's aggregator, if any). With one aggregator,
// cross-rack worker i therefore sits in rack 1+i%(Racks-1), slot
// i/(Racks-1).
func ClosFlowEndpoints(cfg netsim.ClosConfig, workers, aggregators int, placement string) (srcs, dsts []netsim.NodeID, err error) {
	p, err := NewClosPlacement(cfg, workers, aggregators, placement)
	if err != nil {
		return nil, nil, err
	}
	srcs = make([]netsim.NodeID, p.Flows())
	dsts = make([]netsim.NodeID, p.Flows())
	p.Fill(0, srcs, dsts)
	return srcs, dsts, nil
}

// ClosPlacement is a Clos incast placement that fits its fabric. Fill
// writes the endpoints of any range of its flows, so a caller that walks
// the flows in chunks never holds ClosFlowEndpoints' whole lists.
type ClosPlacement struct {
	racks, hpr           int
	workers, aggregators int
	cross                bool
	flows                int
}

// NewClosPlacement checks a Clos incast placement with CheckClosPlacement
// and returns it.
func NewClosPlacement(cfg netsim.ClosConfig, workers, aggregators int, placement string) (ClosPlacement, error) {
	n, err := CheckClosPlacement(cfg, workers, aggregators, placement)
	if err != nil {
		return ClosPlacement{}, err
	}
	return ClosPlacement{
		racks: cfg.Racks, hpr: cfg.HostsPerRack,
		workers: workers, aggregators: max(aggregators, 1),
		cross: placement != PlacementSameRack,
		flows: n,
	}, nil
}

// Flows returns the placement's total flow count.
func (p ClosPlacement) Flows() int { return p.flows }

// Fill writes the endpoints of flows lo, lo+1, ... into srcs and dsts
// (equal lengths, within Flows), exactly as ClosFlowEndpoints lists them;
// it is a netsim.EndpointFill.
func (p ClosPlacement) Fill(lo int, srcs, dsts []netsim.NodeID) {
	dsts = dsts[:len(srcs)]
	racks, hpr, workers := p.racks, p.hpr, p.workers
	k, i := lo/workers, lo%workers
	if !p.cross {
		// Aggregator k's workers fill rack k from slot 1.
		for j := 0; j < len(srcs); k, i = k+1, 0 {
			agg := k * hpr
			for ; i < workers && j < len(srcs); i, j = i+1, j+1 {
				srcs[j] = netsim.NodeID(agg + 1 + i)
				dsts[j] = netsim.NodeID(agg)
			}
		}
		return
	}
	// The per-rack cursors live on the stack up to 64 racks, so a walk in
	// chunks allocates nothing per chunk.
	var stack [64]int
	next := stack[:min(p.racks, len(stack))]
	if p.racks > len(stack) {
		next = make([]int, p.racks)
	}
	p.nextSlots(next, k, i)
	for j := 0; j < len(srcs); k, i = k+1, 0 {
		agg := netsim.NodeID(k * hpr)
		for ; i < workers && j < len(srcs); i, j = i+1, j+1 {
			r := (k + 1 + i%(racks-1)) % racks
			srcs[j] = netsim.NodeID(r*hpr + next[r])
			next[r]++
			dsts[j] = agg
		}
	}
}

// nextSlots sets next[r] to rack r's next free slot just before
// cross-rack worker i of aggregator k is placed. Slot 0 of each
// aggregator's rack is taken; every earlier aggregator k' placed its
// workers round-robin over racks k'+1, k'+2, ..., so the j-th rack of its
// round took workers/(Racks-1) of them, plus one for j <
// workers%(Racks-1); and aggregator k's own first i workers did the same.
func (p ClosPlacement) nextSlots(next []int, k, i int) {
	n := p.racks - 1
	clear(next)
	for r := 0; r < p.aggregators; r++ {
		next[r] = 1
	}
	take := func(k, placed int) {
		q, rem := placed/n, placed%n
		for j := 0; j < n; j++ {
			r := (k + 1 + j) % p.racks
			next[r] += q
			if j < rem {
				next[r]++
			}
		}
	}
	for kk := 0; kk < k; kk++ {
		take(kk, p.workers)
	}
	take(k, i)
}
