package netsim

import (
	"fmt"

	"incastlab/internal/sim"
)

// This file is the backend-neutral path/queue model shared between the
// packet-level fabric builder (NewClos) and the flow-level fluid solver
// (internal/flowsim.RunNetwork). A FluidPaths value describes the data
// path of every flow in an incast as an ordered traversal of port queues
// — each with its own drain rate, ECN threshold, and buffer bound — built
// from the SAME ClosConfig and the SAME seeded ECMP hash the packet
// backend routes with, so both fidelities place every flow on the same
// spine and meet the same bottlenecks.

// FluidQueue is one switch port as a fluid backend sees it: a FIFO that
// drains at the link's effective packet rate, marks CE above the ECN
// threshold, and tail-drops past the buffer bound. Names match the packet
// topology's port-queue names so cross-backend diagnostics line up.
type FluidQueue struct {
	Name string
	// RateBps is the port's line rate; the fluid drain rate is the
	// effective IP-packet rate under the x1500/1538 wire-overhead
	// contract (see flowsim.EffectivePacketRate).
	RateBps int64
	// CapacityPackets bounds the queue; ECNThresholdPackets is K.
	CapacityPackets     int
	ECNThresholdPackets int
}

// FluidPaths is a queue network plus every flow's ordered traversal of
// it, stored once per path class. A class is a distinct ordered queue
// list with one base RTT: Paths[c] lists class c's queue indices from the
// source outward, BaseRTT[c] is its uncongested round-trip, and Class[i]
// is flow i's class. The queue list encodes the ECMP spine choice (same
// seed, same hash, same spine), so aggregating a class never blurs
// routing: the class is the partition flowsim's cohort aggregation keys
// on, and a path set costs memory per class, not per flow. Stage assigns
// every queue a topological level such that stages strictly increase
// along every path (the fluid step integrates queues in stage order, so
// volume forwarded out of one hop is visible to the next within the same
// step). Bottleneck is the queue the run's headline statistics sample
// (the aggregator's leaf downlink port in an incast).
type FluidPaths struct {
	Queues     []FluidQueue
	Paths      [][]int32
	BaseRTT    []sim.Time
	Class      []int32
	Stage      []int
	Bottleneck int
}

// Validate checks the structural invariants RunNetwork relies on: every
// class path once, then every flow's class index.
func (p *FluidPaths) Validate() error {
	if len(p.Queues) == 0 {
		return fmt.Errorf("netsim: fluid path set has no queues")
	}
	if len(p.Paths) != len(p.BaseRTT) {
		return fmt.Errorf("netsim: fluid path set has %d paths but %d base RTTs", len(p.Paths), len(p.BaseRTT))
	}
	if len(p.Stage) != len(p.Queues) {
		return fmt.Errorf("netsim: fluid path set has %d queues but %d stages", len(p.Queues), len(p.Stage))
	}
	if p.Bottleneck < 0 || p.Bottleneck >= len(p.Queues) {
		return fmt.Errorf("netsim: fluid bottleneck index %d outside the %d queues", p.Bottleneck, len(p.Queues))
	}
	for j, q := range p.Queues {
		if q.RateBps <= 0 || q.CapacityPackets <= 0 || q.ECNThresholdPackets <= 0 {
			return fmt.Errorf("netsim: fluid queue %d (%s) needs positive rate, capacity, and ECN threshold", j, q.Name)
		}
	}
	for c, path := range p.Paths {
		if len(path) == 0 {
			return fmt.Errorf("netsim: fluid path class %d is empty", c)
		}
		if p.BaseRTT[c] <= 0 {
			return fmt.Errorf("netsim: fluid path class %d has non-positive base RTT", c)
		}
		prev := -1
		for _, j := range path {
			if j < 0 || int(j) >= len(p.Queues) {
				return fmt.Errorf("netsim: fluid path class %d references queue %d outside the %d queues", c, j, len(p.Queues))
			}
			if s := p.Stage[j]; s <= prev {
				return fmt.Errorf("netsim: fluid path class %d is not stage-monotonic at queue %d (%s)", c, j, p.Queues[j].Name)
			} else {
				prev = s
			}
		}
	}
	for i, c := range p.Class {
		if c < 0 || int(c) >= len(p.Paths) {
			return fmt.Errorf("netsim: fluid flow %d has path class %d outside the %d classes", i, c, len(p.Paths))
		}
	}
	return nil
}

// newPortIndex returns an n-slot index with every slot unresolved (-1).
func newPortIndex(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = -1
	}
	return s
}

// Stages returns the number of distinct topological levels (max stage + 1).
func (p *FluidPaths) Stages() int {
	max := 0
	for _, s := range p.Stage {
		if s > max {
			max = s
		}
	}
	return max + 1
}

// FluidPaths builds the queue network an incast's data packets traverse
// over this fabric: flow i runs from host srcs[i] to host dsts[i] with
// FlowID i+1, exactly as workload.ClosIncast numbers its senders. Queues
// appear on demand in first-use order:
//
//   - same-rack flows cross only the destination's leaf downlink port;
//   - cross-rack flows cross their source leaf's uplink to the spine
//     ECMPIndex picks for (seed, flow i+1, src, dst) — the identical hash
//     Switch.Receive applies — then that spine's downlink port into the
//     destination rack, then the destination's leaf downlink port.
//
// Host NIC queues are unbounded on the packet side (host-side drops would
// mask the fabric behavior under study) and are therefore omitted here;
// the fluid injection rate is capped at the host line rate instead. ACK
// paths carry negligible volume and are folded into BaseRTT. Stages are
// uplink=0, spine downlink=1, leaf downlink=2, so every path is
// stage-monotonic. The bottleneck is dsts[0]'s leaf port. Path classes
// get dense IDs in the order their first flows appear.
func (c ClosConfig) FluidPaths(srcs, dsts []NodeID) (*FluidPaths, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if len(srcs) == 0 || len(srcs) != len(dsts) {
		return nil, fmt.Errorf("netsim: fluid paths need matching src/dst lists (got %d/%d)", len(srcs), len(dsts))
	}
	p := &FluidPaths{Class: make([]int32, len(srcs))}
	// Port indices resolved positionally — uplink per (source rack,
	// spine), spine downlink per (spine, destination rack) — so the
	// per-flow hot loop never formats a key or hashes a string.
	upIdx := newPortIndex(c.Racks * c.Spines)
	sdIdx := newPortIndex(c.Spines * c.Racks)
	addQueue := func(name string, rateBps int64, stage int) int32 {
		j := int32(len(p.Queues))
		p.Queues = append(p.Queues, FluidQueue{
			Name:                name,
			RateBps:             rateBps,
			CapacityPackets:     c.QueueCapacityPackets,
			ECNThresholdPackets: c.ECNThresholdPackets,
		})
		p.Stage = append(p.Stage, stage)
		return j
	}
	// A same-rack flow's path is fixed by its destination host, and a
	// cross-rack flow's by (destination host, source rack, ECMP spine).
	// So each destination, numbered densely as it first appears, owns its
	// leaf downlink queue and a block of 1+Racks*Spines class slots: slot
	// 0 for same-rack flows, 1+srcRack*Spines+spine for cross-rack ones.
	// An uplink or spine port is only ever missing when its class is new,
	// so queues still appear in per-flow first-use order.
	hosts := c.Hosts()
	width := 1 + c.Racks*c.Spines
	dstIdx := newPortIndex(hosts)
	// Sized for up to one destination per rack, the multi-aggregator
	// layout; more destinations grow the slices.
	down := make([]int32, 0, c.Racks)
	slots := make([]int32, 0, c.Racks*width)
	classes := min(len(srcs), c.Racks*width)
	p.Paths = make([][]int32, 0, classes)
	p.BaseRTT = make([]sim.Time, 0, classes)
	// Every class path is at most 3 hops, carved from one backing array
	// that grows by appending (a carved path keeps the array it was cut
	// from) and sliced with full capacity bounds, so paths never grow into
	// each other and a path set costs a handful of allocations at any
	// class count.
	hops := make([]int32, 0, 3*classes)

	for i := range srcs {
		src, dst := srcs[i], dsts[i]
		if int(src) < 0 || int(src) >= hosts || int(dst) < 0 || int(dst) >= hosts {
			return nil, fmt.Errorf("netsim: fluid flow %d endpoints %d->%d outside the %d fabric hosts", i, src, dst, hosts)
		}
		if src == dst {
			return nil, fmt.Errorf("netsim: fluid flow %d sends host %d to itself", i, src)
		}
		// RackOf, spelled out: a method call on c here costs a copy of the
		// config per flow.
		srcRack, dstRack := int(src)/c.HostsPerRack, int(dst)/c.HostsPerRack
		d := dstIdx[dst]
		if d < 0 {
			d = int32(len(down))
			dstIdx[dst] = d
			dstSlot := int(dst) - dstRack*c.HostsPerRack
			down = append(down, addQueue(fmt.Sprintf("leaf-%d-port-%d", dstRack, dstSlot), c.HostLinkBps, 2))
			for k := 0; k < width; k++ {
				slots = append(slots, -1)
			}
		}
		slot, s := 0, 0
		if srcRack != dstRack {
			s = ECMPIndex(c.ECMPSeed, FlowID(i+1), src, dst, c.Spines)
			slot = 1 + srcRack*c.Spines + s
		}
		k := int(d)*width + slot
		if slots[k] < 0 {
			slots[k] = int32(len(p.Paths))
			start := len(hops)
			if slot == 0 {
				hops = append(hops, down[d])
				p.BaseRTT = append(p.BaseRTT, c.BaseRTT(false))
			} else {
				up := upIdx[srcRack*c.Spines+s]
				if up < 0 {
					up = addQueue(fmt.Sprintf("leaf-%d-uplink-%d", srcRack, s), c.SpineLinkBps, 0)
					upIdx[srcRack*c.Spines+s] = up
				}
				sd := sdIdx[s*c.Racks+dstRack]
				if sd < 0 {
					sd = addQueue(fmt.Sprintf("spine-%d-port-%d", s, dstRack), c.SpineLinkBps, 1)
					sdIdx[s*c.Racks+dstRack] = sd
				}
				hops = append(hops, up, sd, down[d])
				p.BaseRTT = append(p.BaseRTT, c.BaseRTT(true))
			}
			p.Paths = append(p.Paths, hops[start:len(hops):len(hops)])
		}
		p.Class[i] = slots[k]
	}
	p.Bottleneck = int(down[0])
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
