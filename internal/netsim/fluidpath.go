package netsim

import (
	"fmt"
	"math"

	"incastlab/internal/sim"
)

// This file is the backend-neutral path/queue model shared between the
// packet-level topology builders (NewDumbbell, NewClos) and the flow-level
// fluid solver (internal/flowsim.Run). A FluidPaths value describes the
// data path of every flow in an incast as an ordered traversal of port
// queues — each with its own drain rate, ECN threshold, and buffer bound
// — built from the SAME DumbbellConfig or ClosConfig the packet backend
// builds from, and on a Clos with the SAME seeded ECMP hash it routes
// with, so both fidelities place every flow on the same spine and meet
// the same bottlenecks.

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
// source outward, BaseRTT[c] is its uncongested round-trip, Counts[c] is
// the number of flows in it, and ClassOf(i) is flow i's class. The queue
// list encodes the ECMP spine choice (same seed, same hash, same spine),
// so aggregating a class never blurs routing: the class is the partition
// flowsim's cohort aggregation keys on, and a path set costs memory per
// class, not per flow — the class function re-derives a flow's class on
// demand instead of storing one per flow. Stage assigns every queue a
// topological level such that stages strictly increase along every path
// (the fluid step integrates queues in stage order, so volume forwarded
// out of one hop is visible to the next within the same step).
// Bottleneck is the queue the run's headline statistics sample (the
// aggregator's leaf downlink port in an incast).
type FluidPaths struct {
	Queues     []FluidQueue
	Paths      [][]int32
	BaseRTT    []sim.Time
	Counts     []int32
	Stage      []int
	Bottleneck int

	// classes writes the classes of flows lo, lo+1, ... into out; nil
	// puts every flow in class 0.
	classes func(lo int, out []int32)
}

// Flows returns the number of flows, the sum of Counts.
func (p *FluidPaths) Flows() int {
	n := 0
	for _, k := range p.Counts {
		n += int(k)
	}
	return n
}

// ClassOf returns flow i's path class.
func (p *FluidPaths) ClassOf(i int) int32 {
	var c [1]int32
	p.Classes(i, c[:])
	return c[0]
}

// Classes writes the path classes of flows lo, lo+1, ... into out: the
// bulk form of ClassOf, for walks over many flows. A class the path set
// cannot resolve (a flow whose endpoints the build never saw) reads -1.
func (p *FluidPaths) Classes(lo int, out []int32) {
	if p.classes == nil {
		clear(out)
		return
	}
	p.classes(lo, out)
}

// SetClasses puts flow i in class classes[i] and recounts Counts to
// match; ClassOf then reads the slice, which must not change afterwards.
// It is for hand-built path sets; the Clos builders re-derive classes
// from the flows' endpoints instead of storing one per flow. Classes
// outside Paths are left out of Counts, and runs reject them.
func (p *FluidPaths) SetClasses(classes []int32) {
	p.Counts = make([]int32, len(p.Paths))
	for _, c := range classes {
		if c >= 0 && int(c) < len(p.Counts) {
			p.Counts[c]++
		}
	}
	p.classes = func(lo int, out []int32) { copy(out, classes[lo:]) }
}

// Validate checks the structural invariants flowsim.Run relies on: every
// class path once, and one flow count per class. Flows' classes are
// checked where a run resolves them (flowsim's per-flow plan and its
// member expansion), since a per-flow walk here would cost what the
// class function saves.
func (p *FluidPaths) Validate() error {
	if len(p.Queues) == 0 {
		return fmt.Errorf("netsim: fluid path set has no queues")
	}
	if len(p.Paths) != len(p.BaseRTT) {
		return fmt.Errorf("netsim: fluid path set has %d paths but %d base RTTs", len(p.Paths), len(p.BaseRTT))
	}
	if len(p.Paths) != len(p.Counts) {
		return fmt.Errorf("netsim: fluid path set has %d paths but %d class counts", len(p.Paths), len(p.Counts))
	}
	if p.classes == nil && len(p.Paths) > 1 {
		return fmt.Errorf("netsim: fluid path set without a class function has %d classes, want at most 1", len(p.Paths))
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
		if p.Counts[c] < 0 {
			return fmt.Errorf("netsim: fluid path class %d counts %d flows", c, p.Counts[c])
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

// FluidPaths builds the dumbbell's path set for senders flows: its
// bottleneck, the receiver-ToR downlink port, at HostLinkBps with the
// config's queue capacity and ECN threshold, which each flow crosses
// alone at BaseRTT. That is one queue and one path class, so the build
// costs the same few allocations at any incast degree. The host NIC
// queues are omitted, as on a Clos (the fluid injection rate is capped at
// the host line rate instead), and so is the core link.
func (c DumbbellConfig) FluidPaths(senders int) (*FluidPaths, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if senders <= 0 || senders > math.MaxInt32 {
		return nil, fmt.Errorf("netsim: fluid dumbbell needs 1 to %d senders (got %d)", math.MaxInt32, senders)
	}
	p := &FluidPaths{
		Queues:  []FluidQueue{c.fluidQueue("bottleneck", c.HostLinkBps)},
		Paths:   [][]int32{{0}},
		BaseRTT: []sim.Time{c.BaseRTT()},
		Counts:  []int32{int32(senders)},
		Stage:   []int{0},
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// EndpointFill writes the endpoints of flows lo, lo+1, ... into srcs and
// dsts, which have equal lengths: flow lo+k runs from srcs[k] to dsts[k].
// It must write the same endpoints for a flow every time it is asked.
type EndpointFill func(lo int, srcs, dsts []NodeID)

// endpointChunk is the number of flows FluidPathsFrom, and a Clos path
// set's class function, take from an EndpointFill at a time.
const endpointChunk = 4096

// FluidPaths builds the queue network an incast's data packets traverse
// over this fabric: flow i runs from host srcs[i] to host dsts[i] with
// FlowID i+1, exactly as the packet workload numbers its senders. Queues
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
// uplink=0, spine downlink=1, leaf downlink=2 (0 when no flow crosses the
// fabric), so every path is stage-monotonic. The bottleneck is dsts[0]'s
// leaf port. Path classes get dense IDs in the order their first flows
// appear. ClassOf reads the endpoints back from srcs and dsts, which must
// not change afterwards.
func (c ClosConfig) FluidPaths(srcs, dsts []NodeID) (*FluidPaths, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if len(srcs) == 0 || len(srcs) != len(dsts) {
		return nil, fmt.Errorf("netsim: fluid paths need matching src/dst lists (got %d/%d)", len(srcs), len(dsts))
	}
	b := c.newPathBuilder(len(srcs), func(lo int, s, d []NodeID) {
		copy(s, srcs[lo:])
		copy(d, dsts[lo:])
	})
	if err := b.add(0, srcs, dsts); err != nil {
		return nil, err
	}
	return b.finish()
}

// FluidPathsFrom builds the path set FluidPaths builds for n flows whose
// endpoints fill writes, taking them a few thousand flows at a time, so
// the build never holds the whole endpoint lists. The class function
// asks fill again for the flows it resolves.
func (c ClosConfig) FluidPathsFrom(n int, fill EndpointFill) (*FluidPaths, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("netsim: fluid paths need at least one flow (got %d)", n)
	}
	b := c.newPathBuilder(n, fill)
	m := min(n, endpointChunk)
	srcs, dsts := make([]NodeID, m), make([]NodeID, m)
	for lo := 0; lo < n; lo += m {
		k := min(m, n-lo)
		fill(lo, srcs[:k], dsts[:k])
		if err := b.add(lo, srcs[:k], dsts[:k]); err != nil {
			return nil, err
		}
	}
	return b.finish()
}

// closClasses is a Clos path set's class function. A same-rack flow's
// path is fixed by its destination host, and a cross-rack flow's by
// (destination host, source rack, ECMP spine). So each destination,
// numbered densely as it first appears, owns a block of 1+Racks*Spines
// class slots — slot 0 for same-rack flows, 1+srcRack*Spines+spine for
// cross-rack ones — and a flow's class is its slot's entry in the table,
// re-derived from the endpoints fill writes.
type closClasses struct {
	fill EndpointFill
	// Fields of the ClosConfig the slot needs; copying them keeps the
	// per-flow loops off the config.
	hpr, spines, width int
	seed               uint64
	// dst numbers the destination hosts; slots[d*width+k] is the class
	// of destination d's slot k, -1 where no flow used it.
	dst   map[NodeID]int32
	slots []int32
}

// slot returns flow i's class slot under its destination.
func (cl *closClasses) slot(i int, src, dst NodeID) int {
	srcRack, dstRack := int(src)/cl.hpr, int(dst)/cl.hpr
	if srcRack == dstRack {
		return 0
	}
	return 1 + srcRack*cl.spines + ECMPIndex(cl.seed, FlowID(i+1), src, dst, cl.spines)
}

// classes resolves flows lo, lo+1, ... through the slot table, reading
// their endpoints back from fill a chunk at a time.
func (cl *closClasses) classes(lo int, out []int32) {
	m := min(len(out), endpointChunk)
	srcs, dsts := make([]NodeID, m), make([]NodeID, m)
	lastDst, lastD := NodeID(-1), int32(-1)
	for done := 0; done < len(out); done += m {
		k := min(m, len(out)-done)
		cl.fill(lo+done, srcs[:k], dsts[:k])
		for j, src := range srcs[:k] {
			if dst := dsts[j]; dst != lastDst {
				d, ok := cl.dst[dst]
				if !ok {
					d = -1
				}
				lastDst, lastD = dst, d
			}
			out[done+j] = -1
			if lastD >= 0 {
				if s := int(lastD)*cl.width + cl.slot(lo+done+j, src, lastDst); uint(s) < uint(len(cl.slots)) {
					out[done+j] = cl.slots[s]
				}
			}
		}
	}
}

// pathBuilder is one Clos path-set build in progress. Port indices
// resolve positionally — uplink per (source rack, spine), spine downlink
// per (spine, destination rack) — so the per-flow loop never formats a
// key or hashes a string.
type pathBuilder struct {
	c            ClosConfig
	p            *FluidPaths
	cl           *closClasses
	upIdx, sdIdx []int32
	// down is each destination's leaf downlink queue.
	down []int32
	// hops backs every class path. Each is at most 3 hops, carved from
	// this one array, which grows by appending (a carved path keeps the
	// array it was cut from) and is sliced with full capacity bounds, so
	// paths never grow into each other and a path set costs a handful of
	// allocations at any class count.
	hops []int32
	// lastDst and lastD cache the last destination looked up: flows come
	// in runs to one aggregator.
	lastDst NodeID
	lastD   int32
}

func (c ClosConfig) newPathBuilder(n int, fill EndpointFill) *pathBuilder {
	width := 1 + c.Racks*c.Spines
	// Sized for up to one destination per rack, the multi-aggregator
	// layout; more destinations grow the slices.
	classes := min(n, c.Racks*width)
	return &pathBuilder{
		c: c,
		p: &FluidPaths{
			Paths:   make([][]int32, 0, classes),
			BaseRTT: make([]sim.Time, 0, classes),
			Counts:  make([]int32, 0, classes),
		},
		cl: &closClasses{
			fill: fill, hpr: c.HostsPerRack, spines: c.Spines, width: width, seed: c.ECMPSeed,
			dst:   make(map[NodeID]int32, c.Racks),
			slots: make([]int32, 0, c.Racks*width),
		},
		upIdx:   newPortIndex(c.Racks * c.Spines),
		sdIdx:   newPortIndex(c.Spines * c.Racks),
		down:    make([]int32, 0, c.Racks),
		hops:    make([]int32, 0, 3*classes),
		lastDst: -1,
	}
}

// add routes flows lo, lo+1, ... from srcs to dsts, counting each into
// its class and creating classes, and their queues, as they first
// appear.
func (b *pathBuilder) add(lo int, srcs, dsts []NodeID) error {
	cl := b.cl
	hosts, hpr, spines, seed, width := b.c.Hosts(), cl.hpr, cl.spines, cl.seed, cl.width
	slots, counts := cl.slots, b.p.Counts
	lastDst, lastD := b.lastDst, b.lastD
	dsts = dsts[:len(srcs)]
	for k, src := range srcs {
		dst := dsts[k]
		if int(src) < 0 || int(src) >= hosts || int(dst) < 0 || int(dst) >= hosts {
			return fmt.Errorf("netsim: fluid flow %d endpoints %d->%d outside the %d fabric hosts", lo+k, src, dst, hosts)
		}
		if src == dst {
			return fmt.Errorf("netsim: fluid flow %d sends host %d to itself", lo+k, src)
		}
		if dst != lastDst {
			lastDst, lastD = dst, b.destination(dst)
			slots = cl.slots
		}
		// closClasses.slot, spelled out: the per-flow loop is set-up's hot
		// path, and the call does not inline.
		slot := 0
		if srcRack, dstRack := int(src)/hpr, int(dst)/hpr; srcRack != dstRack {
			slot = 1 + srcRack*spines + ECMPIndex(seed, FlowID(lo+k+1), src, dst, spines)
		}
		s := int(lastD)*width + slot
		ci := slots[s]
		if ci < 0 {
			ci = b.newClass(lastD, slot, int(dst)/hpr)
			slots[s] = ci
			counts = b.p.Counts
		}
		counts[ci]++
	}
	b.lastDst, b.lastD = lastDst, lastD
	return nil
}

// destination returns dst's dense number, adding its leaf downlink queue
// and its block of class slots when it first appears.
func (b *pathBuilder) destination(dst NodeID) int32 {
	if d, ok := b.cl.dst[dst]; ok {
		return d
	}
	d := int32(len(b.down))
	b.cl.dst[dst] = d
	rack := int(dst) / b.c.HostsPerRack
	name := fmt.Sprintf("leaf-%d-port-%d", rack, int(dst)-rack*b.c.HostsPerRack)
	b.down = append(b.down, b.addQueue(name, b.c.HostLinkBps, 2))
	for k := 0; k < b.cl.width; k++ {
		b.cl.slots = append(b.cl.slots, -1)
	}
	return d
}

// newClass adds the path class of slot under destination d, in rack
// dstRack, with any uplink or spine port it is the first to cross: a port
// is only ever missing when its class is new, so queues still appear in
// per-flow first-use order.
func (b *pathBuilder) newClass(d int32, slot, dstRack int) int32 {
	p, c := b.p, b.c
	ci := int32(len(p.Paths))
	start := len(b.hops)
	if slot == 0 {
		b.hops = append(b.hops, b.down[d])
		p.BaseRTT = append(p.BaseRTT, c.BaseRTT(false))
	} else {
		srcRack, s := (slot-1)/c.Spines, (slot-1)%c.Spines
		up := b.upIdx[srcRack*c.Spines+s]
		if up < 0 {
			up = b.addQueue(fmt.Sprintf("leaf-%d-uplink-%d", srcRack, s), c.SpineLinkBps, 0)
			b.upIdx[srcRack*c.Spines+s] = up
		}
		sd := b.sdIdx[s*c.Racks+dstRack]
		if sd < 0 {
			sd = b.addQueue(fmt.Sprintf("spine-%d-port-%d", s, dstRack), c.SpineLinkBps, 1)
			b.sdIdx[s*c.Racks+dstRack] = sd
		}
		b.hops = append(b.hops, up, sd, b.down[d])
		p.BaseRTT = append(p.BaseRTT, c.BaseRTT(true))
	}
	p.Paths = append(p.Paths, b.hops[start:len(b.hops):len(b.hops)])
	p.Counts = append(p.Counts, 0)
	return ci
}

func (b *pathBuilder) addQueue(name string, rateBps int64, stage int) int32 {
	p := b.p
	j := int32(len(p.Queues))
	p.Queues = append(p.Queues, b.c.fluidQueue(name, rateBps))
	p.Stage = append(p.Stage, stage)
	return j
}

// finish names the bottleneck, dsts[0]'s leaf port, hands the path set
// its class function, and validates it. A path set in which no flow
// crosses the fabric has leaf downlinks alone, and they become stage 0:
// a run walks every stage up to the last once per step.
func (b *pathBuilder) finish() (*FluidPaths, error) {
	p := b.p
	p.Bottleneck = int(b.down[0])
	if len(p.Queues) == len(b.down) {
		clear(p.Stage)
	}
	p.classes = b.cl.classes
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
