// Package tcp implements a reliable byte-stream transport over netsim with
// pluggable congestion control — the mechanisms the paper's Section 4
// studies: window-limited transmission, cumulative ACKs with ECN echo,
// triple-duplicate-ACK fast retransmit, retransmission timeouts with a
// minimum RTO, and persistent connections whose congestion state survives
// across bursts (the root of the Section 4.3 divergence).
//
// The transport deliberately omits what the paper's simulations omit:
// connection handshakes (connections are persistent and pre-established),
// SACK (loss recovery is NewReno-style on cumulative ACKs), and flow
// control (receive windows are never the constraint in these workloads).
package tcp

import (
	"incastlab/internal/netsim"
	"incastlab/internal/sim"
)

// Hub demultiplexes packets delivered to a host among per-flow endpoints.
// One Hub is attached per host; senders and receivers register themselves.
//
// Demultiplexing goes through a dense window of handlers indexed by flow ID
// minus base, the first registered flow, so a delivery costs one bounds
// check and one load instead of a hash lookup. A flow that would leave the
// window less than half full goes to the sparse map instead: the app
// package registers a worker's request flow at 1<<20 + w beside its
// response flow w+1, and a window spanning both would hold a million empty
// slots. The window never holds more slots than twice its handlers, so it
// is no larger than the map it replaces.
type Hub struct {
	host   *netsim.Host
	base   netsim.FlowID
	window []netsim.PacketHandler
	held   int // non-nil window slots
	sparse map[netsim.FlowID]netsim.PacketHandler
}

// NewHub creates a hub and attaches it to the host.
func NewHub(h *netsim.Host) *Hub {
	hub := &Hub{host: h}
	h.Attach(hub)
	return hub
}

// Host returns the host this hub serves.
func (h *Hub) Host() *netsim.Host { return h.host }

// Register directs packets of the given flow to handler; registering a
// flow again replaces its handler. A flow goes to the window whenever the
// window covers it or can grow to, so its latest handler is found there
// before any older one in the map.
func (h *Hub) Register(flow netsim.FlowID, handler netsim.PacketHandler) {
	if len(h.window) == 0 {
		h.base = flow
	}
	lo := min(int64(flow), int64(h.base))
	hi := max(int64(flow), int64(h.base)+int64(len(h.window))-1)
	if span := hi - lo + 1; span > int64(len(h.window)) {
		if span > 2*int64(h.held+1) {
			if h.sparse == nil {
				h.sparse = make(map[netsim.FlowID]netsim.PacketHandler)
			}
			h.sparse[flow] = handler
			return
		}
		if below := int64(h.base) - lo; below > 0 {
			grown := make([]netsim.PacketHandler, span)
			copy(grown[below:], h.window)
			h.window, h.base = grown, flow
		} else {
			h.window = append(h.window, make([]netsim.PacketHandler, span-int64(len(h.window)))...)
		}
	}
	slot := &h.window[flow-h.base]
	if *slot == nil {
		h.held++
	}
	*slot = handler
}

// HandlePacket implements netsim.PacketHandler; unknown flows are dropped
// silently, as a real host would discard segments for closed ports.
func (h *Hub) HandlePacket(p *netsim.Packet) {
	if i := uint32(p.Flow - h.base); i < uint32(len(h.window)) {
		if ep := h.window[i]; ep != nil {
			ep.HandlePacket(p)
			return
		}
	}
	if ep, ok := h.sparse[p.Flow]; ok {
		ep.HandlePacket(p)
	}
}

// rttEstimator implements the standard SRTT/RTTVAR estimator (RFC 6298).
type rttEstimator struct {
	srtt    sim.Time
	rttvar  sim.Time
	hasSRTT bool
}

func (e *rttEstimator) sample(rtt sim.Time) {
	if !e.hasSRTT {
		e.srtt = rtt
		e.rttvar = rtt / 2
		e.hasSRTT = true
		return
	}
	dev := e.srtt - rtt
	if dev < 0 {
		dev = -dev
	}
	e.rttvar = (3*e.rttvar + dev) / 4
	e.srtt = (7*e.srtt + rtt) / 8
}

// rto returns the computed retransmission timeout bounded to [min, max].
func (e *rttEstimator) rto(min, max sim.Time) sim.Time {
	if !e.hasSRTT {
		return min
	}
	r := e.srtt + 4*e.rttvar
	if r < min {
		r = min
	}
	if r > max {
		r = max
	}
	return r
}
