package netsim

import (
	"fmt"

	"incastlab/internal/sim"
)

// PacketHandler consumes packets delivered to a host, i.e. the host's
// transport layer.
type PacketHandler interface {
	HandlePacket(p *Packet)
}

// PacketHandlerFunc adapts a function to the PacketHandler interface.
type PacketHandlerFunc func(p *Packet)

// HandlePacket calls f(p).
func (f PacketHandlerFunc) HandlePacket(p *Packet) { f(p) }

// Host is an endpoint: it owns one uplink (its NIC) and hands packets
// addressed to it to an attached transport handler. Packets addressed
// elsewhere are forwarded out the uplink, so a Host can also source traffic.
type Host struct {
	id     NodeID
	name   string
	eng    *sim.Engine
	uplink *Link

	handler PacketHandler

	// pool, when set, supplies outbound packets (AllocPacket) and receives
	// delivered ones back after the transport handler returns.
	pool *PacketPool

	// rxPackets/rxBytes count packets delivered to this host (IP bytes).
	rxPackets int64
	rxBytes   int64

	// onReceive, if set, observes every delivered packet before the
	// transport handler; Millisampler instrumentation hooks in here.
	onReceive func(now sim.Time, p *Packet)
}

// NewHost creates a host. The uplink must be set with SetUplink before the
// host sends traffic.
func NewHost(eng *sim.Engine, id NodeID, name string) *Host {
	return &Host{id: id, name: name, eng: eng}
}

// ID implements Device.
func (h *Host) ID() NodeID { return h.id }

// Name implements Device.
func (h *Host) Name() string { return h.name }

// SetUplink attaches the host's NIC egress link.
func (h *Host) SetUplink(l *Link) { h.uplink = l }

// Uplink returns the host's NIC egress link.
func (h *Host) Uplink() *Link { return h.uplink }

// Attach installs the transport handler for packets addressed to this host.
// When the host has a packet pool, delivered packets are recycled as soon as
// HandlePacket returns, so handlers must not retain packet pointers.
func (h *Host) Attach(handler PacketHandler) { h.handler = handler }

// SetPool attaches a packet pool shared by the topology. Hosts without a
// pool allocate fresh packets and leave delivery to the garbage collector.
func (h *Host) SetPool(pp *PacketPool) { h.pool = pp }

// AllocPacket returns a zeroed packet for this host to send — from the pool
// when one is attached, freshly allocated otherwise.
func (h *Host) AllocPacket() *Packet {
	if h.pool == nil {
		return &Packet{}
	}
	return h.pool.Get()
}

// SetOnReceive installs a tap observing every delivered packet (nil to
// remove).
func (h *Host) SetOnReceive(fn func(now sim.Time, p *Packet)) { h.onReceive = fn }

// RxPackets returns the count of packets delivered to this host.
func (h *Host) RxPackets() int64 { return h.rxPackets }

// RxBytes returns the IP bytes delivered to this host.
func (h *Host) RxBytes() int64 { return h.rxBytes }

// Send transmits p out the host's uplink.
func (h *Host) Send(p *Packet) {
	if h.uplink == nil {
		panic(fmt.Sprintf("netsim: host %q has no uplink", h.name))
	}
	h.uplink.Send(p)
}

// Receive implements Device. Packets for this host go to the transport
// handler; anything else is forwarded out the uplink.
func (h *Host) Receive(p *Packet) {
	if p.Dst != h.id {
		h.Send(p)
		return
	}
	h.rxPackets++
	h.rxBytes += int64(p.IPBytes())
	if h.onReceive != nil {
		h.onReceive(h.eng.Now(), p)
	}
	if h.handler != nil {
		h.handler.HandlePacket(p)
	}
	// Delivery is this packet's end of life; recycle pool-owned packets.
	h.pool.Put(p)
}

// Switch forwards packets to the output port (Link) chosen by a static
// destination-based routing table, with an optional ECMP fallback group
// for destinations without a static route (leaf uplinks toward the spines
// in a Clos fabric).
type Switch struct {
	id     NodeID
	name   string
	routes map[NodeID]*Link

	// ecmp is the equal-cost fallback group: destinations without a static
	// route hash over these links. Empty means no fallback.
	ecmp     []*Link
	ecmpSeed uint64

	// pool, when set, recycles packets dropped for lack of a route.
	pool *PacketPool

	// noRouteDrops counts packets for which no route existed.
	noRouteDrops int64
}

// NewSwitch creates an empty switch.
func NewSwitch(id NodeID, name string) *Switch {
	return &Switch{id: id, name: name, routes: make(map[NodeID]*Link)}
}

// ID implements Device.
func (s *Switch) ID() NodeID { return s.id }

// Name implements Device.
func (s *Switch) Name() string { return s.name }

// AddRoute directs packets destined to dst out the given link.
func (s *Switch) AddRoute(dst NodeID, l *Link) { s.routes[dst] = l }

// SetECMPGroup installs the equal-cost fallback: any packet whose
// destination has no static route is forwarded on links[ECMPIndex(seed,
// flow, src, dst, len(links))]. The hash is a pure function of the seed and
// the packet's flow key, so all packets of one flow (in one direction) take
// the same path and a rerun with the same seed reproduces every path choice
// exactly; changing the seed reshuffles flow placement like a rehashed
// production fabric.
func (s *Switch) SetECMPGroup(seed uint64, links []*Link) {
	s.ecmpSeed = seed
	s.ecmp = links
}

// NoRouteDrops counts packets dropped for lack of a route.
func (s *Switch) NoRouteDrops() int64 { return s.noRouteDrops }

// SetPool attaches a packet pool so that no-route drops are recycled
// instead of leaking out of circulation.
func (s *Switch) SetPool(pp *PacketPool) { s.pool = pp }

// Receive implements Device: look up the output port and send, falling
// back to the ECMP group for destinations without a static route.
func (s *Switch) Receive(p *Packet) {
	l, ok := s.routes[p.Dst]
	if !ok {
		if len(s.ecmp) > 0 {
			s.ecmp[ECMPIndex(s.ecmpSeed, p.Flow, p.Src, p.Dst, len(s.ecmp))].Send(p)
			return
		}
		s.noRouteDrops++
		s.pool.Put(p)
		return
	}
	l.Send(p)
}

// ECMPIndex picks the equal-cost path for a flow: a deterministic
// splitmix64-style hash of (seed, flow, src, dst) reduced modulo n. It is
// exported so topologies and tests can predict path assignments without
// sending packets.
func ECMPIndex(seed uint64, flow FlowID, src, dst NodeID, n int) int {
	if n <= 1 {
		return 0
	}
	x := seed ^ (uint64(uint32(flow))<<32 | uint64(uint32(src)))
	x = ecmpMix(x)
	x = ecmpMix(x ^ uint64(uint32(dst)))
	if n&(n-1) == 0 {
		return int(x & uint64(n-1)) // x % n without the division
	}
	return int(x % uint64(n))
}

// ecmpMix is the splitmix64 finalizer: a cheap, well-distributed bijection.
func ecmpMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
