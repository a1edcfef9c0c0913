package netsim

import (
	"fmt"

	"incastlab/internal/sim"
)

// DumbbellConfig describes the paper's Section 4 topology: senders, each
// on a 10 Gbps link to a sender-side ToR, a 100 Gbps inter-ToR link, and a
// 10 Gbps downlink from the receiver-side ToR to the receiver (to each
// receiver, when NewDumbbell puts several behind that ToR). The 10:1
// oversubscription between downlink and inter-ToR link is what makes the
// incast potent. The sender and receiver counts are arguments of
// NewDumbbell, not settings.
type DumbbellConfig struct {
	// PortConfig is the host links and every switch port; the shared
	// buffer, when configured, pools the receiver-ToR port queues.
	PortConfig
	// CoreLinkBps is the ToR-ToR line rate (default 100 Gbps).
	CoreLinkBps int64
	// CorePropDelay is the one-way ToR-ToR propagation delay, chosen with
	// HostPropDelay so the default base RTT is ~30 us.
	CorePropDelay sim.Time
}

// DefaultDumbbellConfig returns the paper's simulation parameters:
// 10/100 Gbps links, ~30 us RTT, 2 MB (1333-packet) queues, ECN threshold
// 65 packets, no shared-buffer contention.
func DefaultDumbbellConfig() DumbbellConfig {
	return DumbbellConfig{
		PortConfig:    DefaultPortConfig(),
		CoreLinkBps:   100 * Gbps,
		CorePropDelay: 4500 * sim.Nanosecond,
	}
}

// BaseRTT returns the no-queue round-trip time for a full-size data packet
// and its 40-byte ACK across the dumbbell. Per-hop serialization terms are
// rounded to the nearest nanosecond (not truncated): for the paper's
// 10/100 Gbps rates the two agree, but rates that do not divide 1e9 would
// otherwise shave up to a nanosecond per hop off every derived constant.
func (c DumbbellConfig) BaseRTT() sim.Time {
	dataWire := MTU + EthernetOverhead
	ackWire := HeaderBytes + EthernetOverhead
	var rtt sim.Time
	// Data path: host NIC, core link, receiver downlink.
	rtt += SerializationDelayNearest(dataWire, c.HostLinkBps)
	rtt += SerializationDelayNearest(dataWire, c.CoreLinkBps)
	rtt += SerializationDelayNearest(dataWire, c.HostLinkBps)
	// ACK path.
	rtt += SerializationDelayNearest(ackWire, c.HostLinkBps)
	rtt += SerializationDelayNearest(ackWire, c.CoreLinkBps)
	rtt += SerializationDelayNearest(ackWire, c.HostLinkBps)
	// Propagation, both ways.
	rtt += 2 * (2*c.HostPropDelay + c.CorePropDelay)
	return rtt
}

// BDPBytes returns the bandwidth-delay product of the bottleneck downlink,
// rounded to the nearest byte.
func (c DumbbellConfig) BDPBytes() int { return c.PortConfig.BDPBytes(c.BaseRTT()) }

// Validate rejects link rates the RTT, BDP and link timing would panic
// on, with an actionable error for the scenario layer.
func (c DumbbellConfig) Validate() error {
	if c.HostLinkBps <= 0 || c.CoreLinkBps <= 0 {
		return fmt.Errorf("netsim: dumbbell link rates must be positive (host %d bps, core %d bps)",
			c.HostLinkBps, c.CoreLinkBps)
	}
	return nil
}

// Dumbbell is the constructed topology.
type Dumbbell struct {
	Config  DumbbellConfig
	Eng     *sim.Engine
	Senders []*Host
	// Receivers are the hosts behind the receiver ToR; Receiver is
	// Receivers[0], the incast's aggregator.
	Receivers []*Host
	Receiver  *Host
	// SenderToR aggregates the senders; ReceiverToR owns the bottleneck.
	SenderToR   *Switch
	ReceiverToR *Switch
	// Downlinks[i] is the receiver-ToR port to Receivers[i]. Bottleneck
	// is Downlinks[0]: the queue under study.
	Downlinks  []*Link
	Bottleneck *Link
	// Uplink is the sender-ToR to receiver-ToR link.
	Uplink *Link
	// Shared is the receiver-ToR shared buffer, nil unless configured.
	Shared *SharedBuffer
	// Pool recycles packets across all hosts in the topology.
	Pool *PacketPool

	// links retains every link in the topology (NIC uplinks, ToR ports, and
	// the inter-ToR pair) so that audits can enumerate all in-flight packets.
	links []*Link
}

// BottleneckQueue returns the queue of the receiver-ToR downlink port.
func (d *Dumbbell) BottleneckQueue() *Queue { return d.Bottleneck.Queue() }

// AllLinks returns every link in the topology.
func (d *Dumbbell) AllLinks() []*Link { return d.links }

// NewDumbbell wires up the topology on eng with senders hosts behind the
// sender ToR and receivers hosts behind the receiver ToR, each receiver
// on its own downlink port. Several receivers make the rack of the
// paper's Section 3.4, where "simultaneous burst events to other hosts on
// the same rack ... can consume shared switch memory": with a shared
// buffer configured, every downlink draws on it. A nil pool gets a fresh
// one; an injected pool lets sweep runners carry a warm free list across
// consecutive runs, and must belong to the same goroutine as eng (pools,
// like engines, are single-goroutine by design).
//
// Node IDs: receivers = 0..R-1, senders = R..R+N-1, sender ToR = R+N,
// receiver ToR = R+N+1, for R receivers and N senders.
func NewDumbbell(eng *sim.Engine, cfg DumbbellConfig, senders, receivers int, pool *PacketPool) *Dumbbell {
	if senders <= 0 || receivers <= 0 {
		panic(fmt.Sprintf("netsim: dumbbell needs at least one sender and one receiver (got %d and %d)", senders, receivers))
	}
	if pool == nil {
		pool = NewPacketPool()
	}
	d := &Dumbbell{Config: cfg, Eng: eng, Pool: pool, Shared: cfg.sharedBuffer()}

	d.SenderToR = NewSwitch(NodeID(receivers+senders), "tor-senders")
	d.SenderToR.SetPool(d.Pool)
	d.ReceiverToR = NewSwitch(NodeID(receivers+senders+1), "tor-receiver")
	d.ReceiverToR.SetPool(d.Pool)

	// Every link shares the topology pool (so drops recycle) and is
	// retained for audit enumeration.
	newLink := func(lc LinkConfig) *Link {
		l := NewLink(eng, lc)
		l.SetPool(d.Pool)
		d.links = append(d.links, l)
		return l
	}

	// Inter-ToR links, both directions.
	d.Uplink = newLink(LinkConfig{
		Name:         "tor-senders->tor-receiver",
		BandwidthBps: cfg.CoreLinkBps,
		PropDelay:    cfg.CorePropDelay,
		Queue:        cfg.queue("uplink", nil),
		Dst:          d.ReceiverToR,
	})
	reverseCore := newLink(LinkConfig{
		Name:         "tor-receiver->tor-senders",
		BandwidthBps: cfg.CoreLinkBps,
		PropDelay:    cfg.CorePropDelay,
		Queue:        cfg.queue("core-reverse", d.Shared),
		Dst:          d.SenderToR,
	})

	// Receivers, each behind a receiver-ToR downlink at host line rate
	// that participates in the shared buffer. Receiver 0's is the
	// bottleneck all figures study.
	d.Receivers = make([]*Host, receivers)
	d.Downlinks = make([]*Link, receivers)
	for i := range d.Receivers {
		id := NodeID(i)
		name, port := "receiver", "bottleneck"
		if i > 0 {
			name, port = fmt.Sprintf("receiver-%d", i), fmt.Sprintf("downlink-%d", i)
		}
		h := NewHost(eng, id, name)
		h.SetPool(d.Pool)
		d.Downlinks[i] = newLink(LinkConfig{
			Name:         "tor-receiver->" + name,
			BandwidthBps: cfg.HostLinkBps,
			PropDelay:    cfg.HostPropDelay,
			Queue:        cfg.queue(port, d.Shared),
			Dst:          h,
		})
		d.ReceiverToR.AddRoute(id, d.Downlinks[i])
		d.SenderToR.AddRoute(id, d.Uplink)
		// Receiver NIC: receiver -> receiver ToR (the ACK path).
		h.SetUplink(newLink(LinkConfig{
			Name:         name + "->tor-receiver",
			BandwidthBps: cfg.HostLinkBps,
			PropDelay:    cfg.HostPropDelay,
			// The host NIC queue is effectively unbounded: sender-side drops
			// would mask the ToR-queue behavior under study.
			Queue: NewQueue(QueueConfig{Name: name + "-nic"}),
			Dst:   d.ReceiverToR,
		}))
		d.Receivers[i] = h
	}
	d.Receiver, d.Bottleneck = d.Receivers[0], d.Downlinks[0]

	d.Senders = make([]*Host, senders)
	for i := range d.Senders {
		id := NodeID(receivers + i)
		h := NewHost(eng, id, fmt.Sprintf("sender-%d", i))
		h.SetPool(d.Pool)
		h.SetUplink(newLink(LinkConfig{
			Name:         fmt.Sprintf("sender-%d->tor-senders", i),
			BandwidthBps: cfg.HostLinkBps,
			PropDelay:    cfg.HostPropDelay,
			Queue:        NewQueue(QueueConfig{Name: fmt.Sprintf("sender-%d-nic", i)}),
			Dst:          d.SenderToR,
		}))
		// ToR port back down to this sender (ACK delivery).
		down := newLink(LinkConfig{
			Name:         fmt.Sprintf("tor-senders->sender-%d", i),
			BandwidthBps: cfg.HostLinkBps,
			PropDelay:    cfg.HostPropDelay,
			Queue:        cfg.queue(fmt.Sprintf("tor-senders-port-%d", i), nil),
			Dst:          h,
		})
		d.SenderToR.AddRoute(id, down)
		d.ReceiverToR.AddRoute(id, reverseCore)
		d.Senders[i] = h
	}
	return d
}
