package netsim

import (
	"fmt"

	"incastlab/internal/sim"
)

// DumbbellConfig describes the paper's Section 4 topology: N senders, each
// on a 10 Gbps link to a sender-side ToR, a 100 Gbps inter-ToR link, and a
// 10 Gbps downlink from the receiver-side ToR to the single receiver. The
// 10:1 oversubscription between downlink and inter-ToR link is what makes
// the incast potent.
type DumbbellConfig struct {
	// Senders is the number of sending hosts (the incast degree N).
	Senders int
	// HostLinkBps is the host-ToR line rate (default 10 Gbps).
	HostLinkBps int64
	// CoreLinkBps is the ToR-ToR line rate (default 100 Gbps).
	CoreLinkBps int64
	// HostPropDelay and CorePropDelay are one-way propagation delays,
	// chosen so the default base RTT is ~30 us.
	HostPropDelay sim.Time
	CorePropDelay sim.Time
	// QueueCapacityPackets and QueueCapacityBytes bound every switch port
	// queue (defaults: 1333 packets / 2 MB, the paper's deep queue).
	QueueCapacityPackets int
	QueueCapacityBytes   int
	// ECNThresholdPackets is the switch marking threshold K (default 65).
	ECNThresholdPackets int
	// ECNAverageWeight, when positive, switches marking to a RED-style
	// EWMA of occupancy (ablation only; the paper marks instantaneously).
	ECNAverageWeight float64
	// SharedBufferBytes, if positive, pools the receiver-ToR port queues
	// into a shared memory of this size with DT factor SharedBufferAlpha.
	SharedBufferBytes int
	SharedBufferAlpha float64
}

// DefaultDumbbellConfig returns the paper's simulation parameters for n
// senders: 10/100 Gbps links, ~30 us RTT, 2 MB (1333-packet) queues, ECN
// threshold 65 packets, no shared-buffer contention.
func DefaultDumbbellConfig(n int) DumbbellConfig {
	return DumbbellConfig{
		Senders:              n,
		HostLinkBps:          10 * Gbps,
		CoreLinkBps:          100 * Gbps,
		HostPropDelay:        4570 * sim.Nanosecond,
		CorePropDelay:        4500 * sim.Nanosecond,
		QueueCapacityPackets: 1333,
		QueueCapacityBytes:   2 * 1000 * 1000,
		ECNThresholdPackets:  65,
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
func (c DumbbellConfig) BDPBytes() int {
	return int((int64(c.BaseRTT())*c.HostLinkBps + 4_000_000_000) / 8_000_000_000)
}

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
	Config   DumbbellConfig
	Eng      *sim.Engine
	Senders  []*Host
	Receiver *Host
	// SenderToR aggregates the senders; ReceiverToR owns the bottleneck.
	SenderToR   *Switch
	ReceiverToR *Switch
	// Bottleneck is the receiver-ToR downlink: the queue under study.
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

// NewDumbbell wires up the topology on eng.
//
// Node IDs: receiver = 0, senders = 1..N, sender ToR = N+1,
// receiver ToR = N+2.
func NewDumbbell(eng *sim.Engine, cfg DumbbellConfig) *Dumbbell {
	return NewDumbbellWithPool(eng, cfg, nil)
}

// NewDumbbellWithPool is NewDumbbell with an injected packet pool, so
// sweep runners can carry a warm free list across consecutive runs. A nil
// pool gets a fresh one. The pool must belong to the same goroutine as eng
// (pools, like engines, are single-goroutine by design).
func NewDumbbellWithPool(eng *sim.Engine, cfg DumbbellConfig, pool *PacketPool) *Dumbbell {
	if cfg.Senders <= 0 {
		panic("netsim: dumbbell needs at least one sender")
	}
	if pool == nil {
		pool = NewPacketPool()
	}
	d := &Dumbbell{Config: cfg, Eng: eng, Pool: pool}

	d.Receiver = NewHost(eng, 0, "receiver")
	d.Receiver.SetPool(d.Pool)
	d.SenderToR = NewSwitch(NodeID(cfg.Senders+1), "tor-senders")
	d.SenderToR.SetPool(d.Pool)
	d.ReceiverToR = NewSwitch(NodeID(cfg.Senders+2), "tor-receiver")
	d.ReceiverToR.SetPool(d.Pool)

	// Every link shares the topology pool (so drops recycle) and is
	// retained for audit enumeration.
	newLink := func(lc LinkConfig) *Link {
		l := NewLink(eng, lc)
		l.SetPool(d.Pool)
		d.links = append(d.links, l)
		return l
	}

	if cfg.SharedBufferBytes > 0 {
		alpha := cfg.SharedBufferAlpha
		if alpha <= 0 {
			alpha = 1
		}
		d.Shared = NewSharedBuffer(cfg.SharedBufferBytes, alpha)
	}

	portQueue := func(name string, shared bool) *Queue {
		qc := QueueConfig{
			Name:                name,
			CapacityBytes:       cfg.QueueCapacityBytes,
			CapacityPackets:     cfg.QueueCapacityPackets,
			ECNThresholdPackets: cfg.ECNThresholdPackets,
			ECNAverageWeight:    cfg.ECNAverageWeight,
		}
		if shared && d.Shared != nil {
			qc.Shared = d.Shared
		}
		return NewQueue(qc)
	}

	// Bottleneck: receiver ToR -> receiver, at host line rate. This is the
	// queue all figures study. It participates in the shared buffer.
	d.Bottleneck = newLink(LinkConfig{
		Name:         "tor-receiver->receiver",
		BandwidthBps: cfg.HostLinkBps,
		PropDelay:    cfg.HostPropDelay,
		Queue:        portQueue("bottleneck", true),
		Dst:          d.Receiver,
	})
	d.ReceiverToR.AddRoute(0, d.Bottleneck)

	// Inter-ToR links, both directions.
	d.Uplink = newLink(LinkConfig{
		Name:         "tor-senders->tor-receiver",
		BandwidthBps: cfg.CoreLinkBps,
		PropDelay:    cfg.CorePropDelay,
		Queue:        portQueue("uplink", false),
		Dst:          d.ReceiverToR,
	})
	d.SenderToR.AddRoute(0, d.Uplink)
	reverseCore := newLink(LinkConfig{
		Name:         "tor-receiver->tor-senders",
		BandwidthBps: cfg.CoreLinkBps,
		PropDelay:    cfg.CorePropDelay,
		Queue:        portQueue("core-reverse", true),
		Dst:          d.SenderToR,
	})

	// Receiver NIC: receiver -> receiver ToR (the ACK path).
	d.Receiver.SetUplink(newLink(LinkConfig{
		Name:         "receiver->tor-receiver",
		BandwidthBps: cfg.HostLinkBps,
		PropDelay:    cfg.HostPropDelay,
		// The host NIC queue is effectively unbounded: sender-side drops
		// would mask the ToR-queue behavior under study.
		Queue: NewQueue(QueueConfig{Name: "receiver-nic"}),
		Dst:   d.ReceiverToR,
	}))

	d.Senders = make([]*Host, cfg.Senders)
	for i := 0; i < cfg.Senders; i++ {
		id := NodeID(i + 1)
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
			Queue:        portQueue(fmt.Sprintf("tor-senders-port-%d", i), false),
			Dst:          h,
		})
		d.SenderToR.AddRoute(id, down)
		d.ReceiverToR.AddRoute(id, reverseCore)
		d.Senders[i] = h
	}
	return d
}
