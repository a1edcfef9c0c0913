package netsim

import (
	"fmt"

	"incastlab/internal/sim"
)

// DumbbellConfig describes the paper's Section 4 topology: N senders, each
// on a 10 Gbps link to a sender-side ToR, a 100 Gbps inter-ToR link, and a
// 10 Gbps downlink from the receiver-side ToR to the receiver (to each
// receiver, when NewDumbbellReceivers puts several behind that ToR). The
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
	return NewDumbbellReceivers(eng, cfg, 1, pool)
}

// NewDumbbellReceivers is NewDumbbellWithPool with r receivers behind the
// receiver ToR, each on its own downlink port: the rack of the paper's
// Section 3.4, where "simultaneous burst events to other hosts on the
// same rack ... can consume shared switch memory". With a shared buffer
// configured, every downlink draws on it.
//
// Node IDs: receivers = 0..r-1, senders = r..r+N-1, sender ToR = r+N,
// receiver ToR = r+N+1; for r = 1, NewDumbbell's numbering.
func NewDumbbellReceivers(eng *sim.Engine, cfg DumbbellConfig, r int, pool *PacketPool) *Dumbbell {
	if cfg.Senders <= 0 || r <= 0 {
		panic(fmt.Sprintf("netsim: dumbbell needs at least one sender and one receiver (got %d and %d)", cfg.Senders, r))
	}
	if pool == nil {
		pool = NewPacketPool()
	}
	d := &Dumbbell{Config: cfg, Eng: eng, Pool: pool}

	d.SenderToR = NewSwitch(NodeID(r+cfg.Senders), "tor-senders")
	d.SenderToR.SetPool(d.Pool)
	d.ReceiverToR = NewSwitch(NodeID(r+cfg.Senders+1), "tor-receiver")
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

	// Inter-ToR links, both directions.
	d.Uplink = newLink(LinkConfig{
		Name:         "tor-senders->tor-receiver",
		BandwidthBps: cfg.CoreLinkBps,
		PropDelay:    cfg.CorePropDelay,
		Queue:        portQueue("uplink", false),
		Dst:          d.ReceiverToR,
	})
	reverseCore := newLink(LinkConfig{
		Name:         "tor-receiver->tor-senders",
		BandwidthBps: cfg.CoreLinkBps,
		PropDelay:    cfg.CorePropDelay,
		Queue:        portQueue("core-reverse", true),
		Dst:          d.SenderToR,
	})

	// Receivers, each behind a receiver-ToR downlink at host line rate
	// that participates in the shared buffer. Receiver 0's is the
	// bottleneck all figures study.
	d.Receivers = make([]*Host, r)
	d.Downlinks = make([]*Link, r)
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
			Queue:        portQueue(port, true),
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

	d.Senders = make([]*Host, cfg.Senders)
	for i := range d.Senders {
		id := NodeID(r + i)
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
