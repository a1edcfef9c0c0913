package netsim

import (
	"incastlab/internal/sim"
)

// Link is a unidirectional point-to-point link: an egress queue, a
// transmitter that serializes at a fixed bandwidth, and a propagation delay
// to the destination device. Full-duplex links are modeled as two Links.
//
// The Link owns its egress queue: a device "sends on a port" by calling
// Send, which enqueues and, if the transmitter is idle, begins serialization.
// After serialization the packet propagates and is delivered to the
// destination device's Receive.
type Link struct {
	eng          *sim.Engine
	name         string
	bandwidthBps int64
	propDelay    sim.Time
	queue        *Queue
	dst          Device
	busy         bool

	// current is the packet being serialized; inflight holds the packets in
	// propagation, in delivery order. Because serialization is strictly
	// serial and propDelay is constant, delivery times are monotonic and the
	// engine's FIFO tie-break preserves push order — so one prebuilt closure
	// pair (txDoneFn, deliverFn) replaces the two per-packet closures. The
	// ring's size follows the packets in flight (about one bandwidth-delay
	// product), not the length of a back-to-back stream.
	current   *Packet
	inflight  packetRing
	txDoneFn  func()
	deliverFn func()

	// pool, when set, recycles packets the egress queue tail-drops. Without
	// it a dropped pooled packet would be lost to the pool forever (it is
	// never delivered, so the terminal Host cannot recycle it).
	pool *PacketPool

	// txPackets and txBytes count packets that completed serialization.
	txPackets int64
	txBytes   int64
}

// LinkConfig configures a Link.
type LinkConfig struct {
	Name string
	// BandwidthBps is the line rate in bits per second.
	BandwidthBps int64
	// PropDelay is the one-way propagation delay.
	PropDelay sim.Time
	// Queue is the egress queue; required.
	Queue *Queue
	// Dst is the device at the far end; required.
	Dst Device
}

// NewLink builds a link from cfg.
func NewLink(eng *sim.Engine, cfg LinkConfig) *Link {
	if cfg.Queue == nil {
		panic("netsim: link requires an egress queue")
	}
	if cfg.Dst == nil {
		panic("netsim: link requires a destination device")
	}
	if cfg.BandwidthBps <= 0 {
		panic("netsim: link bandwidth must be positive")
	}
	if cfg.PropDelay < 0 {
		panic("netsim: link propagation delay must be non-negative")
	}
	l := &Link{
		eng:          eng,
		name:         cfg.Name,
		bandwidthBps: cfg.BandwidthBps,
		propDelay:    cfg.PropDelay,
		queue:        cfg.Queue,
		dst:          cfg.Dst,
	}
	l.txDoneFn = l.txDone
	l.deliverFn = l.deliver
	return l
}

// Name returns the link's label.
func (l *Link) Name() string { return l.name }

// Queue returns the link's egress queue (for instrumentation).
func (l *Link) Queue() *Queue { return l.queue }

// BandwidthBps returns the link's line rate.
func (l *Link) BandwidthBps() int64 { return l.bandwidthBps }

// PropDelay returns the link's one-way propagation delay.
func (l *Link) PropDelay() sim.Time { return l.propDelay }

// TxPackets returns the number of packets fully serialized onto the link.
func (l *Link) TxPackets() int64 { return l.txPackets }

// TxBytes returns the wire bytes fully serialized onto the link.
func (l *Link) TxBytes() int64 { return l.txBytes }

// SetPool attaches the topology's packet pool so that tail-dropped packets
// are recycled instead of leaking out of circulation.
func (l *Link) SetPool(pp *PacketPool) { l.pool = pp }

// InFlightPackets returns the number of packets currently on the link: the
// one being serialized (if any) plus those in propagation.
func (l *Link) InFlightPackets() int {
	n := l.inflight.n
	if l.current != nil {
		n++
	}
	return n
}

// ForEachInFlight calls fn for every packet on the link, serializing packet
// first, then propagating packets in delivery order. Packets must not be
// mutated or retained.
func (l *Link) ForEachInFlight(fn func(p *Packet)) {
	if l.current != nil {
		fn(l.current)
	}
	l.inflight.forEach(fn)
}

// Send enqueues p for transmission. If the queue rejects the packet it is
// dropped (the queue records the drop). If the transmitter is idle,
// serialization starts immediately.
func (l *Link) Send(p *Packet) {
	if !l.queue.Enqueue(l.eng.Now(), p) {
		// The drop ends this packet's life; it will never reach a Host, so
		// recycle it here. Safe with a nil pool or a foreign packet.
		l.pool.Put(p)
		return
	}
	if !l.busy {
		l.startTransmit()
	}
}

// startTransmit pulls the head packet and schedules its completion.
func (l *Link) startTransmit() {
	p := l.queue.Dequeue(l.eng.Now())
	if p == nil {
		l.busy = false
		return
	}
	l.busy = true
	l.current = p
	l.eng.ScheduleAfter(SerializationDelay(p.WireBytes(), l.bandwidthBps), l.txDoneFn)
}

// txDone completes serialization of the current packet, hands it to
// propagation, and moves the transmitter on to the next queued packet.
func (l *Link) txDone() {
	p := l.current
	l.current = nil
	l.txPackets++
	l.txBytes += int64(p.WireBytes())
	l.inflight.push(p)
	l.eng.ScheduleAfter(l.propDelay, l.deliverFn)
	l.startTransmit()
}

// deliver hands the oldest in-flight packet to the destination device.
// Deliveries fire in push order (see the inflight field comment), so a FIFO
// pop always matches the firing event.
func (l *Link) deliver() {
	l.dst.Receive(l.inflight.pop())
}
