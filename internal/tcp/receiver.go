package tcp

import (
	"incastlab/internal/netsim"
	"incastlab/internal/sim"
)

// ReceiverConfig tunes a Receiver.
type ReceiverConfig struct {
	// DelayedAcks enables ACK coalescing with the DCTCP receiver state
	// machine. The paper disables delayed ACKs in all Section 4
	// simulations "because it exacerbates burstiness and masks the impact
	// of DCTCP's congestion control algorithm"; the option exists for the
	// delayed-ACK ablation.
	DelayedAcks bool
	// AckEvery is the coalescing factor when DelayedAcks is on (default 2).
	AckEvery int
	// AckTimeout bounds how long an ACK may be withheld (default 500 us).
	AckTimeout sim.Time
}

// DefaultReceiverConfig returns the paper's configuration: immediate ACKs.
func DefaultReceiverConfig() ReceiverConfig {
	return ReceiverConfig{DelayedAcks: false, AckEvery: 2, AckTimeout: 500 * sim.Microsecond}
}

// Receiver is the receiving side of one connection: it reassembles the byte
// stream, generates cumulative ACKs, and echoes congestion marks. In
// immediate-ACK mode every data packet triggers an ACK whose ECE equals the
// packet's CE bit. In delayed-ACK mode the DCTCP receiver state machine is
// used: ACKs coalesce up to AckEvery packets but an ACK is forced whenever
// the CE state of arriving packets changes, so the marking fraction remains
// accurately conveyed.
type Receiver struct {
	eng  *sim.Engine
	host *netsim.Host
	flow netsim.FlowID
	src  netsim.NodeID
	cfg  ReceiverConfig

	rcvNxt int64
	// ooo buffers out-of-order segments: seq -> length.
	ooo map[int64]int

	// Delayed-ACK state.
	pending     int      // data packets not yet acknowledged
	ceState     bool     // CE value of the packets covered by pending ACK
	pendingEcho sim.Time // echo timestamp for the pending ACK
	ackTimer    sim.Timer
	flushFn     func() // prebuilt r.flushAck, so re-arming allocates nothing

	// onProgress, if set, observes every advance of the in-order cursor;
	// application layers use it to detect response completion.
	onProgress func(rcvNxt int64)

	// advertisedWnd, when positive, is carried on every ACK as the flow
	// control window; receiver-driven schemes (ICTCP) steer it.
	advertisedWnd int64
}

// NewReceiver creates a receiver for flow, registered on the hub of its
// host, sending ACKs back to src.
func NewReceiver(eng *sim.Engine, hub *Hub, flow netsim.FlowID, src netsim.NodeID,
	cfg ReceiverConfig) *Receiver {
	if cfg.AckEvery <= 0 {
		cfg.AckEvery = 2
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 500 * sim.Microsecond
	}
	r := &Receiver{
		eng:  eng,
		host: hub.Host(),
		flow: flow,
		src:  src,
		cfg:  cfg,
		ooo:  make(map[int64]int),
	}
	r.flushFn = r.flushAck
	hub.Register(flow, r)
	return r
}

// RcvNxt returns the next expected sequence number (bytes received in
// order so far).
func (r *Receiver) RcvNxt() int64 { return r.rcvNxt }

// SetOnProgress installs a callback invoked whenever in-order delivery
// advances, with the new cursor (nil to remove).
func (r *Receiver) SetOnProgress(fn func(rcvNxt int64)) { r.onProgress = fn }

// SetAdvertisedWindow sets the flow-control window carried on every ACK;
// zero or negative removes the advertisement (no limit).
func (r *Receiver) SetAdvertisedWindow(bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	r.advertisedWnd = bytes
}

// Host returns the receiving host.
func (r *Receiver) Host() *netsim.Host { return r.host }

// HandlePacket implements netsim.PacketHandler: the receiver consumes data.
func (r *Receiver) HandlePacket(p *netsim.Packet) {
	if p.IsAck {
		return
	}

	// Reassembly.
	switch {
	case p.Seq == r.rcvNxt:
		r.rcvNxt += int64(p.Len)
		for {
			l, ok := r.ooo[r.rcvNxt]
			if !ok {
				break
			}
			delete(r.ooo, r.rcvNxt)
			r.rcvNxt += int64(l)
		}
		if r.onProgress != nil {
			r.onProgress(r.rcvNxt)
		}
	case p.Seq > r.rcvNxt:
		r.ooo[p.Seq] = p.Len
	}
	// Old or duplicate data: nothing to reassemble, but still ACK.

	echo := p.SentAt
	if p.Retransmit {
		// Karn's rule: never take RTT samples from retransmitted data.
		echo = -1
	}

	if !r.cfg.DelayedAcks {
		r.sendAck(p.CE, echo)
		return
	}
	r.delayedAck(p.CE, echo)
}

// delayedAck implements the DCTCP receiver state machine.
func (r *Receiver) delayedAck(ce bool, echo sim.Time) {
	if r.pending > 0 && ce != r.ceState {
		// CE state change: flush the pending ACK for the old state so the
		// sender sees an accurate marking boundary.
		r.flushAck()
	}
	r.ceState = ce
	r.pending++
	r.pendingEcho = echo
	if r.pending >= r.cfg.AckEvery {
		r.flushAck()
		return
	}
	if !r.ackTimer.Active() {
		r.eng.ResetAfter(&r.ackTimer, r.cfg.AckTimeout, r.flushFn)
	}
}

// flushAck emits the pending delayed ACK, if any.
func (r *Receiver) flushAck() {
	if r.pending == 0 {
		return
	}
	r.ackTimer.Stop()
	r.pending = 0
	r.sendAck(r.ceState, r.pendingEcho)
}

// sendAck emits a cumulative ACK with the ECN echo.
func (r *Receiver) sendAck(ece bool, echo sim.Time) {
	p := r.host.AllocPacket()
	p.Flow = r.flow
	p.Src = r.host.ID()
	p.Dst = r.src
	p.IsAck = true
	p.AckNo = r.rcvNxt
	p.ECE = ece
	p.Wnd = r.advertisedWnd
	p.EchoSentAt = echo
	p.SentAt = r.eng.Now()
	r.host.Send(p)
}
