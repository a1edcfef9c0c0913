package tcp

import (
	"incastlab/internal/cc"
	"incastlab/internal/netsim"
	"incastlab/internal/sim"
)

// dupAckThreshold is the duplicate-ACK count that triggers fast
// retransmit. Segments are netsim.MSS bytes, which the fluid backend
// assumes too.
const dupAckThreshold = 3

// SenderConfig tunes a Sender.
type SenderConfig struct {
	// MinRTO is the lower bound on the retransmission timeout. The default
	// 200 ms (the Linux default) is what makes the paper's Mode 3 burst
	// completion time land near 200 ms.
	MinRTO sim.Time
	// MaxRTO caps exponential RTO backoff (default 2 s).
	MaxRTO sim.Time
	// RestartAfterIdle applies RFC 2861-style congestion window validation:
	// when new demand arrives after the connection has been idle longer
	// than the current RTO, the window restarts from the initial window
	// (if the algorithm implements cc.IdleRestarter). The paper's
	// persistent connections do not restart, which is what lets straggler
	// windows survive between bursts (Section 4.3).
	RestartAfterIdle bool
}

// DefaultSenderConfig returns the defaults described above.
func DefaultSenderConfig() SenderConfig {
	return SenderConfig{
		MinRTO: 200 * sim.Millisecond,
		MaxRTO: 2 * sim.Second,
	}
}

func (c *SenderConfig) fillDefaults() {
	d := DefaultSenderConfig()
	if c.MinRTO <= 0 {
		c.MinRTO = d.MinRTO
	}
	if c.MaxRTO <= 0 {
		c.MaxRTO = d.MaxRTO
	}
}

// SenderStats counts transport events on one connection.
type SenderStats struct {
	// SentPackets and SentBytes include retransmissions.
	SentPackets int64
	SentBytes   int64
	// RetransmitPackets and RetransmitBytes count retransmissions only.
	RetransmitPackets int64
	RetransmitBytes   int64
	// FastRetransmits counts triple-dup-ACK recovery episodes.
	FastRetransmits int64
	// Timeouts counts RTO firings.
	Timeouts int64
	// ECEAcks counts ACKs that carried the ECN echo.
	ECEAcks int64
	// Acks counts cumulative ACKs that advanced snd.una.
	Acks int64
	// IncastNotifies counts switch-originated explicit incast
	// notifications delivered to this sender (whether or not the
	// congestion-control algorithm reacted to them).
	IncastNotifies int64
}

// Sender is the sending side of one connection: it transmits application
// demand as MSS-sized segments under the congestion window, and recovers
// losses via fast retransmit and timeouts.
type Sender struct {
	eng  *sim.Engine
	host *netsim.Host
	flow netsim.FlowID
	dst  netsim.NodeID
	alg  cc.Algorithm
	cfg  SenderConfig

	sndUna int64 // oldest unacknowledged byte
	sndNxt int64 // next byte to send
	demand int64 // cumulative bytes the application asked to send

	// highWater is the highest sndNxt ever reached; bytes below it that are
	// sent again are retransmissions.
	highWater int64

	dupAcks    int
	inRecovery bool
	recover    int64 // recovery ends when sndUna passes this point

	est      rttEstimator
	rto      sim.Time
	rtoTimer sim.Timer
	rtoFn    func() // prebuilt s.onRTO, so re-arming allocates nothing

	// Pacing state: earliest time the next segment may leave.
	nextSendAt sim.Time
	paceTimer  sim.Timer
	paceFn     func() // prebuilt s.trySend

	stats SenderStats

	// onDemandMet fires when all requested bytes are acknowledged;
	// notifiedUpTo prevents duplicate notifications for the same level.
	onDemandMet  func(now sim.Time)
	notifiedUpTo int64

	// lastActive is the time of the last send or ACK, for idle restarts.
	lastActive sim.Time

	// peerWnd is the most recent advertised receive window (0 = none).
	peerWnd int64
}

// NewSender creates a sender for flow, registered on the hub of its host,
// addressing data to dst. The congestion-control algorithm is owned by the
// sender from here on.
func NewSender(eng *sim.Engine, hub *Hub, flow netsim.FlowID, dst netsim.NodeID,
	alg cc.Algorithm, cfg SenderConfig) *Sender {
	cfg.fillDefaults()
	s := &Sender{
		eng:  eng,
		host: hub.Host(),
		flow: flow,
		dst:  dst,
		alg:  alg,
		cfg:  cfg,
	}
	s.rto = cfg.MinRTO
	s.rtoFn = s.onRTO
	s.paceFn = s.trySend
	hub.Register(flow, s)
	return s
}

// Flow returns the sender's flow ID.
func (s *Sender) Flow() netsim.FlowID { return s.flow }

// Algorithm returns the congestion-control algorithm (for instrumentation).
func (s *Sender) Algorithm() cc.Algorithm { return s.alg }

// Stats returns a copy of the sender's counters.
func (s *Sender) Stats() SenderStats { return s.stats }

// InFlight returns the bytes sent but not yet cumulatively acknowledged —
// the per-flow series Figure 7 plots.
func (s *Sender) InFlight() int64 { return s.sndNxt - s.sndUna }

// Window returns the current congestion window in bytes.
func (s *Sender) Window() int { return s.alg.Window() }

// Demand returns the cumulative bytes requested so far.
func (s *Sender) Demand() int64 { return s.demand }

// Acked returns the cumulative bytes acknowledged so far.
func (s *Sender) Acked() int64 { return s.sndUna }

// DemandMet reports whether everything requested has been acknowledged.
func (s *Sender) DemandMet() bool { return s.sndUna >= s.demand }

// SetOnDemandMet installs a callback invoked whenever the connection
// finishes delivering all requested bytes (once per demand level).
func (s *Sender) SetOnDemandMet(fn func(now sim.Time)) { s.onDemandMet = fn }

// AddDemand asks the sender to deliver n more bytes.
func (s *Sender) AddDemand(n int64) {
	if n <= 0 {
		panic("tcp: demand must be positive")
	}
	if s.cfg.RestartAfterIdle && s.sndUna == s.sndNxt {
		if idle := s.eng.Now() - s.lastActive; idle > s.rto {
			if ir, ok := s.alg.(cc.IdleRestarter); ok {
				ir.OnIdleRestart()
			}
		}
	}
	s.demand += n
	s.trySend()
}

// effectiveWindow is the congestion window plus duplicate-ACK allowances:
// limited transmit (RFC 3042) lets the first two dup ACKs release one new
// segment each, and during fast recovery each further dup ACK inflates the
// window by one MSS (classic Reno inflation), since a dup ACK signals a
// packet has left the network.
func (s *Sender) effectiveWindow() int64 {
	w := int64(s.alg.Window())
	if s.dupAcks > 0 {
		if s.inRecovery {
			w += int64(s.dupAcks) * netsim.MSS
		} else {
			lt := s.dupAcks
			if lt > 2 {
				lt = 2
			}
			w += int64(lt) * netsim.MSS
		}
	}
	// Flow control: never exceed the peer's advertised window.
	if s.peerWnd > 0 && w > s.peerWnd {
		w = s.peerWnd
	}
	return w
}

// trySend transmits as many segments as the window (and pacing) allow.
func (s *Sender) trySend() {
	for s.sndNxt < s.demand {
		segLen := int64(netsim.MSS)
		if rem := s.demand - s.sndNxt; rem < segLen {
			segLen = rem
		}
		inFlight := s.sndNxt - s.sndUna
		if inFlight > 0 && inFlight+segLen > s.effectiveWindow() {
			return
		}
		if gap := s.alg.PacingGap(); gap > 0 {
			now := s.eng.Now()
			if now < s.nextSendAt {
				s.armPaceTimer()
				return
			}
			s.nextSendAt = now + gap
		}
		s.sendSegment(s.sndNxt, int(segLen), s.sndNxt < s.highWater)
		s.sndNxt += segLen
		if s.sndNxt > s.highWater {
			s.highWater = s.sndNxt
		}
	}
}

// armPaceTimer schedules a send attempt at the pacing release time.
func (s *Sender) armPaceTimer() {
	if s.paceTimer.Active() && s.paceTimer.When() <= s.nextSendAt {
		return
	}
	s.eng.ResetAt(&s.paceTimer, s.nextSendAt, s.paceFn)
}

// sendSegment emits one data segment and manages the RTO timer.
func (s *Sender) sendSegment(seq int64, segLen int, retransmit bool) {
	p := s.host.AllocPacket()
	p.Flow = s.flow
	p.Src = s.host.ID()
	p.Dst = s.dst
	p.Seq = seq
	p.Len = segLen
	p.ECT = true
	p.Retransmit = retransmit
	p.SentAt = s.eng.Now()
	s.stats.SentPackets++
	s.stats.SentBytes += int64(segLen)
	if retransmit {
		s.stats.RetransmitPackets++
		s.stats.RetransmitBytes += int64(segLen)
	}
	s.host.Send(p)
	s.lastActive = s.eng.Now()
	if !s.rtoTimer.Active() {
		s.armRTO()
	}
}

// armRTO (re)schedules the retransmission timer rto from now.
func (s *Sender) armRTO() {
	s.eng.ResetAfter(&s.rtoTimer, s.rto, s.rtoFn)
}

// onRTO handles a retransmission timeout: collapse the window, rewind to
// the oldest unacknowledged byte (go-back-N), and back off the timer.
func (s *Sender) onRTO() {
	if s.sndUna >= s.sndNxt {
		return // everything got acknowledged in the meantime
	}
	s.stats.Timeouts++
	s.alg.OnTimeout(s.eng.Now())
	s.inRecovery = false
	s.dupAcks = 0
	s.sndNxt = s.sndUna
	s.rto *= 2
	if s.rto > s.cfg.MaxRTO {
		s.rto = s.cfg.MaxRTO
	}
	s.trySend()
}

// retransmitHead resends the segment at snd.una.
func (s *Sender) retransmitHead() {
	segLen := int64(netsim.MSS)
	if rem := s.demand - s.sndUna; rem < segLen {
		segLen = rem
	}
	if segLen <= 0 {
		return
	}
	s.sendSegment(s.sndUna, int(segLen), true)
	s.armRTO()
}

// HandlePacket implements netsim.PacketHandler: the sender consumes ACKs.
func (s *Sender) HandlePacket(p *netsim.Packet) {
	if p.IncastNotify {
		// Switch-originated explicit incast notification: hand it to the
		// algorithm out of band from the ACK clock. A shrinking window
		// never unblocks transmission, so there is nothing to (re)send.
		s.stats.IncastNotifies++
		if n, ok := s.alg.(cc.IncastNotifiable); ok {
			n.OnIncastNotification(s.eng.Now())
		}
		return
	}
	if !p.IsAck {
		return
	}
	now := s.eng.Now()
	if p.ECE {
		s.stats.ECEAcks++
	}
	if p.Wnd > 0 {
		s.peerWnd = p.Wnd
	}

	switch {
	case p.AckNo > s.sndUna:
		s.lastActive = now
		bytesAcked := p.AckNo - s.sndUna
		s.sndUna = p.AckNo
		if s.sndUna > s.sndNxt {
			// Should not happen; keep state consistent regardless.
			s.sndNxt = s.sndUna
		}
		s.dupAcks = 0
		s.stats.Acks++

		var rtt sim.Time
		if p.EchoSentAt >= 0 {
			rtt = now - p.EchoSentAt
			s.est.sample(rtt)
			s.rto = s.est.rto(s.cfg.MinRTO, s.cfg.MaxRTO)
		}

		if s.inRecovery {
			if s.sndUna >= s.recover {
				s.inRecovery = false
			} else {
				// Partial ACK: the next segment is lost too (NewReno).
				s.retransmitHead()
			}
		}

		s.alg.OnAck(cc.Ack{
			Now:        now,
			BytesAcked: int(bytesAcked),
			AckNo:      p.AckNo,
			SndNxt:     s.sndNxt,
			ECE:        p.ECE,
			RTT:        rtt,
		})

		if s.sndUna >= s.sndNxt {
			s.rtoTimer.Stop()
		} else {
			s.armRTO()
		}
		s.maybeNotifyDemandMet(now)
		s.trySend()

	case p.AckNo == s.sndUna && s.sndNxt > s.sndUna:
		// Duplicate ACK.
		s.dupAcks++
		if s.dupAcks == dupAckThreshold && !s.inRecovery {
			s.inRecovery = true
			s.recover = s.sndNxt
			s.stats.FastRetransmits++
			s.alg.OnLoss(now)
			s.retransmitHead()
		}
		// Limited transmit before recovery, window inflation during it.
		s.trySend()
	}
}

// maybeNotifyDemandMet fires the completion callback once per demand level.
func (s *Sender) maybeNotifyDemandMet(now sim.Time) {
	if s.onDemandMet == nil || s.demand == 0 {
		return
	}
	if s.sndUna >= s.demand && s.demand > s.notifiedUpTo {
		s.notifiedUpTo = s.demand
		s.onDemandMet(now)
	}
}
