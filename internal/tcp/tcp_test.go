package tcp

import (
	"slices"
	"testing"

	"incastlab/internal/cc"
	"incastlab/internal/netsim"
	"incastlab/internal/sim"
)

// TestRTTEstimator walks the RFC 6298 estimator through a trace of
// samples. The 800 ms step pins the update order: RTTVAR takes its
// deviation from the old SRTT before SRTT moves, which constant samples
// cannot show.
func TestRTTEstimator(t *testing.T) {
	var e rttEstimator
	min, max := 200*sim.Millisecond, 60*sim.Second
	if e.rto(min, max) != min {
		t.Fatal("pre-sample RTO should be the minimum")
	}
	ms := func(v float64) sim.Time { return sim.Time(v * float64(sim.Millisecond)) }
	trace := []struct{ sample, srtt, rttvar, rto sim.Time }{
		{ms(500), ms(500), ms(250), ms(1500)},
		{ms(800), ms(537.5), ms(262.5), ms(1587.5)},
		{ms(100), ms(482.8125), ms(306.25), ms(1707.8125)},
	}
	for _, step := range trace {
		e.sample(step.sample)
		if got := e.rto(min, max); e.srtt != step.srtt || e.rttvar != step.rttvar || got != step.rto {
			t.Fatalf("after sample %v: srtt=%v rttvar=%v rto=%v, want %v %v %v",
				step.sample, e.srtt, e.rttvar, got, step.srtt, step.rttvar, step.rto)
		}
	}

	// Constant samples shrink rttvar toward zero; srtt stays put.
	e = rttEstimator{}
	min, max = 1*sim.Millisecond, 10*sim.Second
	for i := 0; i < 51; i++ {
		e.sample(100 * sim.Microsecond)
	}
	if e.srtt != 100*sim.Microsecond {
		t.Fatalf("srtt drifted to %v", e.srtt)
	}
	if e.rttvar > 2*sim.Microsecond {
		t.Fatalf("rttvar = %v, want near 0", e.rttvar)
	}
	if got := e.rto(min, max); got != min {
		t.Fatalf("rto = %v, want clamped to min", got)
	}
	if got := e.rto(0, max); got < 100*sim.Microsecond {
		t.Fatalf("unclamped rto = %v, want >= srtt", got)
	}
}

// buildLoop wires a single-flow connection across a default dumbbell and
// returns everything a test needs.
func buildLoop(t *testing.T, alg cc.Algorithm, scfg SenderConfig, rcfg ReceiverConfig) (
	*sim.Engine, *netsim.Dumbbell, *Sender, *Receiver) {
	t.Helper()
	eng := sim.NewEngine()
	d := netsim.NewDumbbell(eng, netsim.DefaultDumbbellConfig(1))
	sHub := NewHub(d.Senders[0])
	rHub := NewHub(d.Receiver)
	snd := NewSender(eng, sHub, 1, d.Receiver.ID(), alg, scfg)
	rcv := NewReceiver(eng, rHub, 1, d.Senders[0].ID(), rcfg)
	return eng, d, snd, rcv
}

func TestSingleFlowTransferCompletes(t *testing.T) {
	eng, _, snd, rcv := buildLoop(t, cc.NewDCTCP(cc.DefaultDCTCPConfig()),
		DefaultSenderConfig(), DefaultReceiverConfig())
	const total = 300 * 1000 // ~205 segments
	var doneAt sim.Time
	snd.SetOnDemandMet(func(now sim.Time) { doneAt = now })
	snd.AddDemand(total)
	eng.Run()

	if !snd.DemandMet() {
		t.Fatal("demand not met")
	}
	if rcv.RcvNxt() != total {
		t.Fatalf("receiver got %d bytes, want %d", rcv.RcvNxt(), total)
	}
	if doneAt == 0 {
		t.Fatal("completion callback did not fire")
	}
	// 300 KB at 10 Gbps is 240 us on the wire; with slow start from 10 MSS
	// and a 30 us RTT the transfer should finish well under 2 ms.
	if doneAt > 2*sim.Millisecond {
		t.Fatalf("transfer took %v, expected well under 2ms", doneAt)
	}
	if snd.Stats().RetransmitPackets != 0 {
		t.Fatalf("unexpected retransmissions: %+v", snd.Stats())
	}
	if snd.InFlight() != 0 {
		t.Fatalf("in-flight = %d after completion", snd.InFlight())
	}
}

func TestSenderRespectsWindow(t *testing.T) {
	// A fixed 2-MSS window must never allow more than 2 MSS in flight.
	alg := cc.NewReno(2 * netsim.MSS)
	eng, _, snd, _ := buildLoop(t, alg, DefaultSenderConfig(), DefaultReceiverConfig())
	// Reno in "congestion avoidance" with a huge ssthresh would grow; force
	// CA small growth by pre-halving. Easier: check only the first burst
	// before any ACK arrives.
	snd.AddDemand(100 * netsim.MSS)
	if snd.InFlight() > 2*netsim.MSS {
		t.Fatalf("in-flight %d exceeds the 2-MSS window before any ACKs", snd.InFlight())
	}
	eng.Run()
	if !snd.DemandMet() {
		t.Fatal("transfer stalled")
	}
}

func TestRTTMeasuredCloseToBaseRTT(t *testing.T) {
	eng, d, snd, _ := buildLoop(t, cc.NewDCTCP(cc.DefaultDCTCPConfig()),
		DefaultSenderConfig(), DefaultReceiverConfig())
	snd.AddDemand(10 * netsim.MSS)
	eng.Run()
	base := d.Config.BaseRTT()
	if !snd.est.hasSRTT {
		t.Fatal("no RTT samples taken")
	}
	if snd.est.srtt < base/2 || snd.est.srtt > 2*base {
		t.Fatalf("srtt = %v, base RTT = %v", snd.est.srtt, base)
	}
}

// dropper is a device that forwards packets to a link, dropping selected
// data packets exactly once each.
type dropper struct {
	id   netsim.NodeID
	out  *netsim.Link
	drop map[int64]bool // seq -> should drop (once)
}

func (d *dropper) ID() netsim.NodeID { return d.id }
func (d *dropper) Name() string      { return "dropper" }
func (d *dropper) Receive(p *netsim.Packet) {
	if !p.IsAck && !p.Retransmit && d.drop[p.Seq] {
		delete(d.drop, p.Seq)
		return
	}
	d.out.Send(p)
}

// buildLossyLoop wires sender -> dropper -> receiver with a direct reverse
// path, dropping the data segments whose sequence numbers are given.
func buildLossyLoop(dropSeqs ...int64) (*sim.Engine, *Sender, *Receiver) {
	eng := sim.NewEngine()
	sender := netsim.NewHost(eng, 1, "s")
	receiver := netsim.NewHost(eng, 2, "r")
	drp := &dropper{id: 3, drop: make(map[int64]bool)}
	for _, q := range dropSeqs {
		drp.drop[q] = true
	}
	mk := func(dst netsim.Device) *netsim.Link {
		return netsim.NewLink(eng, netsim.LinkConfig{
			BandwidthBps: 10 * netsim.Gbps,
			PropDelay:    5 * sim.Microsecond,
			Queue:        netsim.NewQueue(netsim.QueueConfig{}),
			Dst:          dst,
		})
	}
	sender.SetUplink(mk(drp))
	drp.out = mk(receiver)
	receiver.SetUplink(mk(sender))

	sHub := NewHub(sender)
	rHub := NewHub(receiver)
	scfg := DefaultSenderConfig()
	scfg.MinRTO = 10 * sim.Millisecond // keep timeout tests fast
	snd := NewSender(eng, sHub, 1, receiver.ID(), cc.NewReno(10*netsim.MSS), scfg)
	rcv := NewReceiver(eng, rHub, 1, sender.ID(), DefaultReceiverConfig())
	return eng, snd, rcv
}

func TestFastRetransmitRecoversSingleLoss(t *testing.T) {
	// Drop the 3rd segment; segments 4..N generate dup ACKs.
	eng, snd, rcv := buildLossyLoop(2 * netsim.MSS)
	const total = 20 * netsim.MSS
	snd.AddDemand(total)
	eng.Run()
	if rcv.RcvNxt() != total {
		t.Fatalf("receiver got %d, want %d", rcv.RcvNxt(), total)
	}
	st := snd.Stats()
	if st.FastRetransmits != 1 {
		t.Fatalf("fast retransmits = %d, want 1 (stats %+v)", st.FastRetransmits, st)
	}
	if st.Timeouts != 0 {
		t.Fatalf("timeouts = %d, want 0: loss should be repaired by dup ACKs", st.Timeouts)
	}
	if st.RetransmitPackets != 1 {
		t.Fatalf("retransmit packets = %d, want exactly 1", st.RetransmitPackets)
	}
}

func TestNewRenoPartialAckRecoversMultipleLosses(t *testing.T) {
	// Drop two separate segments in one window: recovery proceeds via a
	// partial-ACK retransmission without waiting for a timeout.
	eng, snd, rcv := buildLossyLoop(2*netsim.MSS, 5*netsim.MSS)
	const total = 30 * netsim.MSS
	snd.AddDemand(total)
	eng.Run()
	if rcv.RcvNxt() != total {
		t.Fatalf("receiver got %d, want %d", rcv.RcvNxt(), total)
	}
	st := snd.Stats()
	if st.Timeouts != 0 {
		t.Fatalf("timeouts = %d, want 0 (stats %+v)", st.Timeouts, st)
	}
	if st.RetransmitPackets != 2 {
		t.Fatalf("retransmits = %d, want 2", st.RetransmitPackets)
	}
}

func TestTimeoutRecoversTailLoss(t *testing.T) {
	// Drop the very last segment: no subsequent data means no dup ACKs, so
	// only the RTO can repair it.
	const total = 10 * netsim.MSS
	eng, snd, rcv := buildLossyLoop(int64(total - netsim.MSS))
	snd.AddDemand(total)
	eng.Run()
	if rcv.RcvNxt() != total {
		t.Fatalf("receiver got %d, want %d", rcv.RcvNxt(), total)
	}
	st := snd.Stats()
	if st.Timeouts < 1 {
		t.Fatalf("timeouts = %d, want >= 1", st.Timeouts)
	}
	if st.FastRetransmits != 0 {
		t.Fatalf("fast retransmits = %d, want 0", st.FastRetransmits)
	}
}

func TestTimeoutCollapsesWindowToOneMSS(t *testing.T) {
	const total = 10 * netsim.MSS
	eng, snd, _ := buildLossyLoop(int64(total - netsim.MSS))
	snd.AddDemand(total)
	rec := &recordingAlg{Algorithm: snd.Algorithm()}
	snd.alg = rec
	eng.Run()
	if len(rec.windowsAfterTimeout) == 0 {
		t.Fatal("no timeout occurred")
	}
	if rec.windowsAfterTimeout[0] != netsim.MSS {
		t.Fatalf("window after timeout = %d, want 1 MSS", rec.windowsAfterTimeout[0])
	}
}

// recordingAlg wraps an Algorithm and records the window right after each
// timeout reaction.
type recordingAlg struct {
	cc.Algorithm
	windowsAfterTimeout []int
}

func (r *recordingAlg) OnTimeout(now sim.Time) {
	r.Algorithm.OnTimeout(now)
	r.windowsAfterTimeout = append(r.windowsAfterTimeout, r.Window())
}

// blackhole forwards packets to out, dropping every data segment that
// arrives before open.
type blackhole struct {
	eng  *sim.Engine
	out  *netsim.Link
	open sim.Time
}

func (b *blackhole) ID() netsim.NodeID { return 3 }
func (b *blackhole) Name() string      { return "blackhole" }
func (b *blackhole) Receive(p *netsim.Packet) {
	if !p.IsAck && b.eng.Now() < b.open {
		return
	}
	b.out.Send(p)
}

// timerRecorder wraps an Algorithm and records when each RTO fires and,
// as each ACK reaches the algorithm, the sender's timer and the value its
// RTT estimator would give.
type timerRecorder struct {
	cc.Algorithm
	snd     *Sender
	firedAt []sim.Time
	acks    []ackTimer
}

type ackTimer struct {
	timed    bool
	rto, est sim.Time
}

func (r *timerRecorder) OnTimeout(now sim.Time) {
	r.Algorithm.OnTimeout(now)
	r.firedAt = append(r.firedAt, now)
}

func (r *timerRecorder) OnAck(a cc.Ack) {
	r.Algorithm.OnAck(a)
	cfg := r.snd.cfg
	r.acks = append(r.acks, ackTimer{a.RTT > 0, r.snd.rto, r.snd.est.rto(cfg.MinRTO, cfg.MaxRTO)})
}

// TestRTOBackoffDoublesToCapAndResets pins the sender's timer backoff:
// consecutive RTOs double the timer from MinRTO to MaxRTO and hold it
// there, and the first timed ACK afterwards resets it to the estimator's
// value. ACKs of retransmitted segments carry no RTT sample (Karn), so
// they must leave the backed-off timer alone.
func TestRTOBackoffDoublesToCapAndResets(t *testing.T) {
	eng := sim.NewEngine()
	sender := netsim.NewHost(eng, 1, "s")
	receiver := netsim.NewHost(eng, 2, "r")
	hole := &blackhole{eng: eng, open: 8 * sim.Second}
	mk := func(dst netsim.Device) *netsim.Link {
		return netsim.NewLink(eng, netsim.LinkConfig{
			BandwidthBps: 10 * netsim.Gbps,
			PropDelay:    5 * sim.Microsecond,
			Queue:        netsim.NewQueue(netsim.QueueConfig{}),
			Dst:          dst,
		})
	}
	sender.SetUplink(mk(hole))
	hole.out = mk(receiver)
	receiver.SetUplink(mk(sender))
	cfg := DefaultSenderConfig()
	snd := NewSender(eng, NewHub(sender), 1, receiver.ID(), cc.NewReno(10*netsim.MSS), cfg)
	NewReceiver(eng, NewHub(receiver), 1, sender.ID(), DefaultReceiverConfig())
	rec := &timerRecorder{Algorithm: snd.Algorithm(), snd: snd}
	snd.alg = rec

	const total = 40 * netsim.MSS
	snd.AddDemand(total)
	eng.Run()
	if !snd.DemandMet() {
		t.Fatal("transfer stalled")
	}

	// The last retransmission into the hole leaves at 7 s; the next one, at
	// 9 s, gets through.
	var gaps []sim.Time
	var prev sim.Time
	for _, at := range rec.firedAt {
		gaps, prev = append(gaps, at-prev), at
	}
	const ms = sim.Millisecond
	if want := []sim.Time{200 * ms, 400 * ms, 800 * ms, 1600 * ms, 2000 * ms, 2000 * ms, 2000 * ms}; !slices.Equal(gaps, want) {
		t.Fatalf("RTOs fired %v apart, want %v", gaps, want)
	}

	first := -1
	for i, ack := range rec.acks {
		if ack.timed {
			first = i
			break
		}
		if ack.rto != cfg.MaxRTO {
			t.Errorf("untimed ACK %d moved the backed-off timer to %v, want %v", i, ack.rto, cfg.MaxRTO)
		}
	}
	if first <= 0 {
		t.Fatalf("want untimed ACKs of retransmissions before the first timed ACK; first timed ACK is %d", first)
	}
	// A ~20 us sample puts the estimator's value at the MinRTO clamp.
	if ack := rec.acks[first]; ack.rto != ack.est || ack.rto != cfg.MinRTO {
		t.Errorf("first timed ACK left the timer at %v, want the estimator's %v (MinRTO %v)", ack.rto, ack.est, cfg.MinRTO)
	}
}

func TestECEFeedbackReachesCCA(t *testing.T) {
	// 30 flows with IW 10 into the 1333-packet bottleneck: queue exceeds
	// K=65, so some ACKs must carry ECE and DCTCP windows must shrink.
	eng := sim.NewEngine()
	d := netsim.NewDumbbell(eng, netsim.DefaultDumbbellConfig(30))
	rHub := NewHub(d.Receiver)
	var senders []*Sender
	for i, h := range d.Senders {
		flow := netsim.FlowID(i + 1)
		sHub := NewHub(h)
		snd := NewSender(eng, sHub, flow, d.Receiver.ID(),
			cc.NewDCTCP(cc.DefaultDCTCPConfig()), DefaultSenderConfig())
		NewReceiver(eng, rHub, flow, h.ID(), DefaultReceiverConfig())
		snd.AddDemand(100 * netsim.MSS)
		senders = append(senders, snd)
	}
	eng.Run()
	var ece int64
	for _, s := range senders {
		if !s.DemandMet() {
			t.Fatal("a flow stalled")
		}
		ece += s.Stats().ECEAcks
	}
	if ece == 0 {
		t.Fatal("no ECE echoes observed during a 30-flow incast")
	}
}

func TestReceiverReassemblyOutOfOrder(t *testing.T) {
	eng := sim.NewEngine()
	host := netsim.NewHost(eng, 2, "r")
	// The receiver sends ACKs out the host uplink; give it a sink.
	var acks []*netsim.Packet
	snk := &ackSink{id: 1}
	host.SetUplink(netsim.NewLink(eng, netsim.LinkConfig{
		BandwidthBps: netsim.Gbps,
		Queue:        netsim.NewQueue(netsim.QueueConfig{}),
		Dst:          snk,
	}))
	hub := NewHub(host)
	rcv := NewReceiver(eng, hub, 1, 1, DefaultReceiverConfig())

	seg := func(seq int64) *netsim.Packet {
		return &netsim.Packet{Flow: 1, Src: 1, Dst: 2, Seq: seq, Len: 100}
	}
	// Deliver 0, then 200 (gap), then 100 (fills the gap), then a duplicate.
	host.Receive(seg(0))
	host.Receive(seg(200))
	if rcv.RcvNxt() != 100 {
		t.Fatalf("rcvNxt = %d, want 100 (gap)", rcv.RcvNxt())
	}
	host.Receive(seg(100))
	if rcv.RcvNxt() != 300 {
		t.Fatalf("rcvNxt = %d, want 300 after gap fill", rcv.RcvNxt())
	}
	host.Receive(seg(0))
	if rcv.RcvNxt() != 300 {
		t.Fatalf("rcvNxt = %d, duplicate moved the cursor", rcv.RcvNxt())
	}
	eng.Run()
	acks = snk.acks
	if len(acks) != 4 {
		t.Fatalf("acks = %d, want 4 (one per data packet)", len(acks))
	}
	// The second ACK is a duplicate (AckNo still 100).
	if acks[1].AckNo != 100 || acks[2].AckNo != 300 {
		t.Fatalf("ack numbers: %d, %d", acks[1].AckNo, acks[2].AckNo)
	}
}

type ackSink struct {
	id   netsim.NodeID
	acks []*netsim.Packet
}

func (a *ackSink) ID() netsim.NodeID { return a.id }
func (a *ackSink) Name() string      { return "acksink" }
func (a *ackSink) Receive(p *netsim.Packet) {
	a.acks = append(a.acks, p)
}

func TestReceiverKarnRule(t *testing.T) {
	eng := sim.NewEngine()
	host := netsim.NewHost(eng, 2, "r")
	snk := &ackSink{id: 1}
	host.SetUplink(netsim.NewLink(eng, netsim.LinkConfig{
		BandwidthBps: netsim.Gbps,
		Queue:        netsim.NewQueue(netsim.QueueConfig{}),
		Dst:          snk,
	}))
	hub := NewHub(host)
	NewReceiver(eng, hub, 1, 1, DefaultReceiverConfig())
	host.Receive(&netsim.Packet{Flow: 1, Dst: 2, Seq: 0, Len: 10, Retransmit: true, SentAt: 42})
	eng.Run()
	if len(snk.acks) != 1 || snk.acks[0].EchoSentAt != -1 {
		t.Fatalf("retransmitted data must not carry an RTT echo: %+v", snk.acks)
	}
}

func TestDelayedAckCoalescing(t *testing.T) {
	eng := sim.NewEngine()
	host := netsim.NewHost(eng, 2, "r")
	snk := &ackSink{id: 1}
	host.SetUplink(netsim.NewLink(eng, netsim.LinkConfig{
		BandwidthBps: netsim.Gbps,
		Queue:        netsim.NewQueue(netsim.QueueConfig{}),
		Dst:          snk,
	}))
	hub := NewHub(host)
	cfg := ReceiverConfig{DelayedAcks: true, AckEvery: 2, AckTimeout: sim.Millisecond}
	NewReceiver(eng, hub, 1, 1, cfg)

	// Four unmarked packets delivered together coalesce into two ACKs.
	for i := int64(0); i < 4; i++ {
		p := &netsim.Packet{Flow: 1, Dst: 2, Seq: i * 100, Len: 100}
		eng.At(sim.Time(i), func() { host.Receive(p) })
	}
	eng.RunUntil(100 * sim.Microsecond)
	if len(snk.acks) != 2 {
		t.Fatalf("acks = %d, want 2 with AckEvery=2", len(snk.acks))
	}
}

func TestDelayedAckCEStateChangeForcesAck(t *testing.T) {
	eng := sim.NewEngine()
	host := netsim.NewHost(eng, 2, "r")
	snk := &ackSink{id: 1}
	host.SetUplink(netsim.NewLink(eng, netsim.LinkConfig{
		BandwidthBps: netsim.Gbps,
		Queue:        netsim.NewQueue(netsim.QueueConfig{}),
		Dst:          snk,
	}))
	hub := NewHub(host)
	cfg := ReceiverConfig{DelayedAcks: true, AckEvery: 100, AckTimeout: sim.Second}
	NewReceiver(eng, hub, 1, 1, cfg)

	// One unmarked packet, then a CE-marked one: the state change must
	// flush an ACK with ECE=false immediately.
	eng.At(0, func() { host.Receive(&netsim.Packet{Flow: 1, Dst: 2, Seq: 0, Len: 100}) })
	eng.At(1, func() { host.Receive(&netsim.Packet{Flow: 1, Dst: 2, Seq: 100, Len: 100, CE: true}) })
	eng.RunUntil(10 * sim.Microsecond)
	if len(snk.acks) != 1 {
		t.Fatalf("acks = %d, want 1 forced by CE state change", len(snk.acks))
	}
	if snk.acks[0].ECE {
		t.Fatal("flushed ACK must reflect the pre-change CE state (false)")
	}
}

func TestDelayedAckTimeoutFlushes(t *testing.T) {
	eng := sim.NewEngine()
	host := netsim.NewHost(eng, 2, "r")
	snk := &ackSink{id: 1}
	host.SetUplink(netsim.NewLink(eng, netsim.LinkConfig{
		BandwidthBps: netsim.Gbps,
		Queue:        netsim.NewQueue(netsim.QueueConfig{}),
		Dst:          snk,
	}))
	hub := NewHub(host)
	cfg := ReceiverConfig{DelayedAcks: true, AckEvery: 2, AckTimeout: 100 * sim.Microsecond}
	NewReceiver(eng, hub, 1, 1, cfg)
	eng.At(0, func() { host.Receive(&netsim.Packet{Flow: 1, Dst: 2, Seq: 0, Len: 100}) })
	eng.Run()
	if len(snk.acks) != 1 {
		t.Fatalf("acks = %d, want 1 flushed by the delayed-ACK timer", len(snk.acks))
	}
}

func TestAddDemandValidation(t *testing.T) {
	_, _, snd, _ := buildLoop(t, cc.NewReno(netsim.MSS), DefaultSenderConfig(), DefaultReceiverConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("AddDemand(0) did not panic")
		}
	}()
	snd.AddDemand(0)
}

func TestRepeatedDemandNotifications(t *testing.T) {
	eng, _, snd, _ := buildLoop(t, cc.NewDCTCP(cc.DefaultDCTCPConfig()),
		DefaultSenderConfig(), DefaultReceiverConfig())
	var dones []sim.Time
	snd.SetOnDemandMet(func(now sim.Time) { dones = append(dones, now) })
	snd.AddDemand(10 * netsim.MSS)
	eng.Run()
	snd.AddDemand(10 * netsim.MSS) // second burst on the persistent connection
	eng.Run()
	if len(dones) != 2 {
		t.Fatalf("completion notifications = %d, want 2", len(dones))
	}
	if dones[1] <= dones[0] {
		t.Fatal("second completion should be later")
	}
}

func TestHubIgnoresUnknownFlow(t *testing.T) {
	eng := sim.NewEngine()
	host := netsim.NewHost(eng, 1, "h")
	hub := NewHub(host)
	// Must not panic.
	hub.HandlePacket(&netsim.Packet{Flow: 99})
}

// BenchmarkSenderBurst measures the full sender->receiver->ACK round trip
// for repeated 64 KB bursts over the dumbbell: the packet-pool and
// re-armable-timer hot path.
func BenchmarkSenderBurst(b *testing.B) {
	eng := sim.NewEngine()
	d := netsim.NewDumbbell(eng, netsim.DefaultDumbbellConfig(1))
	sHub := NewHub(d.Senders[0])
	rHub := NewHub(d.Receiver)
	snd := NewSender(eng, sHub, 1, d.Receiver.ID(),
		cc.NewDCTCP(cc.DefaultDCTCPConfig()), DefaultSenderConfig())
	NewReceiver(eng, rHub, 1, d.Senders[0].ID(), DefaultReceiverConfig())

	const burstBytes = 64 * 1000
	b.ReportAllocs()
	b.SetBytes(burstBytes)
	for i := 0; i < b.N; i++ {
		snd.AddDemand(burstBytes)
		eng.Run()
	}
	if !snd.DemandMet() {
		b.Fatal("demand not met")
	}
}
