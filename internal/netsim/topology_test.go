package netsim

import (
	"strings"
	"testing"

	"incastlab/internal/sim"
)

func TestPacketSizes(t *testing.T) {
	p := dataPacket(1, MSS)
	if p.IPBytes() != MTU {
		t.Fatalf("IPBytes = %d, want %d", p.IPBytes(), MTU)
	}
	if p.WireBytes() != MTU+EthernetOverhead {
		t.Fatalf("WireBytes = %d", p.WireBytes())
	}
	ack := &Packet{IsAck: true}
	if ack.IPBytes() != HeaderBytes {
		t.Fatalf("ACK IPBytes = %d", ack.IPBytes())
	}
}

func TestDefaultDumbbellRTTAndBDP(t *testing.T) {
	cfg := DefaultDumbbellConfig(10)
	rtt := cfg.BaseRTT()
	// The paper's target RTT is 30 us; the builder should land within 5%.
	if rtt < 28500*sim.Nanosecond || rtt > 31500*sim.Nanosecond {
		t.Fatalf("base RTT = %v, want ~30us", rtt)
	}
	bdp := cfg.BDPBytes()
	// 10 Gbps x 30 us = 37.5 KB.
	if bdp < 35000 || bdp > 40000 {
		t.Fatalf("BDP = %d bytes, want ~37500", bdp)
	}
}

// TestDumbbellConfigValidate: the default dumbbell builds, and a link
// rate of 0 bps (or less) is an error before BaseRTT would panic on it.
func TestDumbbellConfigValidate(t *testing.T) {
	if err := DefaultDumbbellConfig(10).Validate(); err != nil {
		t.Fatalf("default dumbbell: %v", err)
	}
	for _, mutate := range []func(*DumbbellConfig){
		func(c *DumbbellConfig) { c.HostLinkBps = 0 },
		func(c *DumbbellConfig) { c.CoreLinkBps = -1 },
	} {
		cfg := DefaultDumbbellConfig(10)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "dumbbell link rates must be positive") {
			t.Errorf("host %d bps, core %d bps: Validate = %v", cfg.HostLinkBps, cfg.CoreLinkBps, err)
		}
	}
}

func TestDumbbellEndToEndDelivery(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDumbbell(eng, DefaultDumbbellConfig(3))

	var got []*Packet
	d.Receiver.Attach(PacketHandlerFunc(func(p *Packet) { got = append(got, p) }))

	for i, s := range d.Senders {
		p := &Packet{Flow: FlowID(i), Src: s.ID(), Dst: d.Receiver.ID(), Len: MSS, Seq: 0, ECT: true}
		s.Send(p)
	}
	eng.Run()
	if len(got) != 3 {
		t.Fatalf("receiver got %d packets, want 3", len(got))
	}
	if d.Receiver.RxPackets() != 3 {
		t.Fatalf("rx counter = %d", d.Receiver.RxPackets())
	}
}

func TestDumbbellReversePathDelivery(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDumbbell(eng, DefaultDumbbellConfig(2))

	var got []*Packet
	d.Senders[1].Attach(PacketHandlerFunc(func(p *Packet) { got = append(got, p) }))

	ack := &Packet{Flow: 7, Src: d.Receiver.ID(), Dst: d.Senders[1].ID(), IsAck: true, AckNo: 100}
	d.Receiver.Send(ack)
	eng.Run()
	if len(got) != 1 || got[0].AckNo != 100 {
		t.Fatalf("sender did not get the ACK: %v", got)
	}
}

func TestDumbbellOneWayLatency(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultDumbbellConfig(1)
	d := NewDumbbell(eng, cfg)

	var at sim.Time
	d.Receiver.Attach(PacketHandlerFunc(func(p *Packet) { at = eng.Now() }))
	d.Senders[0].Send(&Packet{Flow: 1, Src: 1, Dst: 0, Len: MSS})
	eng.Run()

	// One-way: 3 serializations + 3 propagations for a full-size packet.
	want := SerializationDelay(MTU+EthernetOverhead, cfg.HostLinkBps)*2 +
		SerializationDelay(MTU+EthernetOverhead, cfg.CoreLinkBps) +
		2*cfg.HostPropDelay + cfg.CorePropDelay
	if at != want {
		t.Fatalf("one-way latency %v, want %v", at, want)
	}
}

func TestDumbbellBottleneckCongestion(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultDumbbellConfig(20)
	d := NewDumbbell(eng, cfg)
	d.Receiver.Attach(PacketHandlerFunc(func(p *Packet) {}))

	// Every sender blasts 10 full packets simultaneously: 200 packets
	// converge on a 10 Gbps downlink fed by a 100 Gbps core; the
	// bottleneck queue must build and mark above K.
	for i, s := range d.Senders {
		for j := 0; j < 10; j++ {
			s.Send(&Packet{Flow: FlowID(i), Src: s.ID(), Dst: 0, Len: MSS, Seq: int64(j * MSS), ECT: true})
		}
	}
	eng.Run()
	st := d.BottleneckQueue().Stats()
	if st.PeakPackets <= cfg.ECNThresholdPackets {
		t.Fatalf("peak queue %d should exceed ECN threshold %d", st.PeakPackets, cfg.ECNThresholdPackets)
	}
	if st.MarkedPackets == 0 {
		t.Fatal("expected CE marks during incast")
	}
	if d.Receiver.RxPackets() != 200 {
		t.Fatalf("rx = %d, want 200 (deep queue should not drop)", d.Receiver.RxPackets())
	}
}

func TestDumbbellSharedBufferCausesEarlierLoss(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultDumbbellConfig(20)
	cfg.SharedBufferBytes = 150 * 1500 // much smaller than the 1333-pkt limit
	cfg.SharedBufferAlpha = 1
	d := NewDumbbell(eng, cfg)
	d.Receiver.Attach(PacketHandlerFunc(func(p *Packet) {}))
	d.Shared.SetExternalBytes(100 * 1500) // rack-level contention

	for i, s := range d.Senders {
		for j := 0; j < 10; j++ {
			s.Send(&Packet{Flow: FlowID(i), Src: s.ID(), Dst: 0, Len: MSS, Seq: int64(j * MSS), ECT: true})
		}
	}
	eng.Run()
	if d.BottleneckQueue().Stats().DroppedPackets == 0 {
		t.Fatal("shared-buffer contention should cause drops well below the per-port limit")
	}
}

func TestSwitchNoRouteDrop(t *testing.T) {
	s := NewSwitch(5, "sw")
	s.Receive(&Packet{Dst: 99})
	if s.NoRouteDrops() != 1 {
		t.Fatalf("noRouteDrops = %d", s.NoRouteDrops())
	}
}

func TestSamplePeriodically(t *testing.T) {
	eng := sim.NewEngine()
	var times []sim.Time
	SamplePeriodically(eng, 100, 50, 4, func(i int) { times = append(times, eng.Now()) })
	eng.Run()
	want := []sim.Time{100, 150, 200, 250}
	if len(times) != 4 {
		t.Fatalf("samples = %v", times)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestQueueDepthAndWatermarkSeries(t *testing.T) {
	eng := sim.NewEngine()
	q := NewQueue(QueueConfig{})
	depth := make([]int, 5)
	SamplePeriodically(eng, 0, 100, 5, func(i int) { depth[i] = q.LenPackets() })
	wm := QueueWatermarkSeries(eng, q, 0, 100, 5)

	eng.At(10, func() {
		for i := 0; i < 7; i++ {
			q.Enqueue(eng.Now(), dataPacket(1, 10))
		}
	})
	eng.At(50, func() {
		for i := 0; i < 5; i++ {
			q.Dequeue(eng.Now())
		}
	})
	eng.Run()

	if depth[0] != 0 { // sampled at t=0, before enqueues
		t.Fatalf("depth[0] = %v", depth[0])
	}
	if depth[1] != 2 { // t=100: 7 in, 5 out
		t.Fatalf("depth[1] = %v", depth[1])
	}
	if wm.Values[0] != 7 { // interval (0,100] saw the peak of 7
		t.Fatalf("wm[0] = %v", wm.Values[0])
	}
	if wm.Values[1] != 2 { // nothing new; watermark = standing occupancy
		t.Fatalf("wm[1] = %v", wm.Values[1])
	}
}

func TestHostIngressRecorder(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, 0, "rx")
	h.Attach(PacketHandlerFunc(func(p *Packet) {}))
	rec := NewHostIngressRecorder(h, 0, sim.Millisecond, 2)

	deliver := func(at sim.Time, p *Packet) {
		eng.At(at, func() { h.Receive(p) })
	}
	deliver(100, &Packet{Flow: 1, Dst: 0, Len: 1000})
	deliver(200, &Packet{Flow: 2, Dst: 0, Len: 1000, CE: true})
	deliver(300, &Packet{Flow: 1, Dst: 0, Len: 1000, Retransmit: true})
	deliver(sim.Time(sim.Millisecond)+1, &Packet{Flow: 3, Dst: 0, Len: 500})
	deliver(400, &Packet{Flow: 9, Dst: 0, IsAck: true}) // ACKs not ingress data
	eng.Run()

	if rec.Bytes.Values[0] != 3*1040 {
		t.Fatalf("bytes[0] = %v", rec.Bytes.Values[0])
	}
	if rec.CEBytes.Values[0] != 1040 {
		t.Fatalf("ce[0] = %v", rec.CEBytes.Values[0])
	}
	if rec.RetxBytes.Values[0] != 1040 {
		t.Fatalf("retx[0] = %v", rec.RetxBytes.Values[0])
	}
	if rec.Flows.Values[0] != 2 { // flows 1 and 2
		t.Fatalf("flows[0] = %v", rec.Flows.Values[0])
	}
	if rec.Flows.Values[1] != 1 || rec.Bytes.Values[1] != 540 {
		t.Fatalf("interval 1: flows=%v bytes=%v", rec.Flows.Values[1], rec.Bytes.Values[1])
	}
}

// rackConfig is the dumbbell with the 2 MB, alpha-1 shared buffer
// ext_rack_contention runs on.
func rackConfig(senders int) DumbbellConfig {
	cfg := DefaultDumbbellConfig(senders)
	cfg.SharedBufferBytes, cfg.SharedBufferAlpha = 2*1000*1000, 1
	return cfg
}

// TestRackDeliveryToBothReceivers: with two receivers behind the receiver
// ToR, receivers take node IDs 0 and 1 and senders 2 onward, and data
// reaches each receiver on its own downlink.
func TestRackDeliveryToBothReceivers(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDumbbellReceivers(eng, rackConfig(4), 2, nil)
	if d.Receiver != d.Receivers[0] || d.Bottleneck != d.Downlinks[0] {
		t.Fatal("Receiver and Bottleneck are not receiver 0's host and downlink")
	}
	for i, h := range d.Receivers {
		if h.ID() != NodeID(i) {
			t.Fatalf("receiver %d has node ID %d", i, h.ID())
		}
	}
	counts := make([]int, 2)
	for i, h := range d.Receivers {
		i := i
		h.Attach(PacketHandlerFunc(func(p *Packet) { counts[i]++ }))
	}
	for i, s := range d.Senders {
		if s.ID() != NodeID(2+i) {
			t.Fatalf("sender %d has node ID %d, want %d", i, s.ID(), 2+i)
		}
		s.Send(&Packet{Flow: FlowID(i + 1), Src: s.ID(), Dst: NodeID(i % 2), Len: MSS})
	}
	eng.Run()
	if counts[0] != 2 || counts[1] != 2 {
		t.Fatalf("deliveries = %v, want 2 each", counts)
	}
	for i, l := range d.Downlinks {
		if got := l.Queue().Stats().EnqueuedPackets; got != 2 {
			t.Errorf("downlink %d carried %d packets, want 2", i, got)
		}
	}
}

// TestRackReversePath: an ACK from the second receiver reaches a sender.
func TestRackReversePath(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDumbbellReceivers(eng, rackConfig(3), 2, nil)
	got := 0
	d.Senders[2].Attach(PacketHandlerFunc(func(p *Packet) { got++ }))
	d.Receivers[1].Send(&Packet{Flow: 9, Src: d.Receivers[1].ID(),
		Dst: d.Senders[2].ID(), IsAck: true})
	eng.Run()
	if got != 1 {
		t.Fatal("ACK did not reach the sender")
	}
}

// TestRackSharedBufferContention: two simultaneous bursts to the two
// receivers compete for one shared buffer, which every downlink draws on.
func TestRackSharedBufferContention(t *testing.T) {
	burstTo := func(twoGroups bool) (drops int64) {
		eng := sim.NewEngine()
		cfg := rackConfig(40)
		cfg.SharedBufferBytes = 100 * 1500 // tight pool: 100 packets
		d := NewDumbbellReceivers(eng, cfg, 2, nil)
		for i, l := range d.Downlinks {
			if l.Queue().SharedBuffer() != d.Shared {
				t.Fatalf("downlink %d does not draw on the shared buffer", i)
			}
			d.Receivers[i].Attach(PacketHandlerFunc(func(p *Packet) {}))
		}
		for i, s := range d.Senders {
			dst := NodeID(0)
			if twoGroups {
				dst = NodeID(i % 2)
			}
			for j := 0; j < 10; j++ {
				s.Send(&Packet{Flow: FlowID(i + 1), Src: s.ID(), Dst: dst,
					Seq: int64(j * MSS), Len: MSS, ECT: true})
			}
		}
		eng.Run()
		for _, l := range d.Downlinks {
			drops += l.Queue().Stats().DroppedPackets
		}
		return drops
	}
	// One group of 400 packets into a 100-packet pool overflows either
	// way; the point is that splitting across two ports does not double
	// the usable memory — DT keeps each port to a share of the one pool.
	solo, dual := burstTo(false), burstTo(true)
	if solo == 0 || dual == 0 {
		t.Fatalf("expected drops under the tight pool: solo=%d dual=%d", solo, dual)
	}
}

// TestRackValidation: a dumbbell with no senders or no receivers is
// refused.
func TestRackValidation(t *testing.T) {
	for _, tc := range []struct {
		name               string
		senders, receivers int
	}{
		{"no senders", 0, 2},
		{"no receivers", 2, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			NewDumbbellReceivers(sim.NewEngine(), rackConfig(tc.senders), tc.receivers, nil)
		}()
	}
}
