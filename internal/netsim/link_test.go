package netsim

import (
	"testing"

	"incastlab/internal/sim"
)

// sink is a Device that records arrivals.
type sink struct {
	id       NodeID
	arrivals []arrival
	eng      *sim.Engine
}

type arrival struct {
	p  *Packet
	at sim.Time
}

func (s *sink) ID() NodeID   { return s.id }
func (s *sink) Name() string { return "sink" }
func (s *sink) Receive(p *Packet) {
	s.arrivals = append(s.arrivals, arrival{p, s.eng.Now()})
}

func TestSerializationDelay(t *testing.T) {
	// 1538 wire bytes at 10 Gbps = 1230.4 ns (integer-truncated).
	if d := SerializationDelay(1538, 10*Gbps); d != 1230 {
		t.Fatalf("delay = %v, want 1230ns", d)
	}
	if d := SerializationDelay(1538, 100*Gbps); d != 123 {
		t.Fatalf("delay = %v, want 123ns", d)
	}
}

func TestLinkDeliversWithSerializationAndPropagation(t *testing.T) {
	eng := sim.NewEngine()
	dst := &sink{id: 9, eng: eng}
	l := NewLink(eng, LinkConfig{
		Name:         "l",
		BandwidthBps: 10 * Gbps,
		PropDelay:    1000,
		Queue:        NewQueue(QueueConfig{}),
		Dst:          dst,
	})
	p := dataPacket(1, MSS) // 1500 IP bytes, 1538 wire bytes
	l.Send(p)
	eng.Run()
	if len(dst.arrivals) != 1 {
		t.Fatalf("arrivals = %d", len(dst.arrivals))
	}
	want := sim.Time(1230 + 1000)
	if dst.arrivals[0].at != want {
		t.Fatalf("arrival at %v, want %v", dst.arrivals[0].at, want)
	}
	if l.TxPackets() != 1 || l.TxBytes() != 1538 {
		t.Fatalf("tx stats = %d pkts %d bytes", l.TxPackets(), l.TxBytes())
	}
}

func TestLinkSerializesBackToBack(t *testing.T) {
	eng := sim.NewEngine()
	dst := &sink{id: 9, eng: eng}
	l := NewLink(eng, LinkConfig{
		BandwidthBps: 10 * Gbps,
		PropDelay:    0,
		Queue:        NewQueue(QueueConfig{}),
		Dst:          dst,
	})
	for i := 0; i < 3; i++ {
		l.Send(dataPacket(FlowID(i), MSS))
	}
	eng.Run()
	if len(dst.arrivals) != 3 {
		t.Fatalf("arrivals = %d", len(dst.arrivals))
	}
	// Back-to-back packets arrive one serialization apart.
	for i, a := range dst.arrivals {
		want := sim.Time(1230 * (i + 1))
		if a.at != want {
			t.Fatalf("packet %d arrived at %v, want %v", i, a.at, want)
		}
	}
}

func TestLinkThroughputMatchesBandwidth(t *testing.T) {
	eng := sim.NewEngine()
	dst := &sink{id: 9, eng: eng}
	l := NewLink(eng, LinkConfig{
		BandwidthBps: 10 * Gbps,
		PropDelay:    0,
		Queue:        NewQueue(QueueConfig{}),
		Dst:          dst,
	})
	// Offer 1 ms of traffic at exactly line rate: 10 Gbps over 1538-byte
	// frames = ~812.7 frames/ms.
	n := 812
	for i := 0; i < n; i++ {
		l.Send(dataPacket(1, MSS))
	}
	end := eng.Run()
	wantEnd := sim.Time(n) * 1230
	if end != wantEnd {
		t.Fatalf("drained at %v, want %v", end, wantEnd)
	}
	if len(dst.arrivals) != n {
		t.Fatalf("delivered %d of %d", len(dst.arrivals), n)
	}
}

func TestLinkTransmitterRestartsAfterIdle(t *testing.T) {
	eng := sim.NewEngine()
	dst := &sink{id: 9, eng: eng}
	l := NewLink(eng, LinkConfig{
		BandwidthBps: 10 * Gbps,
		PropDelay:    0,
		Queue:        NewQueue(QueueConfig{}),
		Dst:          dst,
	})
	l.Send(dataPacket(1, 100))
	eng.Run()
	// Link idles; a later send must restart the transmitter.
	eng.After(5000, func() { l.Send(dataPacket(1, 100)) })
	eng.Run()
	if len(dst.arrivals) != 2 {
		t.Fatalf("arrivals = %d, want 2", len(dst.arrivals))
	}
	if dst.arrivals[1].at <= dst.arrivals[0].at {
		t.Fatal("second arrival should be later")
	}
}

func TestLinkDropsWhenQueueFull(t *testing.T) {
	eng := sim.NewEngine()
	dst := &sink{id: 9, eng: eng}
	q := NewQueue(QueueConfig{CapacityPackets: 1})
	l := NewLink(eng, LinkConfig{
		BandwidthBps: 10 * Gbps,
		PropDelay:    0,
		Queue:        q,
		Dst:          dst,
	})
	// First send starts serializing immediately (leaves the queue); second
	// occupies the single slot; third drops.
	l.Send(dataPacket(1, MSS))
	l.Send(dataPacket(2, MSS))
	l.Send(dataPacket(3, MSS))
	eng.Run()
	if len(dst.arrivals) != 2 {
		t.Fatalf("delivered %d, want 2", len(dst.arrivals))
	}
	if q.Stats().DroppedPackets != 1 {
		t.Fatalf("drops = %d, want 1", q.Stats().DroppedPackets)
	}
}

func TestLinkConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	dst := &sink{id: 1, eng: eng}
	mustPanic := func(name string, cfg LinkConfig) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		NewLink(eng, cfg)
	}
	mustPanic("nil queue", LinkConfig{BandwidthBps: 1, Dst: dst})
	mustPanic("nil dst", LinkConfig{BandwidthBps: 1, Queue: NewQueue(QueueConfig{})})
	mustPanic("zero bw", LinkConfig{Queue: NewQueue(QueueConfig{}), Dst: dst})
	mustPanic("neg delay", LinkConfig{BandwidthBps: 1, PropDelay: -1, Queue: NewQueue(QueueConfig{}), Dst: dst})
}

// TestLinkInFlightStream streams 10,000 packets back to back through one
// link and checks, before every event, the in-flight count and
// ForEachInFlight's order against a plain-slice model, and every delivery
// against send order. Runs of minimum-size and full-size packets make the
// number in propagation swing between a few and a few dozen, so the
// in-flight ring wraps and grows while wrapped. The link never goes idle,
// so its in-flight storage must still follow the packets in flight, not
// the length of the stream.
func TestLinkInFlightStream(t *testing.T) {
	const n = 10_000
	eng := sim.NewEngine()
	dst := &sink{id: 9, eng: eng}
	q := NewQueue(QueueConfig{})
	l := NewLink(eng, LinkConfig{
		BandwidthBps: 10 * Gbps,
		PropDelay:    5 * sim.Microsecond,
		Queue:        q,
		Dst:          dst,
	})
	rng := sim.NewRand(3)
	sent := make([]*Packet, 0, n)
	for size := MSS; len(sent) < n; {
		if rng.IntN(40) == 0 {
			size = MSS + 64 - size // switch between full and minimum size
		}
		p := dataPacket(FlowID(len(sent)), size)
		sent = append(sent, p)
		l.Send(p)
	}
	peak := 0
	var walked, want []*Packet
	eng.SetOnEvent(func(sim.Time) {
		delivered, serialized := len(dst.arrivals), int(l.TxPackets())
		want = want[:0]
		if serialized+q.LenPackets() < n {
			want = append(want, sent[serialized]) // the packet on the wire
		}
		want = append(want, sent[delivered:serialized]...)
		walked = walked[:0]
		l.ForEachInFlight(func(p *Packet) { walked = append(walked, p) })
		if l.InFlightPackets() != len(want) || len(walked) != len(want) {
			t.Fatalf("at %v: %d in flight, walked %d, want %d",
				eng.Now(), l.InFlightPackets(), len(walked), len(want))
		}
		for i := range want {
			if walked[i] != want[i] {
				t.Fatalf("at %v: in-flight packet %d is flow %d, want flow %d",
					eng.Now(), i, walked[i].Flow, want[i].Flow)
			}
		}
		peak = max(peak, len(want))
	})
	eng.Run()
	if len(dst.arrivals) != n {
		t.Fatalf("delivered %d of %d", len(dst.arrivals), n)
	}
	for i, a := range dst.arrivals {
		if a.p != sent[i] {
			t.Fatalf("delivery %d is flow %d, want flow %d", i, a.p.Flow, sent[i].Flow)
		}
	}
	if peak < 20 {
		t.Fatalf("peak in flight %d: the stream never filled the pipe with small packets", peak)
	}
	if c := len(l.inflight.buf); c > 4*peak {
		t.Fatalf("in-flight storage holds %d slots after the stream, peak in flight was %d", c, peak)
	}
}
