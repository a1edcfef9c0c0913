package netsim

import (
	"testing"

	"incastlab/internal/sim"
)

// TestIncastDetectorSlopeTripsWithinRTT drives the bottleneck queue with
// the canonical Fig-5 onset: a 10:1 fan-in over a 10 Gbps port, arrivals at
// the senders' aggregate line rate against the port's drain rate. The
// detector must fire within one base RTT of the first arrival — the whole
// point of switch-side detection is beating the mark-echo round trip.
func TestIncastDetectorSlopeTripsWithinRTT(t *testing.T) {
	eng := sim.NewEngine()
	q := NewQueue(QueueConfig{Name: "bottleneck"})
	d := NewIncastDetector(q, IncastDetectorConfig{}, nil)

	rtt := DefaultDumbbellConfig().BaseRTT()
	const (
		arrivalGap = 121 * sim.Nanosecond  // 10 hosts x 10G: one MTU every ~121ns
		drainGap   = 1211 * sim.Nanosecond // one 10G port: one MTU every ~1.2us
	)
	for i := 0; i < 400; i++ {
		at := sim.Time(i) * arrivalGap
		eng.Schedule(at, func() { q.Enqueue(eng.Now(), dataPacket(1, MTU-HeaderBytes)) })
	}
	for i := 1; i < 400; i++ {
		at := sim.Time(i) * drainGap
		eng.Schedule(at, func() { q.Dequeue(eng.Now()) })
	}
	eng.RunUntil(sim.Second)

	st := d.Stats()
	if st.Fired == 0 {
		t.Fatal("detector never fired on a 10:1 incast onset")
	}
	if st.FirstFired > rtt {
		t.Fatalf("first firing at %v, want within one base RTT (%v) of onset", st.FirstFired, rtt)
	}
	if st.SlopeTrips == 0 {
		t.Fatalf("expected a slope trip; stats = %+v", st)
	}
}

// TestIncastDetectorArrivalBurstTrip covers the fast-port signature: a
// queue that drains as fast as it fills never grows, but the arrival count
// in one window still reveals the synchronized onset.
func TestIncastDetectorArrivalBurstTrip(t *testing.T) {
	q := NewQueue(QueueConfig{})
	d := NewIncastDetector(q, IncastDetectorConfig{BurstArrivals: 8}, nil)
	for i := 0; i < 8; i++ {
		now := sim.Time(i) * 100 * sim.Nanosecond
		q.Enqueue(now, dataPacket(FlowID(i), 100))
		q.Dequeue(now) // depth returns to zero; no slope signal exists
	}
	st := d.Stats()
	if st.Fired != 1 || st.BurstTrips != 1 {
		t.Fatalf("stats = %+v, want exactly one arrival-burst firing", st)
	}
}

func TestIncastDetectorCooldown(t *testing.T) {
	q := NewQueue(QueueConfig{})
	fired := 0
	d := NewIncastDetector(q, IncastDetectorConfig{
		BurstArrivals: 2,
		Window:        sim.Microsecond,
		Cooldown:      50 * sim.Microsecond,
	}, func(now sim.Time) { fired++ })

	burst := func(start sim.Time) {
		for i := 0; i < 4; i++ {
			q.Enqueue(start+sim.Time(i)*10*sim.Nanosecond, dataPacket(FlowID(i), 100))
			q.Dequeue(start + sim.Time(i)*10*sim.Nanosecond)
		}
	}
	burst(0)                    // fires
	burst(10 * sim.Microsecond) // inside cooldown: suppressed
	burst(80 * sim.Microsecond) // past cooldown: fires again
	if fired != 2 {
		t.Fatalf("fired %d times, want 2 (cooldown gates the middle burst)", fired)
	}
	if d.Stats().Fired != 2 {
		t.Fatalf("stats.Fired = %d", d.Stats().Fired)
	}
}

// TestIncastDetectorDropTrips: a tail drop is a definitive overload signal
// and must fire regardless of slope or arrival counts.
func TestIncastDetectorDropTrips(t *testing.T) {
	q := NewQueue(QueueConfig{CapacityPackets: 1})
	var prevDropSeen bool
	q.SetOnDrop(func(now sim.Time, p *Packet) { prevDropSeen = true })
	d := NewIncastDetector(q, IncastDetectorConfig{}, nil)
	q.Enqueue(0, dataPacket(1, 100))
	q.Enqueue(0, dataPacket(2, 100)) // dropped
	if d.Stats().Fired != 1 {
		t.Fatalf("fired = %d, want 1 (drop trip)", d.Stats().Fired)
	}
	if !prevDropSeen {
		t.Fatal("detector must chain to the previously installed drop observer")
	}
}

// TestIncastNotifierQueuedFlows: with a zero horizon the notifier signals
// the distinct data flows currently queued, skipping ACKs and in-flight
// notifications.
func TestIncastNotifierQueuedFlows(t *testing.T) {
	eng := sim.NewEngine()
	net := NewDumbbell(eng, DefaultDumbbellConfig(), 4, 1, nil)
	q := net.BottleneckQueue()

	q.Enqueue(0, &Packet{Flow: 1, Src: 1, Dst: 0, Len: 100, ECT: true})
	q.Enqueue(0, &Packet{Flow: 1, Src: 1, Dst: 0, Len: 100, ECT: true}) // dup flow
	q.Enqueue(0, &Packet{Flow: 2, Src: 2, Dst: 0, Len: 100, ECT: true})
	q.Enqueue(0, &Packet{Flow: 3, Src: 3, Len: 0, IsAck: true})        // ACK: skipped
	q.Enqueue(0, &Packet{Flow: 4, Src: 4, Len: 0, IncastNotify: true}) // notify: skipped

	n := NewIncastNotifier(net.ReceiverToR, net.Pool, 0, q)
	n.Notify(0)
	if n.Sent() != 2 {
		t.Fatalf("sent = %d, want 2 (flows 1 and 2, deduped, control skipped)", n.Sent())
	}
}

// TestIncastNotifierFlowHorizon: with a horizon the notifier signals every
// flow seen recently even after the queue drained, and prunes entries older
// than the horizon.
func TestIncastNotifierFlowHorizon(t *testing.T) {
	eng := sim.NewEngine()
	net := NewDumbbell(eng, DefaultDumbbellConfig(), 4, 1, nil)
	q := net.BottleneckQueue()
	n := NewIncastNotifier(net.ReceiverToR, net.Pool, 100*sim.Microsecond, q)

	// Flow 1 passes through early, flow 2 recently; both drain fully.
	q.Enqueue(0, &Packet{Flow: 1, Src: 1, Dst: 0, Len: 100, ECT: true})
	q.Dequeue(0)
	q.Enqueue(150*sim.Microsecond, &Packet{Flow: 2, Src: 2, Dst: 0, Len: 100, ECT: true})
	q.Dequeue(150 * sim.Microsecond)

	// At t=200us flow 1 (seen at t=0) is beyond the 100us horizon.
	n.Notify(200 * sim.Microsecond)
	if n.Sent() != 1 {
		t.Fatalf("sent = %d, want 1 (only flow 2 within the horizon)", n.Sent())
	}
	// The stale entry was pruned; a fresh pass re-registers it.
	q.Enqueue(210*sim.Microsecond, &Packet{Flow: 1, Src: 1, Dst: 0, Len: 100, ECT: true})
	q.Dequeue(210 * sim.Microsecond)
	n.Notify(220 * sim.Microsecond)
	if n.Sent() != 3 {
		t.Fatalf("sent = %d, want 3 (both flows on the second firing)", n.Sent())
	}
}

// TestClosLeafCoordination: a leaf declares incast only when enough of its
// uplink ports trip within the coordination window, and then notifies the
// flows its recent-flow table holds.
func TestClosLeafCoordination(t *testing.T) {
	eng := sim.NewEngine()
	net := NewClos(eng, DefaultClosConfig(2, 4), nil)
	coords := AttachClosIncastDetection(net, ClosDetectorConfig{MinPorts: 2})
	if len(coords) != 2 {
		t.Fatalf("got %d coordinators, want one per rack", len(coords))
	}
	c := coords[1]
	uplinks := net.Uplinks(1)
	if len(uplinks) != 2 {
		t.Fatalf("rack 1 has %d uplinks", len(uplinks))
	}

	// Overfill port 0 only: one hot port must not fire the leaf.
	for i := 0; i < 20; i++ {
		uplinks[0].Queue().Enqueue(sim.Time(i)*10*sim.Nanosecond,
			&Packet{Flow: FlowID(i), Src: net.Config.HostID(1, i%4), Dst: 0, Len: 100, ECT: true})
	}
	if st := c.Stats(); st.PortFirings != 1 || st.LeafFirings != 0 {
		t.Fatalf("after one hot port: %+v, want 1 port firing and no leaf firing", st)
	}

	// The second port trips within the coordination window: the leaf fires
	// and notifies every flow in its recent-flow table (both ports' flows).
	for i := 0; i < 20; i++ {
		uplinks[1].Queue().Enqueue(100*sim.Nanosecond+sim.Time(i)*10*sim.Nanosecond,
			&Packet{Flow: FlowID(100 + i), Src: net.Config.HostID(1, i%4), Dst: 0, Len: 100, ECT: true})
	}
	st := c.Stats()
	if st.LeafFirings != 1 {
		t.Fatalf("after two hot ports: %+v, want a coordinated leaf firing", st)
	}
	// The leaf fires mid-burst, at port 1's 17th arrival (slope trip): the
	// recent-flow table holds all 20 port-0 flows plus the 17 port-1 flows
	// seen so far.
	if st.NotificationsSent != 37 {
		t.Fatalf("notified %d flows, want 37 (everyone seen by firing time)", st.NotificationsSent)
	}
	if st.FirstFired == 0 {
		t.Fatal("first-fired time not recorded")
	}
	if coords[0].Stats().LeafFirings != 0 {
		t.Fatal("rack 0 saw no traffic and must stay silent")
	}
}

// TestQueueOnEnqueueObserver: the observer sees accepted packets (not
// drops) and chains like the other observers.
func TestQueueOnEnqueueObserver(t *testing.T) {
	q := NewQueue(QueueConfig{CapacityPackets: 2})
	var seen []FlowID
	q.SetOnEnqueue(func(now sim.Time, p *Packet) { seen = append(seen, p.Flow) })
	prev := q.OnEnqueue()
	var chained int
	q.SetOnEnqueue(func(now sim.Time, p *Packet) {
		chained++
		prev(now, p)
	})
	q.Enqueue(0, dataPacket(1, 10))
	q.Enqueue(0, dataPacket(2, 10))
	q.Enqueue(0, dataPacket(3, 10)) // dropped: not observed
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 || chained != 2 {
		t.Fatalf("seen = %v, chained = %d", seen, chained)
	}
}
