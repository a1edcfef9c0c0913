package netsim

import (
	"testing"
	"testing/quick"

	"incastlab/internal/sim"
)

func dataPacket(flow FlowID, lenBytes int) *Packet {
	return &Packet{Flow: flow, Len: lenBytes, ECT: true}
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue(QueueConfig{Name: "q"})
	p1, p2 := dataPacket(1, 100), dataPacket(2, 200)
	if !q.Enqueue(0, p1) || !q.Enqueue(0, p2) {
		t.Fatal("enqueue failed on empty queue")
	}
	if q.LenPackets() != 2 {
		t.Fatalf("len = %d", q.LenPackets())
	}
	if q.LenBytes() != p1.IPBytes()+p2.IPBytes() {
		t.Fatalf("bytes = %d", q.LenBytes())
	}
	if got := q.Dequeue(0); got != p1 {
		t.Fatal("dequeue order wrong")
	}
	if got := q.Dequeue(0); got != p2 {
		t.Fatal("dequeue order wrong")
	}
	if q.Dequeue(0) != nil {
		t.Fatal("dequeue of empty queue should be nil")
	}
}

func TestQueuePacketCapacity(t *testing.T) {
	q := NewQueue(QueueConfig{CapacityPackets: 2})
	if !q.Enqueue(0, dataPacket(1, 10)) || !q.Enqueue(0, dataPacket(1, 10)) {
		t.Fatal("first two packets should fit")
	}
	if q.Enqueue(0, dataPacket(1, 10)) {
		t.Fatal("third packet should be dropped")
	}
	st := q.Stats()
	if st.DroppedPackets != 1 || st.EnqueuedPackets != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestQueueByteCapacity(t *testing.T) {
	q := NewQueue(QueueConfig{CapacityBytes: 1500})
	big := dataPacket(1, 1460) // 1500 IP bytes
	if !q.Enqueue(0, big) {
		t.Fatal("first packet should fit exactly")
	}
	if q.Enqueue(0, dataPacket(1, 1)) {
		t.Fatal("queue full by bytes; enqueue should fail")
	}
	q.Dequeue(0)
	if !q.Enqueue(0, dataPacket(1, 1)) {
		t.Fatal("after dequeue there is room")
	}
}

func TestQueueECNMarking(t *testing.T) {
	q := NewQueue(QueueConfig{ECNThresholdPackets: 2})
	a, b, c := dataPacket(1, 10), dataPacket(1, 10), dataPacket(1, 10)
	q.Enqueue(0, a)
	q.Enqueue(0, b)
	if a.CE || b.CE {
		t.Fatal("packets at or below threshold should not be marked")
	}
	q.Enqueue(0, c)
	if !c.CE {
		t.Fatal("packet above threshold should be CE-marked")
	}
	if q.Stats().MarkedPackets != 1 {
		t.Fatalf("marked = %d", q.Stats().MarkedPackets)
	}
}

func TestQueueECNRequiresECT(t *testing.T) {
	q := NewQueue(QueueConfig{ECNThresholdPackets: 1})
	q.Enqueue(0, dataPacket(1, 10))
	notECT := &Packet{Flow: 1, Len: 10}
	q.Enqueue(0, notECT)
	if notECT.CE {
		t.Fatal("non-ECT packet must not be CE-marked")
	}
}

func TestQueueWatermark(t *testing.T) {
	q := NewQueue(QueueConfig{})
	for i := 0; i < 5; i++ {
		q.Enqueue(0, dataPacket(1, 10))
	}
	for i := 0; i < 3; i++ {
		q.Dequeue(0)
	}
	if w := q.TakeWatermark(); w != 5 {
		t.Fatalf("watermark = %d, want 5", w)
	}
	// After taking, the watermark restarts from current occupancy (2).
	if w := q.TakeWatermark(); w != 2 {
		t.Fatalf("watermark after reset = %d, want 2", w)
	}
}

func TestQueueObservers(t *testing.T) {
	q := NewQueue(QueueConfig{CapacityPackets: 1})
	var changes, drops int
	q.SetOnChange(func(now sim.Time, pkts, bytes int) { changes++ })
	q.SetOnDrop(func(now sim.Time, p *Packet) { drops++ })
	q.Enqueue(0, dataPacket(1, 10)) // change
	q.Enqueue(0, dataPacket(1, 10)) // drop
	q.Dequeue(0)                    // change
	if changes != 2 || drops != 1 {
		t.Fatalf("changes=%d drops=%d", changes, drops)
	}
}

// TestQueueConservationProperty: enqueued = dequeued + still-queued, and
// occupancy is never negative, under random operation sequences.
func TestQueueConservationProperty(t *testing.T) {
	f := func(ops []bool, capPkts uint8) bool {
		q := NewQueue(QueueConfig{CapacityPackets: int(capPkts)})
		var accepted, dequeued int64
		for _, enq := range ops {
			if enq {
				if q.Enqueue(0, dataPacket(1, 100)) {
					accepted++
				}
			} else if q.Dequeue(0) != nil {
				dequeued++
			}
			if q.LenPackets() < 0 || q.LenBytes() < 0 {
				return false
			}
			if capPkts > 0 && q.LenPackets() > int(capPkts) {
				return false
			}
		}
		return accepted == dequeued+int64(q.LenPackets()) &&
			q.Stats().EnqueuedPackets == accepted
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQueueRingFIFOProperty drives random enqueue/dequeue sequences
// against a plain-slice FIFO and checks that the ring returns the same
// dequeue sequence and walks the same ForEachPacket order after every
// step. TestQueueConservationProperty only counts packets, so it cannot
// see a reordering. The capacities and phase lengths make the ring wrap
// and then grow while wrapped, which the test checks it saw.
func TestQueueRingFIFOProperty(t *testing.T) {
	rng := sim.NewRand(7)
	caps := []int{0, 3, 8, 9, 17, 100}
	grewWrapped := 0
	for trial := 0; trial < 120; trial++ {
		capPkts := caps[trial%len(caps)]
		q := NewQueue(QueueConfig{CapacityPackets: capPkts})
		var model []*Packet
		next := 0
		for phase := 0; phase < 8; phase++ {
			// Alternate enqueue-heavy and dequeue-heavy phases.
			enq := 0.75
			if phase%2 == 1 {
				enq = 0.3
			}
			for step, n := 0, 1+rng.IntN(60); step < n; step++ {
				if rng.Float64() < enq {
					if q.n == len(q.ring) && q.head != 0 {
						grewWrapped++
					}
					p := dataPacket(FlowID(next), 100)
					next++
					fits := capPkts == 0 || len(model) < capPkts
					if q.Enqueue(0, p) != fits {
						t.Fatalf("trial %d: enqueue at %d of cap %d returned %v", trial, len(model), capPkts, !fits)
					}
					if fits {
						model = append(model, p)
					}
				} else {
					var want *Packet
					if len(model) > 0 {
						want, model = model[0], model[1:]
					}
					if got := q.Dequeue(0); got != want {
						t.Fatalf("trial %d: dequeued %v, want %v", trial, got, want)
					}
				}
				var walked []*Packet
				q.ForEachPacket(func(p *Packet) { walked = append(walked, p) })
				if q.LenPackets() != len(model) || len(walked) != len(model) {
					t.Fatalf("trial %d: %d packets, walked %d, model holds %d",
						trial, q.LenPackets(), len(walked), len(model))
				}
				for i := range model {
					if walked[i] != model[i] {
						t.Fatalf("trial %d: ForEachPacket position %d out of FIFO order", trial, i)
					}
				}
			}
		}
	}
	if grewWrapped == 0 {
		t.Fatal("no trial grew the ring while it was wrapped")
	}
}

func TestSharedBufferDynamicThreshold(t *testing.T) {
	// Pool of 10 full packets, alpha 1: a queue may hold at most
	// alpha*free bytes.
	pool := NewSharedBuffer(10*1500, 1)
	q1 := NewQueue(QueueConfig{Name: "q1", Shared: pool})
	q2 := NewQueue(QueueConfig{Name: "q2", Shared: pool})

	// With alpha=1, a single queue can grow until its occupancy equals the
	// free space: occupancy <= (total-occupancy) => at most 5 packets.
	n := 0
	for q1.Enqueue(0, dataPacket(1, 1460)) {
		n++
		if n > 100 {
			t.Fatal("queue grew without bound")
		}
	}
	if n != 5 {
		t.Fatalf("DT admitted %d packets, want 5", n)
	}
	// The second queue sees less free memory and caps lower.
	m := 0
	for q2.Enqueue(0, dataPacket(2, 1460)) {
		m++
		if m > 100 {
			t.Fatal("queue grew without bound")
		}
	}
	if m >= n {
		t.Fatalf("second queue admitted %d >= first %d; DT should shrink", m, n)
	}
	// Draining q1 frees memory for q2 again.
	for q1.Dequeue(0) != nil {
	}
	if !q2.Enqueue(0, dataPacket(2, 1460)) {
		t.Fatal("after drain, q2 should have room")
	}
}

func TestSharedBufferExternalContention(t *testing.T) {
	pool := NewSharedBuffer(10*1500, 1)
	q := NewQueue(QueueConfig{Shared: pool})
	// Outside traffic consumes 80% of the pool.
	pool.SetExternalBytes(8 * 1500)
	n := 0
	for q.Enqueue(0, dataPacket(1, 1460)) {
		n++
	}
	if n != 1 {
		t.Fatalf("with heavy contention admitted %d packets, want 1", n)
	}
	if pool.FreeBytes() != 10*1500-8*1500-n*1500 {
		t.Fatalf("free = %d", pool.FreeBytes())
	}
}

func TestSharedBufferHardLimit(t *testing.T) {
	pool := NewSharedBuffer(1500, 100) // huge alpha; hard limit binds
	q := NewQueue(QueueConfig{Shared: pool})
	if !q.Enqueue(0, dataPacket(1, 1460)) {
		t.Fatal("first packet fits")
	}
	if q.Enqueue(0, dataPacket(1, 1460)) {
		t.Fatal("pool exhausted; must drop")
	}
}

func TestQueueEWMAMarkingLags(t *testing.T) {
	// Instantaneous marking fires on the first packet past the threshold;
	// EWMA marking needs the average to climb there first.
	inst := NewQueue(QueueConfig{ECNThresholdPackets: 2})
	avg := NewQueue(QueueConfig{ECNThresholdPackets: 2, ECNAverageWeight: 0.01})
	for i := 0; i < 10; i++ {
		inst.Enqueue(0, dataPacket(1, 10))
		avg.Enqueue(0, dataPacket(1, 10))
	}
	if inst.Stats().MarkedPackets == 0 {
		t.Fatal("instantaneous marking should fire within 10 packets")
	}
	if avg.Stats().MarkedPackets != 0 {
		t.Fatal("a w=0.01 EWMA cannot reach the threshold in 10 packets")
	}
	// A sustained standing queue eventually marks under EWMA too.
	for i := 0; i < 2000; i++ {
		avg.Enqueue(0, dataPacket(1, 10))
		avg.Dequeue(0)
	}
	if avg.Stats().MarkedPackets == 0 {
		t.Fatal("EWMA marking should engage for a standing queue")
	}
}

// TestQueueEWMATracksAllOccupancyChanges pins the estimator semantics: the
// EWMA advances on every enqueue and dequeue, like RED's, not only on ECT
// arrivals that reach the marking comparison. Sampling inside the marking
// gate biased the average toward high depths and froze it across drains.
func TestQueueEWMATracksAllOccupancyChanges(t *testing.T) {
	const w = 0.25
	q := NewQueue(QueueConfig{ECNThresholdPackets: 1000, ECNAverageWeight: w})
	want := 0.0
	step := func(depth int) {
		want = (1-w)*want + w*float64(depth)
		if q.ecnAvgDepth != want {
			t.Fatalf("at depth %d: avg = %v, want %v", depth, q.ecnAvgDepth, want)
		}
	}
	// Non-ECT arrivals never reach the marking comparison, yet they must
	// advance the estimator.
	for i := 1; i <= 8; i++ {
		q.Enqueue(0, &Packet{Flow: 1, Len: 100})
		step(i)
	}
	peak := q.ecnAvgDepth
	// Draining must decay the average, not freeze it at the peak.
	for i := 7; i >= 0; i-- {
		q.Dequeue(0)
		step(i)
	}
	if q.ecnAvgDepth >= peak {
		t.Fatalf("average did not decay on drain: %v (peak %v)", q.ecnAvgDepth, peak)
	}
}

func TestSharedBufferSaturationClamp(t *testing.T) {
	pool := NewSharedBuffer(10*1500, 2)
	q := NewQueue(QueueConfig{Shared: pool})
	if !q.Enqueue(0, dataPacket(1, 1460)) || !q.Enqueue(0, dataPacket(1, 1460)) {
		t.Fatal("uncontended pool should admit")
	}

	// External contention oversubscribes the pool past its total (the
	// rack-contention scenarios do this on purpose). Free must clamp at
	// zero, not go negative into the DT limit.
	pool.SetExternalBytes(12 * 1500)
	if pool.FreeBytes() != 0 {
		t.Fatalf("free = %d, want 0 when oversubscribed", pool.FreeBytes())
	}
	if q.Enqueue(0, dataPacket(1, 1460)) {
		t.Fatal("saturated pool must admit nothing")
	}

	// Exactly full behaves the same as oversubscribed.
	pool.SetExternalBytes(10*1500 - q.LenBytes())
	if pool.FreeBytes() != 0 {
		t.Fatalf("free = %d, want 0 when exactly full", pool.FreeBytes())
	}
	if q.Enqueue(0, dataPacket(1, 1460)) {
		t.Fatal("exactly-full pool must admit nothing")
	}

	// Saturation is not sticky: when contention clears, admission resumes.
	pool.SetExternalBytes(0)
	if pool.FreeBytes() != 10*1500-q.LenBytes() {
		t.Fatalf("free after recovery = %d", pool.FreeBytes())
	}
	if !q.Enqueue(0, dataPacket(1, 1460)) {
		t.Fatal("after contention clears, the queue should grow again")
	}
}

func TestQueueEWMAWeightValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("weight > 1 did not panic")
		}
	}()
	NewQueue(QueueConfig{ECNAverageWeight: 1.5})
}
