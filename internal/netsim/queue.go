package netsim

import (
	"fmt"

	"incastlab/internal/sim"
)

// QueueStats aggregates what happened to a queue over its lifetime.
type QueueStats struct {
	// EnqueuedPackets and EnqueuedBytes count packets accepted into the
	// queue (bytes are IP bytes).
	EnqueuedPackets int64
	EnqueuedBytes   int64
	// DroppedPackets and DroppedBytes count tail drops.
	DroppedPackets int64
	DroppedBytes   int64
	// MarkedPackets counts packets that received a CE mark here.
	MarkedPackets int64
	// PeakPackets and PeakBytes are all-time high watermarks.
	PeakPackets int
	PeakBytes   int
}

// Queue is a FIFO with tail-drop and ECN threshold marking, accounted in IP
// bytes and packets. A Queue may additionally be bound to a SharedBuffer, in
// which case admission is also subject to the buffer's dynamic threshold —
// this models the "shared memory between ports" effect the paper blames for
// production losses that the dedicated-queue simulations do not show.
type Queue struct {
	name string

	// CapacityBytes and CapacityPackets bound occupancy; zero means
	// unlimited in that dimension.
	capacityBytes   int
	capacityPackets int

	// ecnThresholdPackets is the marking threshold K: an arriving ECT
	// packet is CE-marked when, after enqueue, occupancy exceeds K
	// packets. Zero disables marking.
	ecnThresholdPackets int
	// ecnAvgWeight, when positive, marks against a RED-style exponentially
	// weighted moving average of the occupancy instead of the
	// instantaneous depth. DCTCP (and this paper) deliberately use
	// instantaneous marking; the averaged option exists for the marking
	// -discipline ablation.
	ecnAvgWeight float64
	ecnAvgDepth  float64

	// ring holds the queued packets in FIFO order, oldest at head: a
	// power-of-two circular buffer that doubles when full and is kept for
	// the queue's lifetime, so each burst reuses the storage earlier bursts
	// grew instead of growing a slice from empty again.
	ring  []*Packet
	head  int
	n     int
	bytes int

	shared *SharedBuffer

	stats QueueStats

	// onChange, if set, observes every occupancy change with the current
	// time; used by experiment instrumentation.
	onChange func(now sim.Time, packets, bytes int)
	// onDrop, if set, observes tail drops.
	onDrop func(now sim.Time, p *Packet)
	// onEnqueue, if set, observes every accepted packet (after marking).
	// Unlike onChange it carries the packet itself, so flow-aware observers
	// (the incast notifier's recent-flow table) can see who is arriving.
	onEnqueue func(now sim.Time, p *Packet)

	// minuteWatermark tracks the per-interval high watermark the way
	// production ToRs export it; see WatermarkSeries in instrument.go.
	watermarkPackets int
}

// QueueConfig configures a Queue.
type QueueConfig struct {
	Name string
	// CapacityBytes limits total IP bytes queued (0 = unlimited).
	CapacityBytes int
	// CapacityPackets limits total packets queued (0 = unlimited).
	CapacityPackets int
	// ECNThresholdPackets is the marking threshold K in packets
	// (0 = no marking).
	ECNThresholdPackets int
	// ECNAverageWeight, when positive (e.g. 0.002 like classic RED), marks
	// against an EWMA of occupancy rather than the instantaneous depth.
	ECNAverageWeight float64
	// Shared optionally subjects this queue to a shared memory pool.
	Shared *SharedBuffer
}

// NewQueue builds a queue from cfg.
func NewQueue(cfg QueueConfig) *Queue {
	if cfg.ECNAverageWeight < 0 || cfg.ECNAverageWeight > 1 {
		panic("netsim: ECN average weight must be in [0,1]")
	}
	q := &Queue{
		name:                cfg.Name,
		capacityBytes:       cfg.CapacityBytes,
		capacityPackets:     cfg.CapacityPackets,
		ecnThresholdPackets: cfg.ECNThresholdPackets,
		ecnAvgWeight:        cfg.ECNAverageWeight,
		shared:              cfg.Shared,
	}
	if q.shared != nil {
		q.shared.register(q)
	}
	return q
}

// Name returns the queue's label.
func (q *Queue) Name() string { return q.name }

// LenPackets returns the current occupancy in packets.
func (q *Queue) LenPackets() int { return q.n }

// LenBytes returns the current occupancy in IP bytes.
func (q *Queue) LenBytes() int { return q.bytes }

// Stats returns a copy of the queue's counters.
func (q *Queue) Stats() QueueStats { return q.stats }

// CapacityPackets returns the packet-count bound (0 = unlimited).
func (q *Queue) CapacityPackets() int { return q.capacityPackets }

// CapacityBytes returns the IP-byte bound (0 = unlimited).
func (q *Queue) CapacityBytes() int { return q.capacityBytes }

// SharedBuffer returns the switch memory pool this queue draws from, or
// nil for a dedicated-buffer port.
func (q *Queue) SharedBuffer() *SharedBuffer { return q.shared }

// SetOnChange installs an occupancy observer (nil to remove).
func (q *Queue) SetOnChange(fn func(now sim.Time, packets, bytes int)) { q.onChange = fn }

// OnChange returns the installed occupancy observer, so a new observer can
// chain to the previous one instead of displacing it.
func (q *Queue) OnChange() func(now sim.Time, packets, bytes int) { return q.onChange }

// SetOnDrop installs a drop observer (nil to remove).
func (q *Queue) SetOnDrop(fn func(now sim.Time, p *Packet)) { q.onDrop = fn }

// OnDrop returns the installed drop observer, for chaining.
func (q *Queue) OnDrop() func(now sim.Time, p *Packet) { return q.onDrop }

// SetOnEnqueue installs an accepted-packet observer (nil to remove). The
// packet must not be mutated or retained.
func (q *Queue) SetOnEnqueue(fn func(now sim.Time, p *Packet)) { q.onEnqueue = fn }

// OnEnqueue returns the installed accepted-packet observer, for chaining.
func (q *Queue) OnEnqueue() func(now sim.Time, p *Packet) { return q.onEnqueue }

// ForEachPacket calls fn for every queued packet in FIFO order. The packets
// must not be mutated or retained; the auditor uses this to cross-check
// occupancy accounting and packet liveness.
func (q *Queue) ForEachPacket(fn func(p *Packet)) {
	mask := len(q.ring) - 1
	for i := 0; i < q.n; i++ {
		fn(q.ring[(q.head+i)&mask])
	}
}

// admissible reports whether p fits under the queue's own limits and, if
// bound, the shared buffer's dynamic threshold.
func (q *Queue) admissible(p *Packet) bool {
	if q.capacityPackets > 0 && q.n+1 > q.capacityPackets {
		return false
	}
	if q.capacityBytes > 0 && q.bytes+p.IPBytes() > q.capacityBytes {
		return false
	}
	if q.shared != nil && !q.shared.admissible(q, p.IPBytes()) {
		return false
	}
	return true
}

// Enqueue attempts to append p. It returns false (a tail drop) when the
// packet does not fit. On success it applies ECN marking.
func (q *Queue) Enqueue(now sim.Time, p *Packet) bool {
	if !q.admissible(p) {
		q.stats.DroppedPackets++
		q.stats.DroppedBytes += int64(p.IPBytes())
		if q.onDrop != nil {
			q.onDrop(now, p)
		}
		return false
	}
	if q.n == len(q.ring) {
		q.growRing()
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = p
	q.n++
	q.bytes += p.IPBytes()
	if q.shared != nil {
		q.shared.grow(p.IPBytes())
	}
	q.stats.EnqueuedPackets++
	q.stats.EnqueuedBytes += int64(p.IPBytes())
	if q.n > q.stats.PeakPackets {
		q.stats.PeakPackets = q.n
	}
	if q.bytes > q.stats.PeakBytes {
		q.stats.PeakBytes = q.bytes
	}
	if q.n > q.watermarkPackets {
		q.watermarkPackets = q.n
	}
	q.updateAvgDepth()
	if q.ecnThresholdPackets > 0 && p.ECT && q.markingDepth() > float64(q.ecnThresholdPackets) {
		p.CE = true
		q.stats.MarkedPackets++
	}
	if q.onEnqueue != nil {
		q.onEnqueue(now, p)
	}
	if q.onChange != nil {
		q.onChange(now, q.n, q.bytes)
	}
	return true
}

// updateAvgDepth folds the current occupancy into the RED-style EWMA. It
// runs on every enqueue and dequeue — not just ECT arrivals past the
// marking gate — so the average tracks the true occupancy and decays as
// the queue drains, the way RED's estimator does. (Sampling only inside
// the marking decision biased the average toward the high depths that
// reach it and froze it across drains.)
func (q *Queue) updateAvgDepth() {
	if q.ecnAvgWeight <= 0 {
		return
	}
	q.ecnAvgDepth = (1-q.ecnAvgWeight)*q.ecnAvgDepth + q.ecnAvgWeight*float64(q.n)
}

// markingDepth returns the occupancy the ECN comparison uses: the
// instantaneous depth (DCTCP's choice), or the RED-style EWMA when
// configured. Read-only; the EWMA itself advances in updateAvgDepth.
func (q *Queue) markingDepth() float64 {
	if q.ecnAvgWeight <= 0 {
		return float64(q.n)
	}
	return q.ecnAvgDepth
}

// Dequeue removes and returns the head packet, or nil if the queue is empty.
func (q *Queue) Dequeue(now sim.Time) *Packet {
	if q.n == 0 {
		return nil
	}
	p := q.ring[q.head]
	q.ring[q.head] = nil
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	q.bytes -= p.IPBytes()
	if q.shared != nil {
		q.shared.shrink(p.IPBytes())
	}
	q.updateAvgDepth()
	if q.onChange != nil {
		q.onChange(now, q.n, q.bytes)
	}
	return p
}

// growRing doubles the full ring, unrolling it so the oldest packet lands at
// index zero.
func (q *Queue) growRing() {
	ring := make([]*Packet, max(minRing, 2*len(q.ring)))
	k := copy(ring, q.ring[q.head:])
	copy(ring[k:], q.ring[:q.head])
	q.ring, q.head = ring, 0
}

// minRing is the first ring allocation, in packets; a power of two.
const minRing = 8

// TakeWatermark returns the high watermark (in packets) since the last call
// and resets it to the current occupancy — the same "high watermark over the
// last interval" semantics production ToRs export.
func (q *Queue) TakeWatermark() int {
	w := q.watermarkPackets
	q.watermarkPackets = q.n
	return w
}

// SharedBuffer models switch packet memory shared among the queues of many
// ports, with a Dynamic Threshold (DT) admission policy: a queue may grow
// only while its occupancy is below alpha * (free shared memory). When other
// ports are busy, free memory shrinks and every queue's effective capacity
// drops — long before any queue reaches its dedicated limit.
type SharedBuffer struct {
	totalBytes int
	usedBytes  int
	// alpha is the DT factor; typical switch defaults are 0.5–8.
	alpha  float64
	queues []*Queue
	// externalBytes models occupancy from ports outside the simulated
	// topology (rack-level contention); see SetExternalBytes.
	externalBytes int
}

// NewSharedBuffer creates a pool of totalBytes with DT factor alpha.
func NewSharedBuffer(totalBytes int, alpha float64) *SharedBuffer {
	if totalBytes <= 0 {
		panic("netsim: shared buffer size must be positive")
	}
	if alpha <= 0 {
		panic("netsim: shared buffer alpha must be positive")
	}
	return &SharedBuffer{totalBytes: totalBytes, alpha: alpha}
}

func (b *SharedBuffer) register(q *Queue) { b.queues = append(b.queues, q) }

// SetExternalBytes declares bytes consumed by traffic to other ports that
// share this memory (e.g. simultaneous bursts to other hosts in the rack).
func (b *SharedBuffer) SetExternalBytes(n int) {
	if n < 0 {
		panic("netsim: external bytes must be non-negative")
	}
	b.externalBytes = n
}

// UsedBytes returns current pool usage including external contention.
func (b *SharedBuffer) UsedBytes() int { return b.usedBytes + b.externalBytes }

// FreeBytes returns remaining pool capacity, clamped at zero. The clamp
// matters: SetExternalBytes can push used+external past totalBytes
// (rack-contention scenarios oversubscribe the pool on purpose), and a
// negative free count would otherwise flow into the DT limit as a negative
// effective capacity. At or beyond saturation every queue's effective
// capacity is simply zero and nothing is admitted until the pool drains.
func (b *SharedBuffer) FreeBytes() int {
	f := b.totalBytes - b.UsedBytes()
	if f < 0 {
		return 0
	}
	return f
}

// admissible applies the DT test for adding n bytes to q.
func (b *SharedBuffer) admissible(q *Queue, n int) bool {
	free := b.FreeBytes()
	if n > free {
		return false
	}
	limit := b.alpha * float64(free)
	return float64(q.bytes+n) <= limit
}

func (b *SharedBuffer) grow(n int)   { b.usedBytes += n }
func (b *SharedBuffer) shrink(n int) { b.usedBytes -= n }

// String describes the pool state.
func (b *SharedBuffer) String() string {
	return fmt.Sprintf("shared buffer %d/%d bytes used (alpha=%.2g, %d queues)",
		b.UsedBytes(), b.totalBytes, b.alpha, len(b.queues))
}
