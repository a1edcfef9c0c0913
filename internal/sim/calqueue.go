package sim

// This file implements the engine's bucketed calendar queue — the default
// event scheduler. The classic binary heap pays O(log n) pointer-chasing
// comparisons per push and pop; at incast degrees in the hundreds to
// thousands the heap holds tens of thousands of near-simultaneous events
// and those comparisons dominate scheduler time. The calendar queue splits
// the timeline into a ring of fixed-width buckets and keeps events sorted
// only within the small window currently being drained:
//
//   - nowq: a FIFO for events scheduled at exactly the current virtual
//     time. Causally-chained "fire now" events (packet forwarding chains)
//     append and pop here without touching any ordering structure; FIFO
//     order is (time, seq) order because seq is assignment order.
//   - cur: a small binary heap holding every pending event with at <
//     curEnd (the end of the current bucket window). All pops come from
//     cur or nowq.
//   - buckets: the ring. An event with curEnd <= at < curStart +
//     bucketCount*width lands in bucket (at>>shift)&mask as an unsorted
//     O(1) append. When the window reaches a bucket, its events move into
//     cur and are heapified once.
//   - overflow: a binary heap for events beyond the ring horizon — RTO
//     timers, burst starts, scenario phases. Events migrate from overflow
//     into cur when the window reaches their bucket. Cancellation is eager
//     everywhere (heap remove / swap-remove / tombstone), which matters
//     here: TCP re-arms its RTO via ResetAfter on nearly every ACK, and a
//     lazy overflow heap would fill with dead timers.
//
// Ordering correctness rests on one invariant: every event in the ring or
// overflow has at >= curEnd, and every event in cur or nowq has at <
// curEnd. The window only advances when cur and nowq are empty, so the
// global (time, seq) minimum always sits in cur or nowq, and comparing
// their heads is enough. The same-timestamp FIFO is correct because an
// event can only enter nowq while now equals its timestamp, and nowq
// drains completely before the clock advances — so any cur event sharing
// its timestamp was scheduled earlier (smaller seq) and wins the
// comparison.
//
// The bucket width adapts to event density, deterministically: all resize
// decisions are functions of virtual state (walked-empty-bucket streaks
// and bucket loads), never of wall time. A walk that crosses
// bucketCount/4 empty buckets doubles the width; a bucket that loads more
// than calNarrowLoad events into cur schedules a halving at the next
// window advance. Resizes re-place the ring and cur contents under the
// new width, restoring the invariant above.
const (
	calBuckets    = 1024 // ring size, fixed power of two
	calInitShift  = 10   // initial bucket width 2^10 ns ≈ 1 µs (~one MTU at 10 Gbps)
	calMinShift   = 7    // narrowest bucket: 128 ns
	calMaxShift   = 22   // widest bucket: ~4.2 ms
	calNarrowLoad = 128  // bucket load that triggers a width halving
	calWidenWalk  = calBuckets / 4
)

// Event locations, for eager cancellation.
const (
	locFree int8 = iota // recycled / executed / never scheduled
	locCur              // in the cur heap
	locRing             // in a ring bucket
	locNow              // in the same-timestamp FIFO
	locOver             // in the overflow heap
	locRef              // in the reference heap (refMode engines)
)

// calQueue is the calendar queue state embedded in Engine.
type calQueue struct {
	shift   uint
	mask    int
	buckets [][]*event
	ringN   int // live events across all ring buckets

	curStart Time // start of the current bucket window
	curIdx   int
	cur      eventHeap

	nowq     []*event // same-timestamp FIFO; canceled slots are nil
	nowqHead int

	overflow eventHeap

	n          int  // total live events in the queue
	wantNarrow bool // a halving is due at the next window advance

	scratch []*event // reused by rescale

	// Stats, reported via Engine.SchedulerStats.
	resizes    uint64
	migrations uint64
	nowFast    uint64
}

func (cq *calQueue) width() Time { return Time(1) << cq.shift }

func (cq *calQueue) init(now Time) {
	cq.shift = calInitShift
	cq.mask = calBuckets - 1
	cq.buckets = make([][]*event, calBuckets)
	cq.setWindow(now)
}

// setWindow anchors the current bucket window at the bucket containing t.
func (cq *calQueue) setWindow(t Time) {
	cq.curStart = t >> cq.shift << cq.shift
	cq.curIdx = int(uint64(t)>>cq.shift) & cq.mask
}

// add places a newly scheduled event. now is the engine clock.
func (cq *calQueue) add(ev *event, now Time) {
	if cq.buckets == nil {
		cq.init(now)
	}
	cq.n++
	if ev.at == now {
		ev.loc = locNow
		ev.index = len(cq.nowq)
		cq.nowq = append(cq.nowq, ev)
		cq.nowFast++
		return
	}
	cq.place(ev)
}

// place routes a future event (at > now) to cur, a ring bucket, or the
// overflow heap. All comparisons are written to survive timestamps near
// MaxTime without signed overflow.
func (cq *calQueue) place(ev *event) {
	if ev.at < cq.curStart {
		// The window advanced past this timestamp while peeking ahead;
		// the event still belongs to the pile currently being drained.
		ev.loc = locCur
		cq.cur.push(ev)
		return
	}
	d := uint64(ev.at - cq.curStart)
	switch {
	case d < uint64(cq.width()):
		ev.loc = locCur
		cq.cur.push(ev)
	case d < uint64(cq.width())<<uint(calBucketsLog):
		b := int(uint64(ev.at)>>cq.shift) & cq.mask
		ev.loc = locRing
		ev.index = len(cq.buckets[b])
		cq.buckets[b] = append(cq.buckets[b], ev)
		cq.ringN++
	default:
		ev.loc = locOver
		cq.overflow.push(ev)
	}
}

const calBucketsLog = 10

// head returns the earliest live event without removing it, advancing the
// bucket window as needed. Returns nil when the queue is empty.
func (cq *calQueue) head(now Time) *event {
	for {
		for cq.nowqHead < len(cq.nowq) && cq.nowq[cq.nowqHead] == nil {
			cq.nowqHead++
		}
		var nq *event
		if cq.nowqHead < len(cq.nowq) {
			nq = cq.nowq[cq.nowqHead]
		}
		if len(cq.cur) > 0 {
			ct := cq.cur[0]
			if nq == nil || ct.before(nq) {
				return ct
			}
		}
		if nq != nil {
			return nq
		}
		if cq.n == 0 {
			if len(cq.nowq) > 0 {
				cq.nowq = cq.nowq[:0]
				cq.nowqHead = 0
			}
			return nil
		}
		cq.advance(now)
	}
}

// take removes ev, the event head just returned, without searching for the
// head a second time.
func (cq *calQueue) take(ev *event) {
	switch ev.loc {
	case locCur:
		cq.cur.pop()
	case locNow:
		cq.nowqHead = ev.index + 1
		if cq.nowqHead == len(cq.nowq) {
			cq.nowq = cq.nowq[:0]
			cq.nowqHead = 0
		}
	}
	cq.n--
}

// remove eagerly unlinks a canceled event from whichever structure holds
// it. The caller guarantees the event is live in this queue.
func (cq *calQueue) remove(ev *event) {
	switch ev.loc {
	case locCur:
		cq.cur.remove(ev.index)
	case locOver:
		cq.overflow.remove(ev.index)
	case locRing:
		b := int(uint64(ev.at)>>cq.shift) & cq.mask
		s := cq.buckets[b]
		last := len(s) - 1
		moved := s[last]
		s[ev.index] = moved
		moved.index = ev.index
		s[last] = nil
		cq.buckets[b] = s[:last]
		cq.ringN--
	case locNow:
		cq.nowq[ev.index] = nil
	}
	cq.n--
}

// advance moves the window forward to the next populated bucket, applying
// any pending resize. Called only when cur and nowq are empty and live
// events remain in the ring or overflow.
func (cq *calQueue) advance(now Time) {
	if cq.wantNarrow && cq.shift > calMinShift {
		cq.wantNarrow = false
		cq.rescale(cq.shift-1, now)
		return
	}
	if cq.ringN == 0 {
		// Only far-future timers remain: jump straight to the earliest.
		cq.setWindow(cq.overflow[0].at)
		cq.loadBucket()
		return
	}
	w := cq.width()
	empty := 0
	for {
		cq.curIdx = (cq.curIdx + 1) & cq.mask
		cq.curStart += w
		if len(cq.buckets[cq.curIdx]) > 0 || cq.overflowDue() {
			cq.loadBucket()
			return
		}
		empty++
		if empty >= calWidenWalk && cq.shift < calMaxShift {
			// The ring is sparse at this width; double the bucket.
			cq.rescale(cq.shift+1, now)
			return
		}
	}
}

// overflowDue reports whether the overflow head falls inside the current
// bucket window.
func (cq *calQueue) overflowDue() bool {
	return len(cq.overflow) > 0 &&
		uint64(cq.overflow[0].at-cq.curStart) < uint64(cq.width())
}

// loadBucket drains the current ring bucket into cur, heapifies once, and
// pulls any overflow events that fall inside the window.
func (cq *calQueue) loadBucket() {
	b := cq.buckets[cq.curIdx]
	if len(b) > 0 {
		base := len(cq.cur)
		cq.cur = append(cq.cur, b...)
		for i := base; i < len(cq.cur); i++ {
			cq.cur[i].loc = locCur
			cq.cur[i].index = i
		}
		for j := range b {
			b[j] = nil
		}
		cq.buckets[cq.curIdx] = b[:0]
		cq.ringN -= len(b)
		cq.cur.init()
		if len(b) > calNarrowLoad && cq.shift > calMinShift {
			cq.wantNarrow = true
		}
	}
	cq.migrateOverflow()
}

// migrateOverflow moves overflow events due inside the current window into
// cur. The subtraction form keeps the comparison overflow-safe: overflow
// events never precede curStart (the window never passes a live event).
func (cq *calQueue) migrateOverflow() {
	w := uint64(cq.width())
	for len(cq.overflow) > 0 && uint64(cq.overflow[0].at-cq.curStart) < w {
		ev := cq.overflow.pop()
		ev.loc = locCur
		cq.cur.push(ev)
		cq.migrations++
	}
}

// rescale changes the bucket width to 2^shift ns, re-anchoring the window
// at now and re-placing every ring and cur event under the new geometry.
// Overflow events that the wider window now covers migrate in; ring events
// beyond the narrower horizon demote to overflow.
func (cq *calQueue) rescale(shift uint, now Time) {
	cq.resizes++
	scratch := cq.scratch[:0]
	scratch = append(scratch, cq.cur...)
	for i := range cq.cur {
		cq.cur[i] = nil
	}
	cq.cur = cq.cur[:0]
	if cq.ringN > 0 {
		for i := range cq.buckets {
			b := cq.buckets[i]
			if len(b) == 0 {
				continue
			}
			scratch = append(scratch, b...)
			for j := range b {
				b[j] = nil
			}
			cq.buckets[i] = b[:0]
		}
	}
	cq.ringN = 0
	cq.shift = shift
	cq.setWindow(now)
	for _, ev := range scratch {
		cq.place(ev)
	}
	for i := range scratch {
		scratch[i] = nil
	}
	cq.scratch = scratch[:0]
	cq.migrateOverflow()
}

// reset recycles nothing (the engine owns recycling) but clears all queue
// state, keeping the bucket array, learned width, and slice capacities
// warm for reuse.
func (cq *calQueue) reset() {
	if cq.buckets == nil {
		return
	}
	for i := range cq.cur {
		cq.cur[i] = nil
	}
	cq.cur = cq.cur[:0]
	cq.nowq = cq.nowq[:0]
	cq.nowqHead = 0
	if cq.ringN > 0 {
		for i := range cq.buckets {
			b := cq.buckets[i]
			for j := range b {
				b[j] = nil
			}
			cq.buckets[i] = b[:0]
		}
	}
	cq.ringN = 0
	for i := range cq.overflow {
		cq.overflow[i] = nil
	}
	cq.overflow = cq.overflow[:0]
	cq.n = 0
	cq.wantNarrow = false
	cq.resizes, cq.migrations, cq.nowFast = 0, 0, 0
	cq.setWindow(0)
}

// The calendar queue's two heaps use these typed operations rather than
// container/heap: going through heap.Interface costs a dynamic call per
// Less and Swap, and those calls dominated scheduler time. They are the
// sift-up/sift-down algorithms container/heap runs, comparing (at, seq)
// inline and keeping ev.index current. (at, seq) is a total order, so any
// correct heap pops events in the same sequence; the reference engine
// (newHeapEngine) keeps container/heap, and the differential tests check
// the calendar queue against it.

// before reports whether a runs before b in (at, seq) order.
func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// push adds ev to the heap.
func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

// pop removes and returns the earliest event.
func (h *eventHeap) pop() *event {
	old := *h
	n := len(old) - 1
	ev, last := old[0], old[n]
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		old[0] = last
		h.down(0)
	}
	ev.index = -1
	return ev
}

// remove unlinks the event at index i.
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	ev, last := old[i], old[n]
	old[n] = nil
	*h = old[:n]
	if i != n {
		old[i] = last
		if !h.down(i) {
			h.up(i)
		}
	}
	ev.index = -1
}

// init establishes the heap order over arbitrary contents.
func (h eventHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// up moves the event at j toward the root until its parent runs first.
func (h eventHeap) up(j int) {
	ev := h[j]
	for j > 0 {
		i := (j - 1) / 2
		p := h[i]
		if !ev.before(p) {
			break
		}
		h[j] = p
		p.index = j
		j = i
	}
	h[j] = ev
	ev.index = j
}

// down moves the event at i0 toward the leaves until no child runs before
// it, and reports whether it moved.
func (h eventHeap) down(i0 int) bool {
	n := len(h)
	ev := h[i0]
	i := i0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].before(h[j]) {
			j = j2
		}
		c := h[j]
		if !c.before(ev) {
			break
		}
		h[i] = c
		c.index = i
		i = j
	}
	h[i] = ev
	ev.index = i
	return i > i0
}

// SchedulerStats describes the calendar queue's geometry and traffic, in
// the spirit of FreeListStats: cheap counters the scheduler maintains
// anyway, exposed for tests and the observability layer.
type SchedulerStats struct {
	// BucketCount and BucketWidth give the ring geometry. BucketCount is
	// zero until the first event initializes the queue (and always zero on
	// reference-heap engines).
	BucketCount int
	BucketWidth Time
	// CurrentEvents, RingEvents, and OverflowEvents count live events in
	// the cur heap, the ring buckets, and the overflow heap.
	CurrentEvents, RingEvents, OverflowEvents int
	// Resizes counts bucket-width changes (halvings and doublings).
	Resizes uint64
	// OverflowMigrations counts events that moved from the overflow heap
	// into the current window.
	OverflowMigrations uint64
	// NowFastPath counts events that took the same-timestamp FIFO instead
	// of an ordering structure.
	NowFastPath uint64
}

// SchedulerStats reports the calendar queue's current geometry and
// counters. On a reference-heap engine it reports zeroes.
func (e *Engine) SchedulerStats() SchedulerStats {
	if e.refMode {
		return SchedulerStats{}
	}
	cq := &e.cq
	st := SchedulerStats{
		CurrentEvents:      len(cq.cur),
		RingEvents:         cq.ringN,
		OverflowEvents:     len(cq.overflow),
		Resizes:            cq.resizes,
		OverflowMigrations: cq.migrations,
		NowFastPath:        cq.nowFast,
	}
	if cq.buckets != nil {
		st.BucketCount = len(cq.buckets)
		st.BucketWidth = cq.width()
	}
	return st
}
