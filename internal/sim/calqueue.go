package sim

import (
	"cmp"
	"math/bits"
	"slices"
)

// This file implements the engine's bucketed calendar queue — the default
// event scheduler. The classic binary heap pays O(log n) pointer-chasing
// comparisons per push and pop; at incast degrees in the hundreds to
// thousands the heap holds tens of thousands of near-simultaneous events
// and those comparisons dominate scheduler time. The calendar queue splits
// the timeline into a ring of fixed-width buckets and keeps events sorted
// only within the small window currently being drained:
//
//   - cur: a slice sorted by (at, seq) holding every pending event with
//     at < curEnd (the end of the current bucket window), plus any event
//     scheduled at exactly the current time. cur[curHead:] are pending;
//     the prefix before curHead has run. The head is an index read and a
//     pop an increment. Insertion scans from the tail: a new event has the
//     largest seq, so it almost always lands at the end or one step
//     before it. Bucket loads average two to three events.
//   - buckets: the ring. An event with curEnd <= at < curStart +
//     bucketCount*width lands in bucket (at>>shift)&mask as an unsorted
//     O(1) append. When the window reaches a bucket, its events are sorted
//     into cur. A bitmap with one bit per bucket marks the non-empty ones,
//     so the window jumps to the next populated bucket in a few word scans
//     instead of stepping through empty buckets.
//   - overflow: a binary heap for events beyond the ring horizon — RTO
//     timers, burst starts, scenario phases. Events migrate from overflow
//     into cur when the window reaches their bucket. Cancellation is eager
//     everywhere (heap remove / swap-remove / scan and shift), which
//     matters here: TCP re-arms its RTO via ResetAfter on nearly every ACK,
//     and a lazy overflow heap would fill with dead timers.
//
// Ordering correctness rests on one invariant: every event in the ring or
// overflow has at >= curEnd, and cur holds every other pending event. The
// window only advances when cur is empty, so the global (time, seq)
// minimum always sits at the head of cur. An event scheduled at exactly
// the current time goes straight into cur even when the window has fallen
// behind the clock (a RunUntil that drained the queue moves the clock, not
// the window): nothing pending can precede it, and it runs before the
// window moves.
//
// The bucket width adapts to event density, deterministically: all resize
// decisions are functions of virtual state (the number of empty buckets
// before the next populated one, and bucket loads), never of wall time. A
// window advance that would cross at least calWidenWalk empty buckets
// doubles the width; a bucket that loads more than calNarrowLoad events
// into cur schedules a halving at the next window advance. Resizes
// re-place the ring and cur contents under the new width, restoring the
// invariant above.
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
	locCur              // in the sorted current window
	locRing             // in a ring bucket
	locOver             // in the overflow heap
	locRef              // in the reference heap (refMode engines)
)

// calQueue is the calendar queue state embedded in Engine.
type calQueue struct {
	shift   uint
	mask    int
	buckets [][]*event
	occ     [calBuckets / 64]uint64 // bit b set iff buckets[b] is non-empty
	ringN   int                     // live events across all ring buckets

	curStart Time // start of the current bucket window
	curIdx   int
	cur      []*event // sorted by (at, seq); cur[curHead:] are pending
	curHead  int

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
		cq.nowFast++
		cq.insertCur(ev)
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
		cq.insertCur(ev)
		return
	}
	d := uint64(ev.at - cq.curStart)
	switch {
	case d < uint64(cq.width()):
		cq.insertCur(ev)
	case d < uint64(cq.width())<<uint(calBucketsLog):
		b := int(uint64(ev.at)>>cq.shift) & cq.mask
		ev.loc = locRing
		ev.index = len(cq.buckets[b])
		cq.buckets[b] = append(cq.buckets[b], ev)
		cq.occ[b>>6] |= 1 << (b & 63)
		cq.ringN++
	default:
		ev.loc = locOver
		cq.overflow.push(ev)
	}
}

const calBucketsLog = 10

// insertCur adds ev to the sorted current window, scanning from the tail.
// Every event that has already run precedes ev in (at, seq) order, so the
// scan never passes curHead.
func (cq *calQueue) insertCur(ev *event) {
	ev.loc = locCur
	if cq.curHead == len(cq.cur) {
		cq.cur = cq.cur[:0]
		cq.curHead = 0
	}
	cq.cur = append(cq.cur, ev)
	i := len(cq.cur) - 1
	for i > cq.curHead && ev.before(cq.cur[i-1]) {
		cq.cur[i] = cq.cur[i-1]
		i--
	}
	cq.cur[i] = ev
}

// head returns the earliest live event without removing it, advancing the
// bucket window as needed. Returns nil when the queue is empty.
func (cq *calQueue) head(now Time) *event {
	for {
		if cq.curHead < len(cq.cur) {
			return cq.cur[cq.curHead]
		}
		if cq.n == 0 {
			return nil
		}
		cq.advance(now)
	}
}

// take removes the event head just returned.
func (cq *calQueue) take() {
	cq.curHead++
	cq.n--
}

// remove eagerly unlinks a canceled event from whichever structure holds
// it. The caller guarantees the event is live in this queue.
func (cq *calQueue) remove(ev *event) {
	switch ev.loc {
	case locCur:
		i := cq.curHead + slices.Index(cq.cur[cq.curHead:], ev)
		copy(cq.cur[i:], cq.cur[i+1:])
		cq.cur[len(cq.cur)-1] = nil
		cq.cur = cq.cur[:len(cq.cur)-1]
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
		if last == 0 {
			cq.occ[b>>6] &^= 1 << (b & 63)
		}
		cq.ringN--
	}
	cq.n--
}

// advance moves the window forward to the next populated bucket, applying
// any pending resize. Called only when cur is empty and live events remain
// in the ring or overflow.
func (cq *calQueue) advance(now Time) {
	cq.cur = cq.cur[:0]
	cq.curHead = 0
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
	// steps is how many buckets ahead the next work lies: the nearer of
	// the next populated ring bucket and the overflow head's bucket.
	steps := uint64(cq.nextOccupied())
	if len(cq.overflow) > 0 {
		steps = min(steps, uint64(cq.overflow[0].at-cq.curStart)>>cq.shift)
	}
	if steps > calWidenWalk && cq.shift < calMaxShift {
		// The ring is sparse at this width; double the bucket.
		cq.rescale(cq.shift+1, now)
		return
	}
	cq.curIdx = (cq.curIdx + int(steps)) & cq.mask
	cq.curStart += Time(steps) << cq.shift
	cq.loadBucket()
}

// nextOccupied returns how many buckets past curIdx the next non-empty
// ring bucket lies, from 1 to calBuckets. The ring must hold an event.
func (cq *calQueue) nextOccupied() int {
	from := (cq.curIdx + 1) & cq.mask
	w := from >> 6
	word := cq.occ[w] >> (from & 63) << (from & 63)
	for word == 0 {
		w = (w + 1) & (len(cq.occ) - 1)
		word = cq.occ[w]
	}
	b := w<<6 | bits.TrailingZeros64(word)
	return (b-from)&cq.mask + 1
}

// loadBucket makes the current ring bucket the (empty) cur, sorted, and
// pulls any overflow events that fall inside the window. The bucket and
// cur trade backing arrays rather than copy: the spare capacity past len
// may hold pointers to recycled events, which nothing reads.
func (cq *calQueue) loadBucket() {
	b := cq.buckets[cq.curIdx]
	if len(b) > 0 {
		cq.buckets[cq.curIdx] = cq.cur[:0]
		cq.cur = b
		for _, ev := range b {
			ev.loc = locCur
		}
		sortEvents(b)
		cq.occ[cq.curIdx>>6] &^= 1 << (cq.curIdx & 63)
		cq.ringN -= len(b)
		if len(b) > calNarrowLoad && cq.shift > calMinShift {
			cq.wantNarrow = true
		}
	}
	cq.migrateOverflow()
}

// sortEvents orders s by (at, seq). A bucket is appended in seq order and
// usually holds a couple of events, so insertion sort does almost no work.
// A crowded bucket, which a wide bucket can fill in any order, goes to the
// library sort, whose worst case is not quadratic.
func sortEvents(s []*event) {
	if len(s) > 16 {
		slices.SortFunc(s, func(a, b *event) int {
			if c := cmp.Compare(a.at, b.at); c != 0 {
				return c
			}
			return cmp.Compare(a.seq, b.seq)
		})
		return
	}
	for i := 1; i < len(s); i++ {
		ev := s[i]
		j := i
		for j > 0 && ev.before(s[j-1]) {
			s[j] = s[j-1]
			j--
		}
		s[j] = ev
	}
}

// migrateOverflow moves overflow events due inside the current window into
// cur. The subtraction form keeps the comparison overflow-safe: overflow
// events never precede curStart (the window never passes a live event).
func (cq *calQueue) migrateOverflow() {
	w := uint64(cq.width())
	for len(cq.overflow) > 0 && uint64(cq.overflow[0].at-cq.curStart) < w {
		cq.insertCur(cq.overflow.pop())
		cq.migrations++
	}
}

// rescale changes the bucket width to 2^shift ns, re-anchoring the window
// at now and re-placing every ring and cur event under the new geometry.
// Overflow events that the wider window now covers migrate in; ring events
// beyond the narrower horizon demote to overflow.
func (cq *calQueue) rescale(shift uint, now Time) {
	cq.resizes++
	scratch := append(cq.scratch[:0], cq.cur[cq.curHead:]...)
	clear(cq.cur)
	cq.cur = cq.cur[:0]
	cq.curHead = 0
	if cq.ringN > 0 {
		for i, b := range cq.buckets {
			if len(b) == 0 {
				continue
			}
			scratch = append(scratch, b...)
			clear(b)
			cq.buckets[i] = b[:0]
		}
	}
	clear(cq.occ[:])
	cq.ringN = 0
	cq.shift = shift
	cq.setWindow(now)
	for _, ev := range scratch {
		cq.place(ev)
	}
	clear(scratch)
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
	clear(cq.cur)
	cq.cur = cq.cur[:0]
	cq.curHead = 0
	if cq.ringN > 0 {
		for i, b := range cq.buckets {
			clear(b)
			cq.buckets[i] = b[:0]
		}
	}
	clear(cq.occ[:])
	cq.ringN = 0
	clear(cq.overflow)
	cq.overflow = cq.overflow[:0]
	cq.n = 0
	cq.wantNarrow = false
	cq.resizes, cq.migrations, cq.nowFast = 0, 0, 0
	cq.setWindow(0)
}

// The overflow heap uses these typed operations rather than
// container/heap: going through heap.Interface costs a dynamic call per
// Less and Swap, and those calls dominated scheduler time when every
// window was a heap too. They are the sift-up/sift-down algorithms
// container/heap runs, comparing (at, seq) inline and keeping ev.index
// current. (at, seq) is a total order, so any correct heap pops events in
// the same sequence; the reference engine (newHeapEngine) keeps
// container/heap, and the differential tests check the calendar queue
// against it.

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
	// the current window, the ring buckets, and the overflow heap.
	CurrentEvents, RingEvents, OverflowEvents int
	// Resizes counts bucket-width changes (halvings and doublings).
	Resizes uint64
	// OverflowMigrations counts events that moved from the overflow heap
	// into the current window.
	OverflowMigrations uint64
	// NowFastPath counts events scheduled at exactly the current time.
	// They go straight into the current window, whatever its position.
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
		CurrentEvents:      len(cq.cur) - cq.curHead,
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
