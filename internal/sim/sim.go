// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine models virtual time as int64 nanoseconds. Events are closures
// scheduled at absolute virtual times and executed in (time, sequence) order,
// where sequence is the order of scheduling; this makes runs fully
// deterministic: two events scheduled for the same instant fire in the order
// they were scheduled.
//
// The engine is single-goroutine by design. Network simulations are causally
// ordered graphs of tiny events (packet arrivals, timer expiries), and a
// single ordered event loop is both faster and easier to reason about than a
// concurrent one. Callers that want parallelism run independent Engine
// instances (one per experiment) on separate goroutines.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"time"
)

// Time is a virtual timestamp in nanoseconds since the start of the
// simulation. It is a distinct type to prevent accidental mixing with wall
// -clock time.
type Time int64

// Common durations, expressed in the engine's nanosecond unit.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// MaxTime is the largest representable virtual time. It is useful as an
// "effectively never" deadline.
const MaxTime = Time(math.MaxInt64)

// Duration converts a standard library duration to simulation time.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Std converts a simulation time to a standard library duration.
func (t Time) Std() time.Duration { return time.Duration(int64(t)) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds reports t as a floating-point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Microseconds reports t as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// String formats the time with an adaptive unit, e.g. "1.500ms".
func (t Time) String() string {
	switch {
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", t.Microseconds())
	case t < Second:
		return fmt.Sprintf("%.3fms", t.Milliseconds())
	default:
		return fmt.Sprintf("%.6fs", t.Seconds())
	}
}

// event is a scheduled closure. seq breaks ties between events that share a
// timestamp so that scheduling order is execution order.
//
// Events are pooled: when an event fires or is stopped, the engine recycles
// the struct onto a free list and bumps gen. Timers remember the gen they
// were issued against, so a handle to a fired (and possibly reused) event
// degrades into a safe no-op instead of touching the new occupant.
//
// loc records which scheduler structure currently holds the event (see
// calqueue.go) and index its position there, so cancellation can unlink it
// eagerly wherever it lives.
type event struct {
	at    Time
	seq   uint64
	fn    func()
	index int // position within the structure named by loc; -1 when not queued
	loc   int8
	gen   uint64
}

// eventHeap orders events by (at, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// Engine is a discrete-event scheduler. The zero value is ready to use.
//
// Events live in a bucketed calendar queue (see calqueue.go): O(1) appends
// into time buckets, a small heap over the bucket being drained, an
// overflow heap for far-future timers, and a FIFO fast path for events
// scheduled at exactly the current time. Execution order is identical to
// the classic binary heap's (time, seq) order; the heap survives as an
// internal reference implementation (refMode) that the differential tests
// run against the calendar queue.
//
// The engine keeps a free list of event structs: firing or stopping an event
// returns it to the list, so steady-state scheduling performs no heap
// allocation. Generation counters keep stale Timer handles safe across
// recycling.
type Engine struct {
	now     Time
	seq     uint64
	cq      calQueue
	stopped bool
	free    []*event

	// refMode routes all queue operations through events, the retained
	// binary-heap scheduler, instead of the calendar queue. Only the
	// differential and property tests construct refMode engines.
	refMode bool
	events  eventHeap

	// executed counts events that have run, for diagnostics and benchmarks.
	executed uint64

	// freeHits and freeMisses count event allocations served from the free
	// list versus fresh heap allocations — the free-list hit rate the
	// observability layer reports. Plain unconditional increments: cheaper
	// than any branch-to-skip would be.
	freeHits, freeMisses uint64

	// onEvent, if set, observes every event's timestamp immediately before
	// its closure runs. Installed by the invariant auditor to check clock
	// monotonicity; nil (the default) costs one branch per event.
	onEvent func(at Time)
}

// NewEngine returns an empty engine whose clock starts at zero.
func NewEngine() *Engine { return &Engine{} }

// newHeapEngine returns an engine running the reference binary-heap
// scheduler. It exists for the differential tests that prove the calendar
// queue executes identical (time, seq) orders.
func newHeapEngine() *Engine { return &Engine{refMode: true} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of scheduled, not-yet-executed events.
func (e *Engine) Pending() int {
	if e.refMode {
		return len(e.events)
	}
	return e.cq.n
}

// Executed returns the number of events that have been run so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Scheduled returns the number of events ever scheduled (fired, pending,
// or canceled).
func (e *Engine) Scheduled() uint64 { return e.seq }

// FreeListStats reports how many event allocations were served from the
// engine's free list (hits) versus the heap (misses). hits/(hits+misses)
// is the steady-state zero-allocation rate of the event hot path.
func (e *Engine) FreeListStats() (hits, misses uint64) { return e.freeHits, e.freeMisses }

// SetOnEvent installs an observer called with each event's timestamp right
// before the event's closure executes (nil to remove). The observer must not
// mutate engine state; it exists for audit instrumentation.
func (e *Engine) SetOnEvent(fn func(at Time)) { e.onEvent = fn }

// newEvent takes an event from the free list (or allocates one) and
// initialises it for scheduling at the given time.
func (e *Engine) newEvent(at Time, fn func()) *event {
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		e.freeHits++
	} else {
		ev = &event{}
		e.freeMisses++
	}
	ev.at = at
	ev.seq = e.seq
	e.seq++
	ev.fn = fn
	return ev
}

// recycle returns a dequeued event to the free list. Bumping gen invalidates
// every Timer handle that still points at this struct.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.index = -1
	ev.loc = locFree
	ev.gen++
	e.free = append(e.free, ev)
}

// Timer is a handle to a scheduled event that can be canceled or
// rescheduled. A nil or zero Timer is inert: Stop and Active are safe
// no-ops. Handles stay safe after their event fires — the underlying event
// struct may be recycled for a new event, and the generation check makes the
// stale handle degrade into a no-op rather than cancel the new occupant.
type Timer struct {
	engine *Engine
	ev     *event
	gen    uint64
}

// Stop cancels the timer if it has not fired. It reports whether the call
// prevented the event from firing. Calling Stop on a fired, already-stopped,
// nil, or zero timer returns false.
//
// Stop clears the handle completely, including its engine reference, so a
// stopped Timer never pins an engine across Engine.Reset or pooled reuse.
func (t *Timer) Stop() bool {
	if t == nil {
		return false
	}
	if t.ev == nil || t.ev.gen != t.gen {
		t.ev = nil
		t.engine = nil
		return false
	}
	e := t.engine
	e.unlink(t.ev)
	e.recycle(t.ev)
	t.ev = nil
	t.engine = nil
	return true
}

// unlink removes a live event from whichever scheduler structure holds it.
func (e *Engine) unlink(ev *event) {
	if e.refMode {
		heap.Remove(&e.events, ev.index)
		return
	}
	e.cq.remove(ev)
}

// Active reports whether the timer is still scheduled to fire.
func (t *Timer) Active() bool {
	return t != nil && t.ev != nil && t.ev.gen == t.gen
}

// When returns the virtual time at which the timer fires, or MaxTime if the
// timer is not active.
func (t *Timer) When() Time {
	if !t.Active() {
		return MaxTime
	}
	return t.ev.at
}

// schedule enqueues fn at absolute time at and returns the backing event.
// Scheduling in the past (before Now) panics: in a discrete-event model that
// is always a logic bug, and silently clamping it would hide causality
// violations.
func (e *Engine) schedule(at Time, fn func()) *event {
	if at < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v which is before now %v", at, e.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	ev := e.newEvent(at, fn)
	if e.refMode {
		ev.loc = locRef
		heap.Push(&e.events, ev)
	} else {
		e.cq.add(ev, e.now)
	}
	return ev
}

// At schedules fn to run at absolute virtual time at and returns a
// cancellation handle. Use Schedule when the handle is not needed: it avoids
// the Timer allocation.
func (e *Engine) At(at Time, fn func()) *Timer {
	ev := e.schedule(at, fn)
	return &Timer{engine: e, ev: ev, gen: ev.gen}
}

// After schedules fn to run delay nanoseconds from now.
func (e *Engine) After(delay Time, fn func()) *Timer {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.At(e.now+delay, fn)
}

// Schedule is At without the cancellation handle — the allocation-free path
// for fire-and-forget events.
func (e *Engine) Schedule(at Time, fn func()) { e.schedule(at, fn) }

// ScheduleAfter is After without the cancellation handle.
func (e *Engine) ScheduleAfter(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.schedule(e.now+delay, fn)
}

// ResetAt re-arms t to fire fn at absolute time at, canceling any pending
// fire first. It writes the handle in place, so a value-embedded Timer can be
// re-armed indefinitely without allocating.
func (e *Engine) ResetAt(t *Timer, at Time, fn func()) {
	t.Stop()
	ev := e.schedule(at, fn)
	t.engine = e
	t.ev = ev
	t.gen = ev.gen
}

// ResetAfter re-arms t to fire fn delay nanoseconds from now.
func (e *Engine) ResetAfter(t *Timer, delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.ResetAt(t, e.now+delay, fn)
}

// Stop halts the run loop after the current event completes. Pending events
// remain queued; a subsequent Run or RunUntil resumes them.
func (e *Engine) Stop() { e.stopped = true }

// fire removes ev, the head that peek just returned, and executes it. The
// event is recycled before its closure runs, so a callback that stops or
// re-arms its own timer sees a stale (inert) handle rather than the queued
// event.
func (e *Engine) fire(ev *event) {
	if e.refMode {
		heap.Pop(&e.events)
	} else {
		e.cq.take(ev)
	}
	e.now = ev.at
	e.executed++
	fn := ev.fn
	e.recycle(ev)
	if e.onEvent != nil {
		e.onEvent(e.now)
	}
	fn()
}

// Run executes events until the queue is empty or Stop is called. It returns
// the virtual time of the last executed event.
func (e *Engine) Run() Time {
	e.drain(MaxTime)
	return e.now
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline (even if no event fired exactly then). Events after
// the deadline stay queued.
func (e *Engine) RunUntil(deadline Time) Time {
	e.drain(deadline)
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// drain executes events with timestamps <= deadline until none is left or
// Stop is called. Each event's head is looked up once: peek finds it and
// fire removes exactly that event.
func (e *Engine) drain(deadline Time) {
	e.stopped = false
	for !e.stopped {
		ev := e.peek()
		if ev == nil || ev.at > deadline {
			return
		}
		e.fire(ev)
	}
}

// peek returns the earliest pending event without removing it, or nil when
// the queue is empty. Stopped events are unlinked eagerly, so the head is
// always live.
func (e *Engine) peek() *event {
	if e.refMode {
		if len(e.events) == 0 {
			return nil
		}
		return e.events[0]
	}
	return e.cq.head(e.now)
}

// NextEventAt returns the time of the next pending event, or MaxTime if the
// queue is empty.
func (e *Engine) NextEventAt() Time {
	ev := e.peek()
	if ev == nil {
		return MaxTime
	}
	return ev.at
}

// Reset returns the engine to the state of a fresh engine while keeping its
// allocations warm: pending events are canceled and recycled, the clock and
// all counters return to zero, and any onEvent observer is removed — but
// the event free list, the calendar-queue bucket array, its learned bucket
// width, and slice capacities are retained. Timer handles issued before the
// Reset degrade into inert no-ops through their generation guard, exactly
// as handles to fired events do.
//
// Reset is the engine half of pooled reuse: sweep runners recycle one
// engine across consecutive simulation runs instead of re-growing the free
// list from nothing each time. Results are independent of pool warmth —
// reuse affects only where event structs come from, never event order.
func (e *Engine) Reset() {
	if e.refMode {
		for _, ev := range e.events {
			e.recycle(ev)
		}
		for i := range e.events {
			e.events[i] = nil
		}
		e.events = e.events[:0]
	} else {
		cq := &e.cq
		for _, ev := range cq.cur {
			e.recycle(ev)
		}
		for _, ev := range cq.nowq[cq.nowqHead:] {
			if ev != nil {
				e.recycle(ev)
			}
		}
		if cq.ringN > 0 {
			for i := range cq.buckets {
				for _, ev := range cq.buckets[i] {
					e.recycle(ev)
				}
			}
		}
		for _, ev := range cq.overflow {
			e.recycle(ev)
		}
		cq.reset()
	}
	e.now = 0
	e.seq = 0
	e.stopped = false
	e.executed = 0
	e.freeHits, e.freeMisses = 0, 0
	e.onEvent = nil
}
