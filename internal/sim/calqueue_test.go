package sim

import (
	"testing"
)

// ---------------------------------------------------------------------------
// Differential harness: the calendar queue against the reference heap.
//
// A schedDriver applies a deterministic pseudo-random workload — schedules
// with delays spanning the same-timestamp FIFO, the current bucket, the
// ring, and the overflow horizon; Stops; ResetAts; engine Resets — and
// records every execution as (virtual time, event id). Two drivers seeded
// identically, one on the calendar queue and one on the reference heap,
// must produce byte-for-byte identical logs: both the times and the order.
// Any divergence in (time, seq) dispatch order desynchronizes the logs
// (and usually the RNG streams right after), so equivalence here is a
// strong property, not a spot check.
// ---------------------------------------------------------------------------

type execRecord struct {
	at Time
	id int
}

type schedDriver struct {
	t      *testing.T
	e      *Engine
	rng    *randStream
	timers []*Timer
	log    []execRecord
	nextID int
}

// randStream wraps the deterministic RNG so both drivers consume identical
// decision streams.
type randStream struct {
	r interface{ Int64N(int64) int64 }
}

func newRandStream(seed uint64) *randStream { return &randStream{r: NewRand(seed)} }

func (s *randStream) intN(n int) int { return int(s.r.Int64N(int64(n))) }

func newSchedDriver(t *testing.T, e *Engine, seed uint64) *schedDriver {
	return &schedDriver{t: t, e: e, rng: newRandStream(seed)}
}

// randDelay draws from a distribution that exercises every scheduler
// structure: zero delays (nowq), sub-bucket, ring-range, and far-future
// (overflow) timers.
func (d *schedDriver) randDelay() Time {
	switch d.rng.intN(6) {
	case 0:
		return 0
	case 1:
		return Time(d.rng.intN(50))
	case 2:
		return Time(d.rng.intN(1_000)) // within one default bucket
	case 3:
		return Time(d.rng.intN(200_000)) // a stretch of ring buckets
	case 4:
		return Time(d.rng.intN(2_000_000)) // around the ring horizon
	default:
		return Time(d.rng.intN(500_000_000)) // deep overflow (RTO-like)
	}
}

// spawn schedules a new event; with a handle half the time so it can later
// be stopped or re-armed.
func (d *schedDriver) spawn() {
	id := d.nextID
	d.nextID++
	at := d.e.Now() + d.randDelay()
	fire := func() { d.fire(id) }
	if d.rng.intN(2) == 0 {
		d.timers = append(d.timers, d.e.At(at, fire))
	} else {
		d.e.Schedule(at, fire)
	}
}

// stopRandom stops a random known timer (possibly already fired — the
// generation guard makes that a no-op, which is part of the contract).
func (d *schedDriver) stopRandom() {
	if len(d.timers) == 0 {
		return
	}
	d.timers[d.rng.intN(len(d.timers))].Stop()
}

// resetRandom re-arms a random known timer at a fresh delay.
func (d *schedDriver) resetRandom() {
	if len(d.timers) == 0 {
		return
	}
	id := d.nextID
	d.nextID++
	tm := d.timers[d.rng.intN(len(d.timers))]
	d.e.ResetAfter(tm, d.randDelay(), func() { d.fire(id) })
}

// fire logs the execution and sometimes mutates the schedule from inside
// the callback, the way transport code re-arms RTOs and forwards packets.
func (d *schedDriver) fire(id int) {
	d.log = append(d.log, execRecord{at: d.e.Now(), id: id})
	switch d.rng.intN(10) {
	case 0, 1, 2:
		d.spawn()
	case 3:
		d.spawn()
		d.spawn()
	case 4:
		d.stopRandom()
	case 5:
		d.resetRandom()
	}
}

// round runs one schedule-then-drain phase.
func (d *schedDriver) round(events int, chunk Time) {
	for i := 0; i < events; i++ {
		switch d.rng.intN(8) {
		case 0:
			d.stopRandom()
		case 1:
			d.resetRandom()
		default:
			d.spawn()
		}
	}
	d.e.RunUntil(d.e.Now() + chunk)
}

// resetEngine clears the engine and the driver's handle list, logging a
// marker so a missed reset shows up as a log mismatch.
func (d *schedDriver) resetEngine() {
	d.e.Reset()
	d.timers = d.timers[:0]
	d.log = append(d.log, execRecord{at: -1, id: -1})
}

// runEquivalence drives the calendar queue and the reference heap through
// the identical workload and requires identical execution logs.
func runEquivalence(t *testing.T, seed uint64, rounds, eventsPerRound int) {
	t.Helper()
	cal := newSchedDriver(t, NewEngine(), seed)
	ref := newSchedDriver(t, newHeapEngine(), seed)

	for r := 0; r < rounds; r++ {
		chunk := Time(1+r) * 300 * Microsecond
		cal.round(eventsPerRound, chunk)
		ref.round(eventsPerRound, chunk)
		if r == rounds/2 {
			// Mid-workload engine reuse: both engines reset and rebuild on
			// their warm free lists.
			cal.resetEngine()
			ref.resetEngine()
		}
	}
	// Drain completely so overflow-resident timers execute too.
	cal.e.Run()
	ref.e.Run()

	if cal.e.Pending() != 0 || ref.e.Pending() != 0 {
		t.Fatalf("undrained engines: calendar=%d reference=%d pending",
			cal.e.Pending(), ref.e.Pending())
	}
	if len(cal.log) != len(ref.log) {
		t.Fatalf("seed %d: executed %d events on calendar queue, %d on reference heap",
			seed, len(cal.log), len(ref.log))
	}
	for i := range cal.log {
		if cal.log[i] != ref.log[i] {
			t.Fatalf("seed %d: execution order diverges at event %d: calendar=(%v, id %d) reference=(%v, id %d)",
				seed, i, cal.log[i].at, cal.log[i].id, ref.log[i].at, ref.log[i].id)
		}
	}
	if cal.e.Scheduled() != ref.e.Scheduled() {
		t.Fatalf("seed %d: seq counters diverge: calendar=%d reference=%d",
			seed, cal.e.Scheduled(), ref.e.Scheduled())
	}
}

// TestSchedulerEquivalenceProperty is the randomized differential gate: the
// calendar queue must execute the exact (time, seq) order of the reference
// binary heap across many seeded workloads.
func TestSchedulerEquivalenceProperty(t *testing.T) {
	rounds, events := 10, 120
	if testing.Short() {
		rounds, events = 6, 60
	}
	for seed := uint64(1); seed <= 40; seed++ {
		runEquivalence(t, seed, rounds, events)
	}
}

// FuzzSchedulerEquivalence lets the fuzzer search for a seed whose workload
// breaks heap/calendar equivalence. The seed corpus doubles as a fixed
// regression suite under plain `go test`.
func FuzzSchedulerEquivalence(f *testing.F) {
	for _, seed := range []uint64{0, 1, 2, 7, 42, 1 << 20, 1<<63 - 1} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		runEquivalence(t, seed, 6, 80)
	})
}

// ---------------------------------------------------------------------------
// SchedulerStats: geometry, overflow migration, and resizing.
// ---------------------------------------------------------------------------

func TestSchedulerStatsNowFastPathAndOverflow(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(0, func() { ran++ }) // at == now: FIFO fast path
	e.Schedule(time500us(), func() { ran++ })
	e.Schedule(2*Second, func() { ran++ }) // far beyond the ring horizon

	st := e.SchedulerStats()
	if st.BucketCount == 0 || st.BucketWidth == 0 {
		t.Fatalf("expected initialized geometry, got %+v", st)
	}
	if st.NowFastPath != 1 {
		t.Fatalf("NowFastPath = %d, want 1", st.NowFastPath)
	}
	if st.OverflowEvents != 1 {
		t.Fatalf("OverflowEvents = %d, want 1 (2s timer beyond the ring horizon): %+v",
			st.OverflowEvents, st)
	}

	e.Run()
	st = e.SchedulerStats()
	if ran != 3 {
		t.Fatalf("ran %d events, want 3", ran)
	}
	if st.OverflowMigrations < 1 {
		t.Fatalf("OverflowMigrations = %d, want >= 1 after draining the far timer", st.OverflowMigrations)
	}
	if st.CurrentEvents+st.RingEvents+st.OverflowEvents != 0 {
		t.Fatalf("drained engine still reports live events: %+v", st)
	}
}

func time500us() Time { return 500 * Microsecond }

func TestSchedulerStatsNarrowResize(t *testing.T) {
	e := NewEngine()
	// Overload one bucket far past the narrow threshold, then give the
	// window a reason to advance again so the pending halving applies. The
	// timestamps sit close enough together that no walk crosses the widen
	// threshold, isolating the narrowing path.
	at := 100 * Microsecond
	for i := 0; i < 4*calNarrowLoad; i++ {
		e.Schedule(at, func() {})
	}
	e.Schedule(200*Microsecond, func() {})

	before := e.SchedulerStats()
	e.Run()
	after := e.SchedulerStats()
	if after.Resizes == 0 {
		t.Fatalf("overloaded bucket did not trigger a resize: before=%+v after=%+v", before, after)
	}
	if after.BucketWidth >= before.BucketWidth {
		t.Fatalf("bucket width did not narrow: before=%v after=%v", before.BucketWidth, after.BucketWidth)
	}
}

func TestSchedulerStatsWidenResize(t *testing.T) {
	e := NewEngine()
	// Sparse ring: the walk between events crosses more than a quarter of
	// the ring's buckets, so the queue widens its buckets.
	e.Schedule(1*Microsecond, func() {})
	e.Schedule(800*Microsecond, func() {})
	before := e.SchedulerStats()
	e.Run()
	after := e.SchedulerStats()
	if after.Resizes == 0 {
		t.Fatalf("sparse ring did not trigger a widening resize: %+v", after)
	}
	if after.BucketWidth <= before.BucketWidth {
		t.Fatalf("bucket width did not widen: before=%v after=%v", before.BucketWidth, after.BucketWidth)
	}
}

// ---------------------------------------------------------------------------
// Engine.Reset and pooled reuse.
// ---------------------------------------------------------------------------

func TestResetClearsEngineState(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(10, func() { fired = true })
	e.Schedule(3*Second, func() { fired = true }) // overflow-resident
	tm := e.After(20, func() { fired = true })
	e.RunUntil(10)
	e.SetOnEvent(func(Time) {})

	e.Reset()
	if e.Pending() != 0 || e.Now() != 0 || e.Executed() != 0 || e.Scheduled() != 0 {
		t.Fatalf("Reset left state: pending=%d now=%v executed=%d scheduled=%d",
			e.Pending(), e.Now(), e.Executed(), e.Scheduled())
	}
	if hits, misses := e.FreeListStats(); hits != 0 || misses != 0 {
		t.Fatalf("Reset left free-list counters: hits=%d misses=%d", hits, misses)
	}
	if e.onEvent != nil {
		t.Fatal("Reset left the onEvent observer installed")
	}
	if tm.Stop() {
		t.Fatal("pre-Reset timer handle stayed live across Reset")
	}
	if tm.Active() {
		t.Fatal("pre-Reset timer reports active after Reset")
	}

	fired = false
	e.Run()
	if fired {
		t.Fatal("events survived Reset")
	}
}

func TestResetReuseIsDeterministic(t *testing.T) {
	run := func(e *Engine) []Time {
		var log []Time
		var rearm Timer
		e.Schedule(5, func() { log = append(log, e.Now()) })
		e.ResetAfter(&rearm, 100, func() { log = append(log, e.Now()) })
		e.Schedule(1*Second, func() { log = append(log, e.Now()) }) // overflow
		e.At(40, func() { log = append(log, e.Now()) })
		e.Run()
		return log
	}

	e := NewEngine()
	first := run(e)
	e.Reset()
	second := run(e)
	if len(first) != len(second) {
		t.Fatalf("reused engine executed %d events, fresh ran %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("execution %d differs after reuse: fresh=%v reused=%v", i, first[i], second[i])
		}
	}
	// The second run must have been served from the warm free list.
	hits, _ := e.FreeListStats()
	if hits == 0 {
		t.Fatal("reused engine allocated every event fresh; free list was not kept warm")
	}
}

// ---------------------------------------------------------------------------
// Timer.Stop engine-reference hygiene (regression: a stopped handle used to
// keep its engine pointer, pinning a pooled engine through reuse).
// ---------------------------------------------------------------------------

func TestTimerStopClearsEngineReference(t *testing.T) {
	e := NewEngine()
	tm := e.After(10, func() {})
	if !tm.Stop() {
		t.Fatal("Stop on a live timer returned false")
	}
	if tm.engine != nil || tm.ev != nil {
		t.Fatal("Stop left references in the handle")
	}
	// A fired handle also sheds its references on Stop.
	tm2 := e.After(5, func() {})
	e.Run()
	if tm2.Stop() {
		t.Fatal("Stop on a fired timer returned true")
	}
	if tm2.engine != nil || tm2.ev != nil {
		t.Fatal("Stop on a fired timer left references in the handle")
	}
}

func TestTimerStopThenResetAtOnRecycledEngine(t *testing.T) {
	e := NewEngine()
	var tm Timer
	e.ResetAfter(&tm, 10, func() { t.Fatal("stopped event fired") })
	tm.Stop()

	e.Reset() // recycle the engine as the sweep pool does

	fired := false
	e.ResetAt(&tm, 7, func() { fired = true })
	if !tm.Active() {
		t.Fatal("re-armed timer not active on recycled engine")
	}
	if got := e.Run(); got != 7 {
		t.Fatalf("recycled engine ran to %v, want 7", got)
	}
	if !fired {
		t.Fatal("re-armed timer did not fire on recycled engine")
	}
}

// ---------------------------------------------------------------------------
// RunUntil clock semantics with empty and mid-run-drained queues.
// ---------------------------------------------------------------------------

func TestRunUntilEmptyQueueAdvancesToDeadline(t *testing.T) {
	e := NewEngine()
	if got := e.RunUntil(250 * Millisecond); got != 250*Millisecond {
		t.Fatalf("RunUntil on empty queue returned %v, want 250ms", got)
	}
	if e.Now() != 250*Millisecond {
		t.Fatalf("clock at %v, want 250ms", e.Now())
	}
}

func TestRunUntilDrainedMidRunAdvancesToDeadline(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(100, func() { at = e.Now() })
	if got := e.RunUntil(5000); got != 5000 {
		t.Fatalf("RunUntil returned %v, want 5000", got)
	}
	if at != 100 {
		t.Fatalf("event ran at %v, want 100", at)
	}
	if e.Now() != 5000 {
		t.Fatalf("clock at %v after draining mid-run, want deadline 5000", e.Now())
	}
}

// ---------------------------------------------------------------------------
// Scheduler paths no experiment reaches. Every cancellation in the
// experiments hits the overflow heap; these scripts stop events in the
// current window and the ring, schedule behind a window that has run
// ahead of the clock, rescale with a populated window and reset a full
// queue. Each script runs on the calendar queue and on the reference heap
// and must log the same executions; the calendar-only checks look inside
// the queue.
// ---------------------------------------------------------------------------

// logger records executions for checkAgainstHeap scripts.
type logger struct {
	e   *Engine
	log []execRecord
}

// ev returns an event body that logs id at the current time.
func (l *logger) ev(id int) func() {
	return func() { l.log = append(l.log, execRecord{at: l.e.Now(), id: id}) }
}

// checkAgainstHeap runs script on a calendar-queue engine and on the
// reference heap engine and requires identical execution logs. script
// returns after scheduling; checkAgainstHeap drains both engines.
func checkAgainstHeap(t *testing.T, script func(l *logger)) *Engine {
	t.Helper()
	cal, ref := &logger{e: NewEngine()}, &logger{e: newHeapEngine()}
	for _, l := range []*logger{cal, ref} {
		script(l)
		l.e.Run()
		if l.e.Pending() != 0 {
			t.Fatalf("refMode=%v: %d events pending after Run", l.e.refMode, l.e.Pending())
		}
	}
	if len(cal.log) != len(ref.log) {
		t.Fatalf("calendar queue ran %d events, reference heap %d:\ncalendar:  %v\nreference: %v",
			len(cal.log), len(ref.log), cal.log, ref.log)
	}
	for i := range cal.log {
		if cal.log[i] != ref.log[i] {
			t.Fatalf("execution %d: calendar queue ran %v, reference heap %v:\ncalendar:  %v\nreference: %v",
				i, cal.log[i], ref.log[i], cal.log, ref.log)
		}
	}
	return cal.e
}

// occupied reports whether the ring bucket holding time at is marked
// non-empty in the occupancy bitmap.
func occupied(e *Engine, at Time) bool {
	b := int(uint64(at)>>e.cq.shift) & e.cq.mask
	return e.cq.occ[b>>6]&(1<<(b&63)) != 0
}

func TestCalQueueStopCurrentWindowEvent(t *testing.T) {
	checkAgainstHeap(t, func(l *logger) {
		e := l.e
		var tm [6]*Timer
		for i := range tm {
			tm[i] = e.At(Time(100*(i+1)), l.ev(i)) // all inside the first 1 µs bucket
		}
		if !e.refMode && e.SchedulerStats().CurrentEvents != len(tm) {
			t.Fatalf("%d events in the current window, want %d", e.SchedulerStats().CurrentEvents, len(tm))
		}
		tm[4].Stop()
		// From inside the window, with its first event consumed, stop an
		// event in the middle of it and the last one.
		e.Schedule(150, func() {
			tm[3].Stop()
			tm[5].Stop()
			if !e.refMode && e.SchedulerStats().CurrentEvents != 2 {
				t.Errorf("%d events in the current window after two stops, want 2", e.SchedulerStats().CurrentEvents)
			}
		})
	})
}

func TestCalQueueStopOnlyRingEvent(t *testing.T) {
	var a, b Time = 100 * Microsecond, 300 * Microsecond
	e := checkAgainstHeap(t, func(l *logger) {
		e := l.e
		tm := e.At(a, l.ev(0))
		e.Schedule(b, l.ev(1))
		if e.refMode {
			tm.Stop()
			return
		}
		if st := e.SchedulerStats(); st.RingEvents != 2 || !occupied(e, a) {
			t.Fatalf("want both events in ring buckets, got %+v (bucket of %v marked: %v)", st, a, occupied(e, a))
		}
		tm.Stop()
		if occupied(e, a) {
			t.Fatalf("bucket of %v still marked occupied after its only event stopped", a)
		}
		if !occupied(e, b) {
			t.Fatalf("bucket of %v lost its mark", b)
		}
	})
	// The next work lies about 293 buckets on: past calWidenWalk, so the
	// advance widens the bucket once, as a step-by-step walk would. A
	// stale mark at a's bucket would stop it halfway.
	if st := e.SchedulerStats(); st.Resizes != 1 {
		t.Fatalf("Resizes = %d, want 1", st.Resizes)
	}
}

func TestCalQueueScheduleBehindWindow(t *testing.T) {
	// NextEventAt loads the window of the 500 µs event; events at now and
	// between now and that window must still run first.
	checkAgainstHeap(t, func(l *logger) {
		e := l.e
		e.Schedule(500*Microsecond, l.ev(0))
		if got := e.NextEventAt(); got != 500*Microsecond {
			t.Fatalf("NextEventAt = %v", got)
		}
		e.Schedule(0, l.ev(1))
		e.Schedule(100*Microsecond, l.ev(2))
		e.Schedule(500*Microsecond, l.ev(3))
		e.Schedule(700*Microsecond, l.ev(4))
		e.Schedule(0, l.ev(5))
	})
	// RunUntil stops short of the loaded window and leaves the clock
	// behind it.
	checkAgainstHeap(t, func(l *logger) {
		e := l.e
		e.Schedule(10, l.ev(0))
		e.Schedule(900*Microsecond, l.ev(1))
		e.RunUntil(200 * Microsecond)
		e.Schedule(200*Microsecond, l.ev(2))
		e.Schedule(300*Microsecond, l.ev(3))
		e.Schedule(900*Microsecond, l.ev(4))
	})
	// RunUntil drains the queue and moves the clock far past the window.
	// An event at now goes into the current window, not a ring bucket, and
	// runs before the window moves; the event it schedules is then about
	// 293 buckets from the old window, so the next advance widens once.
	e := checkAgainstHeap(t, func(l *logger) {
		e := l.e
		e.Schedule(10, l.ev(0))
		e.RunUntil(200 * Microsecond)
		e.Schedule(200*Microsecond, func() {
			l.ev(1)()
			e.Schedule(300*Microsecond, l.ev(2))
		})
		if !e.refMode {
			if st := e.SchedulerStats(); st.CurrentEvents != 1 || st.RingEvents != 0 {
				t.Fatalf("event at now not in the current window: %+v", st)
			}
		}
	})
	if st := e.SchedulerStats(); st.Resizes != 1 || st.NowFastPath != 1 {
		t.Fatalf("Resizes = %d, NowFastPath = %d, want 1 and 1", st.Resizes, st.NowFastPath)
	}
}

func TestCalQueueRescaleWithPendingWindow(t *testing.T) {
	for _, tc := range []struct {
		name  string
		shift uint
	}{{"widen", calInitShift + 1}, {"narrow", calInitShift - 1}} {
		t.Run(tc.name, func(t *testing.T) {
			checkAgainstHeap(t, func(l *logger) {
				e := l.e
				for i, at := range []Time{100, 300, 600, 700, 900, 1500, 5 * Microsecond, 600 * Microsecond, 1800 * Microsecond, 2 * Second} {
					e.Schedule(at, l.ev(i))
				}
				// Rescale from inside the window, after its first event
				// ran, with four more pending in it.
				e.Schedule(200, func() {
					if e.refMode {
						return
					}
					if st := e.SchedulerStats(); st.CurrentEvents != 4 {
						t.Fatalf("%d events in the current window before the rescale, want 4", st.CurrentEvents)
					}
					e.cq.rescale(tc.shift, e.Now())
					st := e.SchedulerStats()
					if st.BucketWidth != Time(1)<<tc.shift {
						t.Fatalf("width %v after rescale to shift %d", st.BucketWidth, tc.shift)
					}
					if st.CurrentEvents+st.RingEvents+st.OverflowEvents != e.Pending() {
						t.Fatalf("rescale lost events: %+v, %d pending", st, e.Pending())
					}
				})
			})
		})
	}
}

func TestCalQueueResetFullQueue(t *testing.T) {
	checkAgainstHeap(t, func(l *logger) {
		e := l.e
		var timers []*Timer
		for i, at := range []Time{100, 200, 50 * Microsecond, 400 * Microsecond, 3 * Second} {
			timers = append(timers, e.At(at, l.ev(i)))
		}
		e.Schedule(0, l.ev(5))
		e.RunUntil(0)
		if !e.refMode {
			if st := e.SchedulerStats(); st.CurrentEvents != 2 || st.RingEvents != 2 || st.OverflowEvents != 1 {
				t.Fatalf("want events in the window, the ring and the overflow heap, got %+v", st)
			}
		}
		e.Reset()
		for i, tm := range timers {
			if tm.Active() {
				t.Fatalf("timer %d active after Reset", i)
			}
		}
		if !e.refMode {
			if st := e.SchedulerStats(); st.CurrentEvents+st.RingEvents+st.OverflowEvents != 0 {
				t.Fatalf("Reset left events in the queue: %+v", st)
			}
			if e.cq.occ != [len(e.cq.occ)]uint64{} {
				t.Fatal("Reset left ring buckets marked occupied")
			}
		}
		// The reset engine runs a fresh schedule from time zero.
		for i, at := range []Time{300, 100, 50 * Microsecond, 2 * Second} {
			e.Schedule(at, l.ev(10+i))
		}
	})
}

// TestCalQueueWidenBoundary pins where a window advance widens the bucket:
// when at least calWidenWalk empty buckets lie before the next work, be it
// a ring bucket or the overflow head's bucket, exactly as a walk that
// stepped through the empty buckets one by one would.
func TestCalQueueWidenBoundary(t *testing.T) {
	const w = Time(1) << calInitShift
	for _, tc := range []struct {
		name     string
		overflow bool // the next work after bucket 844 is the overflow head
		gap      int  // buckets from 844 to the next work
		resizes  uint64
	}{
		{"ring 255", false, calWidenWalk - 1, 0},
		{"ring 256", false, calWidenWalk, 0},
		{"ring 257", false, calWidenWalk + 1, 1},
		{"overflow 256", true, calWidenWalk, 0},
		{"overflow 257", true, calWidenWalk + 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := checkAgainstHeap(t, func(l *logger) {
				e := l.e
				// Walk the window to bucket 844 in steps under the threshold.
				for i, b := range []Time{200, 400, 600} {
					e.Schedule(b*w+3, l.ev(i))
				}
				next := (844+Time(tc.gap))*w + 7
				e.Schedule(844*w+3, func() {
					l.ev(3)()
					if tc.overflow {
						e.Schedule(next+200*w, l.ev(4)) // a ring event behind the overflow head
					} else {
						e.Schedule(next, l.ev(4))
					}
				})
				if tc.overflow {
					e.Schedule(next, l.ev(5)) // beyond the horizon when scheduled
				}
			})
			if st := e.SchedulerStats(); st.Resizes != tc.resizes {
				t.Fatalf("Resizes = %d, want %d", st.Resizes, tc.resizes)
			}
		})
	}
}
