// Package audit is incastlab's runtime invariant auditor: a checked mode
// for the packet-level simulator that enforces, per event and per audit
// interval, the bookkeeping identities the paper's conclusions depend on:
//
//   - event-clock monotonicity (virtual time never runs backwards);
//   - queue occupancy within [0, capacity] in both packets and bytes, on
//     every occupancy change;
//   - byte conservation across the topology: every payload byte a sender
//     transmitted is delivered, queued, in flight, or dropped — nothing
//     appears or vanishes;
//   - packet conservation: pool-owned packets outstanding equal packets
//     residing in queues and on links;
//   - packet-pool hygiene: no packet is referenced after release and no
//     packet is released twice (use-after-free/double-free detection for
//     the free lists the zero-alloc hot path introduced);
//   - congestion-control protocol bounds for every cc variant: windows in
//     [MinWindow, MaxWindow], ssthresh sane, DCTCP's alpha in [0, 1],
//     Guardrail's clamp respected, pacing gaps non-negative.
//
// The auditor attaches to an engine and the objects to watch, then runs a
// periodic, read-only sweep inside the event loop. Audited runs produce
// bit-identical results to unaudited runs: the sweep never mutates
// simulation state, only observes it.
//
// The companion open-loop harness (diff.go, RunDiff) drives one
// offered-load trace through internal/rackmodel (analytic fluid model),
// internal/flowsim (the fluid queue) and internal/netsim (packet level)
// and asserts both reduced models agree with the packet simulator within
// stated tolerances; ci.sh runs it as a standing cross-validation gate.
// The closed-loop differential gate (gate_test.go), which runs whole
// incasts on both sides through core.RunIncastSim, lives in this
// package's external tests.
package audit

import (
	"fmt"
	"math"

	"incastlab/internal/cc"
	"incastlab/internal/netsim"
	"incastlab/internal/sim"
	"incastlab/internal/tcp"
)

// Config tunes an Auditor.
type Config struct {
	// Interval is the spacing of periodic invariant sweeps (default 1 ms).
	Interval sim.Time
	// MaxViolations bounds the recorded violation details; further
	// violations are counted but not stored (default 32).
	MaxViolations int
	// RequireDrained extends Finish with end-state checks: every watched
	// queue empty, every link idle, and zero pool-owned packets
	// outstanding. Enable it when the workload is known to complete before
	// Finish is called (the experiment runners do).
	RequireDrained bool
}

func (c *Config) fill() {
	if c.Interval <= 0 {
		c.Interval = sim.Millisecond
	}
	if c.MaxViolations <= 0 {
		c.MaxViolations = 32
	}
}

// Violation is one recorded invariant breach.
type Violation struct {
	// At is the virtual time of detection.
	At sim.Time
	// Rule names the invariant: "clock", "queue", "conservation", "pool",
	// "cc", "sender", "drained".
	Rule string
	// Detail is a human-readable description.
	Detail string
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("[%v] %s: %s", v.At, v.Rule, v.Detail)
}

// packet lifecycle states tracked independently of the pool's own flag.
const (
	pktLive = iota + 1
	pktFree
)

// Auditor watches one engine and a set of simulation objects. Zero
// violations after a run is the checked-mode pass criterion.
type Auditor struct {
	eng *sim.Engine
	cfg Config

	queues  []*netsim.Queue
	links   []*netsim.Link
	hosts   []*netsim.Host
	senders []*tcp.Sender
	algs    []watchedAlg
	pool    *netsim.PacketPool

	// closed declares the watched set a closed world: every packet in the
	// network comes from the watched pool and every endpoint/queue/link is
	// watched, so the conservation identities must hold exactly.
	closed bool

	// pktState shadows the pool's live/free bookkeeping so that double
	// releases (which the pool's own flag silently absorbs) are detected.
	pktState map[*netsim.Packet]int8

	violations []Violation
	total      int

	lastEventAt sim.Time
	events      uint64
	sweeps      int
	started     bool
	sweepFn     func()
}

type watchedAlg struct {
	name string
	alg  cc.Algorithm
}

// New creates an auditor bound to eng. Call Watch* methods to register
// objects, then Start before running the engine and Finish after.
func New(eng *sim.Engine, cfg Config) *Auditor {
	cfg.fill()
	return &Auditor{
		eng:      eng,
		cfg:      cfg,
		pktState: make(map[*netsim.Packet]int8),
	}
}

// violatef records one violation, keeping details up to MaxViolations.
func (a *Auditor) violatef(rule, format string, args ...any) {
	a.total++
	if len(a.violations) < a.cfg.MaxViolations {
		a.violations = append(a.violations, Violation{
			At:     a.eng.Now(),
			Rule:   rule,
			Detail: fmt.Sprintf(format, args...),
		})
	}
}

// Violations returns the recorded violation details (capped at
// Config.MaxViolations; Total reports the full count).
func (a *Auditor) Violations() []Violation { return a.violations }

// Total returns the number of violations detected, including ones whose
// details were dropped by the cap.
func (a *Auditor) Total() int { return a.total }

// Sweeps returns how many periodic sweeps have run.
func (a *Auditor) Sweeps() int { return a.sweeps }

// EventsObserved returns how many engine events the clock check saw.
func (a *Auditor) EventsObserved() uint64 { return a.events }

// Err returns nil when no invariant was violated, else an error summarizing
// the violations.
func (a *Auditor) Err() error {
	if a.total == 0 {
		return nil
	}
	msg := fmt.Sprintf("audit: %d invariant violation(s)", a.total)
	for _, v := range a.violations {
		msg += "\n  " + v.String()
	}
	if a.total > len(a.violations) {
		msg += fmt.Sprintf("\n  ... and %d more", a.total-len(a.violations))
	}
	return fmt.Errorf("%s", msg)
}

// WatchQueue registers q for per-change occupancy-bound checks and sweep
// -time consistency checks. The existing occupancy observer, if any, keeps
// firing (the auditor chains to it).
func (a *Auditor) WatchQueue(q *netsim.Queue) {
	a.queues = append(a.queues, q)
	prev := q.OnChange()
	q.SetOnChange(func(now sim.Time, packets, bytes int) {
		if prev != nil {
			prev(now, packets, bytes)
		}
		a.checkOccupancy(q, packets, bytes)
	})
}

// WatchLink registers l (and its egress queue) for in-flight enumeration in
// the conservation and liveness sweeps.
func (a *Auditor) WatchLink(l *netsim.Link) {
	a.links = append(a.links, l)
	a.WatchQueue(l.Queue())
}

// WatchHost registers h as a delivery endpoint for byte conservation.
func (a *Auditor) WatchHost(h *netsim.Host) {
	a.hosts = append(a.hosts, h)
}

// WatchSender registers a transport sender: its counters feed the byte
// -conservation identity and its congestion-control algorithm is bound
// -checked every sweep.
func (a *Auditor) WatchSender(s *tcp.Sender) {
	a.senders = append(a.senders, s)
	a.WatchAlgorithm(fmt.Sprintf("flow-%d", s.Flow()), s.Algorithm())
}

// WatchAlgorithm registers a congestion-control instance for protocol-bound
// checks under the given label.
func (a *Auditor) WatchAlgorithm(name string, alg cc.Algorithm) {
	a.algs = append(a.algs, watchedAlg{name: name, alg: alg})
}

// WatchPool registers the packet pool for lifecycle tracking. One pool per
// auditor: the conservation identity relates a single pool to the watched
// queues and links.
func (a *Auditor) WatchPool(pp *netsim.PacketPool) {
	if a.pool != nil {
		panic("audit: auditor already watches a pool")
	}
	a.pool = pp
	pp.SetObserver(a)
}

// SetClosedWorld declares that the watched objects form the complete
// network: every packet comes from the watched pool and every queue, link,
// and endpoint is registered. Conservation identities are only enforced in
// a closed world (a partial watch cannot account for all bytes).
func (a *Auditor) SetClosedWorld(closed bool) { a.closed = closed }

// WatchDumbbell registers the whole dumbbell — every link (with its queue),
// every host, and the packet pool — and declares the world closed.
func (a *Auditor) WatchDumbbell(d *netsim.Dumbbell) {
	for _, l := range d.AllLinks() {
		a.WatchLink(l)
	}
	a.WatchHost(d.Receiver)
	for _, h := range d.Senders {
		a.WatchHost(h)
	}
	a.WatchPool(d.Pool)
	a.SetClosedWorld(true)
}

// WatchRack registers the whole rack topology and declares the world
// closed.
func (a *Auditor) WatchRack(r *netsim.Rack) {
	for _, l := range r.AllLinks() {
		a.WatchLink(l)
	}
	for _, h := range r.Receivers {
		a.WatchHost(h)
	}
	for _, h := range r.Senders {
		a.WatchHost(h)
	}
	a.WatchPool(r.Pool)
	a.SetClosedWorld(true)
}

// WatchClos registers the whole leaf/spine fabric — every link of every
// switch tier, every host, and the packet pool — and declares the world
// closed, so conservation holds per-switch across the fabric, not just at
// one bottleneck.
func (a *Auditor) WatchClos(c *netsim.Clos) {
	for _, l := range c.AllLinks() {
		a.WatchLink(l)
	}
	for _, h := range c.Hosts {
		a.WatchHost(h)
	}
	a.WatchPool(c.Pool)
	a.SetClosedWorld(true)
}

// OnGet implements netsim.PoolObserver: a packet leaving the pool must not
// still be live somewhere.
func (a *Auditor) OnGet(p *netsim.Packet) {
	if a.pktState[p] == pktLive {
		a.violatef("pool", "pool handed out a packet that is still live (%s)", p)
	}
	a.pktState[p] = pktLive
}

// OnPut implements netsim.PoolObserver. A Put of a packet the pool no
// longer owns is a double release when the auditor has seen that packet
// before; foreign (never-pooled) packets are ignored.
func (a *Auditor) OnPut(p *netsim.Packet, pooled bool) {
	if pooled {
		a.pktState[p] = pktFree
		return
	}
	if a.pktState[p] == pktFree {
		a.violatef("pool", "double release of packet (%s)", p)
	}
}

// Start installs the per-event clock check and schedules the periodic
// sweep. Call it after registering watches and before running the engine.
func (a *Auditor) Start() {
	if a.started {
		return
	}
	a.started = true
	a.lastEventAt = a.eng.Now()
	a.eng.SetOnEvent(a.onEvent)
	a.sweepFn = a.sweep
	a.eng.ScheduleAfter(a.cfg.Interval, a.sweepFn)
}

// onEvent checks clock monotonicity on every engine event.
func (a *Auditor) onEvent(at sim.Time) {
	a.events++
	if at < a.lastEventAt {
		a.violatef("clock", "event at %v runs after event at %v", at, a.lastEventAt)
	}
	a.lastEventAt = at
}

// sweep runs the interval checks and re-arms itself while the simulation
// still has events. The chain ends when the event queue drains, so engines
// run with Engine.Run (which stops on an empty queue) still terminate.
func (a *Auditor) sweep() {
	a.runChecks()
	if a.eng.Pending() > 0 {
		a.eng.ScheduleAfter(a.cfg.Interval, a.sweepFn)
	}
}

// Finish runs one final sweep at the current time and, when configured,
// the end-state drained checks. Call it after the engine run completes,
// then consult Err.
func (a *Auditor) Finish() {
	a.runChecks()
	if a.cfg.RequireDrained {
		a.checkDrained()
	}
}

// runChecks performs one full read-only audit of the watched objects.
func (a *Auditor) runChecks() {
	a.sweeps++
	now := a.eng.Now()
	if now < a.lastEventAt {
		a.violatef("clock", "sweep time %v before last event %v", now, a.lastEventAt)
	}

	// Walk queues and links once, accumulating payload bytes and packet
	// counts for conservation while checking liveness and accounting.
	var queuedPayload, inflightPayload int64
	var residingPackets int64
	for _, q := range a.queues {
		a.checkOccupancy(q, q.LenPackets(), q.LenBytes())
		var bytes int64
		n := 0
		q.ForEachPacket(func(p *netsim.Packet) {
			a.checkLive(p, "queued in "+q.Name())
			bytes += int64(p.IPBytes())
			queuedPayload += int64(p.Len)
			n++
		})
		if n != q.LenPackets() || bytes != int64(q.LenBytes()) {
			a.violatef("queue", "queue %q accounting mismatch: contents %d pkts/%d bytes, counters %d pkts/%d bytes",
				q.Name(), n, bytes, q.LenPackets(), q.LenBytes())
		}
		residingPackets += int64(n)
	}
	for _, l := range a.links {
		n := 0
		l.ForEachInFlight(func(p *netsim.Packet) {
			a.checkLive(p, "in flight on "+l.Name())
			inflightPayload += int64(p.Len)
			n++
		})
		if n != l.InFlightPackets() {
			a.violatef("conservation", "link %q in-flight accounting mismatch: walked %d, counter %d",
				l.Name(), n, l.InFlightPackets())
		}
		residingPackets += int64(n)
	}

	if a.closed {
		a.checkConservation(queuedPayload, inflightPayload, residingPackets)
	}
	a.checkSenders()
	a.checkAlgorithms()
}

// checkOccupancy enforces queue occupancy bounds.
func (a *Auditor) checkOccupancy(q *netsim.Queue, packets, bytes int) {
	if packets < 0 || bytes < 0 {
		a.violatef("queue", "queue %q negative occupancy: %d pkts / %d bytes", q.Name(), packets, bytes)
	}
	if cap := q.CapacityPackets(); cap > 0 && packets > cap {
		a.violatef("queue", "queue %q occupancy %d pkts exceeds capacity %d", q.Name(), packets, cap)
	}
	if cap := q.CapacityBytes(); cap > 0 && bytes > cap {
		a.violatef("queue", "queue %q occupancy %d bytes exceeds capacity %d", q.Name(), bytes, cap)
	}
}

// checkLive flags packets referenced by the network after being released to
// the pool.
func (a *Auditor) checkLive(p *netsim.Packet, where string) {
	if a.pktState[p] == pktFree {
		a.violatef("pool", "packet referenced after release: %s (%s)", where, p)
	}
}

// checkConservation enforces the closed-world identities at the current
// event boundary:
//
//	packets: pool outstanding == packets residing in queues and on links
//	payload: sent == delivered + queued + in flight + dropped
//
// All terms are exact integers; the identities hold at every event boundary
// because transmission counters and packet movements update within the same
// event.
func (a *Auditor) checkConservation(queuedPayload, inflightPayload, residingPackets int64) {
	if a.pool != nil {
		if out := a.pool.Outstanding(); out != residingPackets {
			a.violatef("conservation", "pool outstanding %d packets but %d residing in queues/links", out, residingPackets)
		}
	}
	if len(a.senders) == 0 || len(a.hosts) == 0 {
		return
	}
	var sent int64
	for _, s := range a.senders {
		sent += s.Stats().SentBytes
	}
	var delivered int64
	for _, h := range a.hosts {
		delivered += h.RxBytes() - int64(netsim.HeaderBytes)*h.RxPackets()
	}
	var dropped int64
	for _, q := range a.queues {
		st := q.Stats()
		dropped += st.DroppedBytes - int64(netsim.HeaderBytes)*st.DroppedPackets
	}
	if accounted := delivered + queuedPayload + inflightPayload + dropped; accounted != sent {
		a.violatef("conservation",
			"payload bytes not conserved: sent %d != delivered %d + queued %d + in-flight %d + dropped %d (= %d, off by %d)",
			sent, delivered, queuedPayload, inflightPayload, dropped, accounted, sent-accounted)
	}
}

// checkSenders enforces transport sequence-space sanity.
func (a *Auditor) checkSenders() {
	for _, s := range a.senders {
		if s.InFlight() < 0 {
			a.violatef("sender", "flow %d negative in-flight %d", s.Flow(), s.InFlight())
		}
		if acked := s.Acked(); acked < 0 || acked > s.Demand() {
			a.violatef("sender", "flow %d acked %d outside [0, demand %d]", s.Flow(), acked, s.Demand())
		}
	}
}

// checkAlgorithms enforces congestion-control protocol bounds.
func (a *Auditor) checkAlgorithms() {
	for _, wa := range a.algs {
		w := wa.alg.Window()
		if w < cc.MinWindow || w > cc.MaxWindow {
			a.violatef("cc", "%s (%s) window %d outside [%d, %d]",
				wa.name, wa.alg.Name(), w, cc.MinWindow, cc.MaxWindow)
		}
		if gap := wa.alg.PacingGap(); gap < 0 {
			a.violatef("cc", "%s (%s) negative pacing gap %v", wa.name, wa.alg.Name(), gap)
		}
		in, ok := wa.alg.(cc.Inspectable)
		if !ok {
			continue
		}
		p := in.Probe()
		if p.HasSsthresh && (p.SsthreshBytes < cc.MinWindow || p.SsthreshBytes > cc.MaxWindow) {
			a.violatef("cc", "%s (%s) ssthresh %d outside [%d, %d]",
				wa.name, wa.alg.Name(), p.SsthreshBytes, cc.MinWindow, cc.MaxWindow)
		}
		if p.HasAlpha && (math.IsNaN(p.Alpha) || p.Alpha < 0 || p.Alpha > 1) {
			a.violatef("cc", "%s (%s) alpha %v outside [0, 1]", wa.name, wa.alg.Name(), p.Alpha)
		}
		if p.HasFractionalWindow &&
			(math.IsNaN(p.FractionalWindowBytes) || math.IsInf(p.FractionalWindowBytes, 0) ||
				p.FractionalWindowBytes <= 0) {
			a.violatef("cc", "%s (%s) fractional window %v not positive and finite",
				wa.name, wa.alg.Name(), p.FractionalWindowBytes)
		}
		if p.CapBytes > 0 && w > p.CapBytes {
			a.violatef("cc", "%s (%s) window %d exceeds clamp %d", wa.name, wa.alg.Name(), w, p.CapBytes)
		}
	}
}

// checkDrained asserts the end state of a completed workload: empty queues,
// idle links, and no pool-owned packets outstanding. This is the check that
// catches dropped-packet leaks deterministically — a leaked packet shows up
// as nonzero outstanding after everything else drained.
func (a *Auditor) checkDrained() {
	for _, q := range a.queues {
		if q.LenPackets() != 0 || q.LenBytes() != 0 {
			a.violatef("drained", "queue %q not empty at finish: %d pkts / %d bytes",
				q.Name(), q.LenPackets(), q.LenBytes())
		}
	}
	for _, l := range a.links {
		if l.InFlightPackets() != 0 {
			a.violatef("drained", "link %q still has %d packets in flight at finish",
				l.Name(), l.InFlightPackets())
		}
	}
	if a.pool != nil {
		if out := a.pool.Outstanding(); out != 0 {
			a.violatef("drained", "%d pool-owned packets still outstanding at finish (leak)", out)
		}
	}
}
