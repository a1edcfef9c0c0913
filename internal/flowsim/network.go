package flowsim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"incastlab/internal/netsim"
	"incastlab/internal/sim"
)

// This file is the fluid solver. Every flow traverses an ordered list of
// port queues (netsim.FluidPaths — the backend-neutral path model the
// packet topology builders share), each queue integrates its own
// backlog, ECN marking, and tail drops per step, and flows are coupled
// through min-rate allocation along their paths — a flow's throughput is
// implicitly the minimum of its per-hop pro-rata service rates, because
// any hop serving slower than the hops upstream accumulates the flow's
// backlog and throttles what reaches the hops downstream.
//
// The paper's dumbbell is the one-queue instance
// (netsim.DumbbellConfig.FluidPaths) and runs through the same
// integrator. At a terminal hop — the only hop a dumbbell has — each
// step serves the start-of-step backlog before it admits new arrivals,
// marks with a rackmodel-style fraction, tail-drops the newest releases
// first, and parks loss victims on RTO stalls.
//
// Transit hops (leaf uplinks, spine downlinks — every queue that is never
// a path's terminal) additionally cut through: arrivals that fit in the
// hop's spare service this step are forwarded immediately instead of
// waiting a step, so an idle 100G fabric hop adds (near) zero latency and
// the effective RTT of a cross-rack flow stays at its base RTT plus real
// queueing. The terminal hop never cuts through, keeping its
// serve-then-admit contract intact.

// Run executes the fluid simulation of cfg's workload over the path set
// net, built by netsim.DumbbellConfig.FluidPaths or ClosConfig.FluidPaths
// from the config the packet backend builds from, so a Clos run's ECMP
// spine choice matches the packet backend's flow for flow. The path
// set's flow count is the incast degree, its bottleneck the queue the
// run's headline statistics sample, and each flow's base RTT its
// class's. It returns an error when the configuration or the path set is
// invalid, the run fails to complete within the horizon, or (with
// cfg.Check) an invariant is violated.
func Run(cfg Config, net *netsim.FluidPaths) (*Result, error) {
	if err := cfg.fill(net); err != nil {
		return nil, err
	}
	plan, err := buildPlan(&cfg, net)
	if err != nil {
		return nil, err
	}
	e, err := newNetEngine(cfg, net, plan)
	if err != nil {
		return nil, err
	}
	defer e.release()
	if err := e.run(); err != nil {
		return nil, err
	}
	return e.finish()
}

// netFlow is the per-record state the integrator's per-step passes
// touch: unsent demand, the ACK pipe, the cached window, observation-round
// tallies, per-step scratch (final-hop delivery and its marked share,
// current RTT), and where the record's hops live. Per-hop backlogs live in
// the engine's hop array: hop h of record i is hops[hot[i].off+h].
type netFlow struct {
	unsent    float64
	ackPipe   float64
	win       float64
	roundDel  float64
	roundMark float64
	deliv     float64
	delivMark float64
	rttSec    float64
	baseSec   float64 // the path's base RTT, seconds
	stallT    sim.Time
	off       int32
	// lineNext threads split descendants into each original record's
	// lineage chain (-1 terminated).
	lineNext int32
	// rel is the index of the lineage's latest release (-1 before the
	// first); relLive counts the active records by it.
	rel     int32
	reduced bool
	// parked is set while the record has entries on the wake heap.
	parked bool
}

// netQueue is one queue's static parameters and per-step scratch.
type netQueue struct {
	q        float64 // backlog in packets
	drain    float64 // effective drain, packets/second
	capPkts  float64
	kPkts    float64
	q0       float64
	delay    float64 // start-of-step queueing delay, seconds
	served   float64
	sFrac    float64
	arrTotal float64
	markNow  float64
	passFrac float64
	transit  bool // never a terminal hop: cut-through allowed

	// Lifetime totals, packets (Result.Lifetime.Queues): admitted
	// arrivals, tail drops, departures during marking, departures, and
	// the largest backlog a step ended with. Written, never read, until
	// finish.
	admitted, dropped, marked, departed, peak float64
}

// hopState is one record's per-member state at one hop of its path.
type hopState struct {
	bk    float64 // backlog attributed to the record at the hop
	mk    float64 // CE-marked share of that backlog
	arr   float64 // this step's arrivals into the hop
	arrMk float64 // marked share of those arrivals
}

// netEngine integrates the fluid state. Its run loop handles releases,
// the measured-window snapshot, RTO wakes, and adaptive steps; the step
// itself walks queues in topological stage order so volume forwarded out
// of one hop is accounted at the next within the same step.
type netEngine struct {
	cfg   Config
	net   *netsim.FluidPaths
	flows []flowState
	hot   []netFlow

	// law is the run's congestion-control law: every record's controller
	// follows the same one, so its constants are stored once.
	law law

	// Cohort bookkeeping (see cohort.go): record i stands for mCnt[i]
	// identical flows (the member list's positions mOff[i] to
	// mOff[i]+mCnt[i]); all per-record flow state is PER MEMBER and
	// aggregate couplings at queue boundaries scale by the count. paths[i]
	// is the record's shared ordered queue path (every member of a path
	// class traverses the same queues by construction). Per-flow runs are
	// the degenerate instance: every count 1, every lineage chain a single
	// node.
	mOff, mCnt []int32
	paths      [][]int32
	// releasedFlows counts flow releases by weight (== relPtr when every
	// record is a singleton); completion targets compare against it.
	releasedFlows float64
	splitsMade    int64
	peakW         float64

	qs []netQueue
	// byStage groups queue indices by topological level, in ascending
	// order; each group is a window of stageQ.
	byStage [][]int32
	stageQ  []int32

	hops []hopState
	// minBaseSec is the smallest per-record base RTT. Splits copy their
	// parent's baseSec, so it is fixed once the engine is built.
	minBaseSec float64

	nicRate  float64 // per-sender injection cap, packets/second
	bneck    int
	segs     float64
	crumbEps float64 // residual volume tolerance from per-flow epsilons

	now sim.Time

	// Releases: every burst's per-record start, globally time-sorted.
	releases []release
	relPtr   int

	// Tail-drop victim index, in CSR form: vic[vicOff[j]:vicOff[j+1]]
	// lists every release whose unit's path crosses queue j, with the
	// queue's hop on that path, in ascending release order. Split children
	// share their parent's path and sit on its lineage chain, so the index
	// is fixed once the engine is built.
	vicOff []int32
	vic    []victim
	// relLive[r] counts the active records whose lineage's latest release
	// is release r. Only active records hold arrivals, so the tail-drop
	// walk skips the index entries of a release with none.
	relLive []int32

	// wakes holds one entry per RTO parking, ordered by (deadline, parking
	// sequence); parkSeq numbers the parkings.
	wakes   wakeHeap
	parkSeq int64

	// activeList holds records with sendable or in-network volume.
	activeList []int32

	// Completion tracking: cumDelivered crosses burst targets in order.
	cumDelivered float64
	burstsDone   int
	bcts         []sim.Time

	// Counters (floats during the run, rounded at the end). The base
	// values snapshot at the start of the measured window, mirroring the
	// packet runner's approach.
	timeouts, fastRetx, retxPkts, drops, marks, sent float64
	baseTimeouts, baseFastRetx, baseRetxPkts         float64
	baseDrops, baseMarks, baseSent, baseDelivered    float64
	baseTaken                                        bool

	steps uint64

	smp sampler

	// scratch is the pooled backing-array bundle this run borrowed; see
	// netscratch.go.
	scratch *netScratch
}

func newNetEngine(cfg Config, net *netsim.FluidPaths, plan cohortPlan) (*netEngine, error) {
	m := plan.cohorts()
	releases, err := buildReleases(cfg, m)
	if err != nil {
		return nil, err
	}
	nq := len(net.Queues)
	e := &netEngine{
		cfg:      cfg,
		net:      net,
		law:      newLaw(cfg.CC),
		mOff:     plan.off,
		mCnt:     plan.cnt,
		nicRate:  EffectivePacketRate(cfg.LineRateBps),
		bneck:    net.Bottleneck,
		segs:     float64(cfg.SegmentsPerFlow),
		crumbEps: float64(cfg.flows)*volEps*4 + 1e-9,
		releases: releases,
		bcts:     make([]sim.Time, 0, cfg.Bursts),
	}
	var totalHops int32
	for _, c := range plan.class {
		totalHops += int32(len(net.Paths[c]))
	}
	e.attach(netScratchPool.Get().(*netScratch), nq, net.Stages(), m, totalHops)
	for j, q := range net.Queues {
		e.qs[j] = netQueue{
			drain:   EffectivePacketRate(q.RateBps),
			capPkts: float64(q.CapacityPackets),
			kPkts:   float64(q.ECNThresholdPackets),
			transit: true,
		}
	}
	var next int
	for s := range e.byStage {
		from := next
		for j, sj := range net.Stage {
			if sj == s {
				e.stageQ[next] = int32(j)
				next++
			}
		}
		e.byStage[s] = e.stageQ[from:next:next]
	}
	var hops int32
	e.minBaseSec = math.Inf(1)
	for i := range e.flows {
		c := plan.class[i]
		path := net.Paths[c]
		e.paths[i] = path
		e.qs[path[len(path)-1]].transit = false // a terminal hop never cuts through
		e.flows[i].ctrl = newController(cfg.CC)
		e.flows[i].lastLoss = math.MinInt64 / 2
		h := &e.hot[i]
		h.win = e.flows[i].ctrl.window(&e.law)
		h.baseSec = float64(net.BaseRTT[c]) / 1e9
		h.off = hops
		h.lineNext = -1
		h.rel = -1
		hops += int32(len(path))
		e.minBaseSec = min(e.minBaseSec, h.baseSec)
		e.peakW = max(e.peakW, float64(e.mCnt[i]))
	}
	e.buildVictimIndex()

	e.smp = newSampler(cfg, net.Queues[e.bneck].ECNThresholdPackets)
	return e, nil
}

// victim is one tail-drop victim index entry: a release and the hop at
// which its unit's path crosses the indexed queue.
type victim struct {
	rel int32
	hop int32
}

// buildVictimIndex fills vicOff/vic from the release schedule: a counting
// pass sizes each queue's list, and a fill pass in release order leaves
// every list sorted by release. The fill advances vicOff[j] as its cursor,
// which leaves vicOff[j] at list j's end; the final shift restores starts.
func (e *netEngine) buildVictimIndex() {
	nq := len(e.qs)
	clear(e.vicOff)
	for _, r := range e.releases {
		for _, j := range e.paths[r.flow] {
			e.vicOff[j+1]++
		}
	}
	for j := 1; j <= nq; j++ {
		e.vicOff[j] += e.vicOff[j-1]
	}
	e.vic = grown(e.vic, int(e.vicOff[nq]))
	for ri, r := range e.releases {
		for h, j := range e.paths[r.flow] {
			e.vic[e.vicOff[j]] = victim{rel: int32(ri), hop: int32(h)}
			e.vicOff[j]++
		}
	}
	copy(e.vicOff[1:], e.vicOff[:nq])
	e.vicOff[0] = 0
}

func (e *netEngine) activate(i int32) {
	if !e.flows[i].active {
		e.flows[i].active = true
		e.relLive[e.hot[i].rel]++
		e.activeList = append(e.activeList, i)
	}
}

// retire takes a finished (or stalled-and-drained) record off the live
// counts and writes its crumbs off; the caller drops it from the active
// list.
func (e *netEngine) retire(i int32) {
	e.writeOff(i)
	e.flows[i].active = false
	e.relLive[e.hot[i].rel]--
}

// releaseDue makes every release that is due by now. Each release record
// covers its unit's whole lineage: the original record plus any split-off
// descendants, whose live counts move to the new release.
func (e *netEngine) releaseDue() {
	for e.relPtr < len(e.releases) && e.releases[e.relPtr].at <= e.now {
		r := e.releases[e.relPtr]
		rel := int32(e.relPtr)
		for ci := r.flow; ci >= 0; ci = e.hot[ci].lineNext {
			if e.flows[ci].active {
				e.relLive[e.hot[ci].rel]--
				e.relLive[rel]++
			}
			e.hot[ci].rel = rel
			e.hot[ci].unsent += e.segs
			e.flows[ci].lastRelease = r.at
			e.releasedFlows += float64(e.mCnt[ci])
			if e.hot[ci].stallT <= e.now {
				e.activate(ci)
			}
		}
		e.relPtr++
	}
}

// queued returns the aggregate volume across all queues.
func (e *netEngine) queued() float64 {
	var total float64
	for j := range e.qs {
		total += e.qs[j].q
	}
	return total
}

// run advances fluid steps until every burst has completed or the horizon
// expires.
func (e *netEngine) run() error {
	cfg := e.cfg
	deadline := sim.Time(cfg.Bursts)*cfg.Interval + horizon
	measuredStart := e.smp.measuredStart()
	totalDemand := float64(cfg.flows) * e.segs * float64(cfg.Bursts)
	bneck := &e.qs[e.bneck]

	for e.now < deadline {
		e.releaseDue()
		if !e.baseTaken && e.now >= measuredStart {
			e.baseTaken = true
			e.baseTimeouts, e.baseFastRetx, e.baseRetxPkts = e.timeouts, e.fastRetx, e.retxPkts
			e.baseDrops, e.baseMarks, e.baseSent = e.drops, e.marks, e.sent
			e.baseDelivered = e.cumDelivered
		}
		if len(e.activeList) == 0 && len(e.wakes) == 0 && e.queued() <= e.crumbEps {
			// Fully idle: every released flow has finished, so every burst
			// whose flows have all been released is complete, whatever
			// rounding residue the delivered total carries — unless some
			// record still holds volume that nothing is left to send.
			if e.burstsDone < cfg.Bursts && e.burstReleased() {
				if err := e.checkStranded(); err != nil {
					return err
				}
			}
			for e.burstsDone < cfg.Bursts && e.burstReleased() {
				e.completeBurst(e.now)
			}
			if e.burstsDone == cfg.Bursts {
				return nil
			}
		}

		if len(e.wakes) > 0 && e.wakes[0].at <= e.now {
			e.wakeDue()
			continue
		}

		// Next hard boundary: burst release, RTO wake, or the opening of
		// the measured window.
		next := deadline
		if e.relPtr < len(e.releases) && e.releases[e.relPtr].at < next {
			next = e.releases[e.relPtr].at
		}
		if len(e.wakes) > 0 && e.wakes[0].at < next {
			next = e.wakes[0].at
		}
		if !e.baseTaken && measuredStart > e.now && measuredStart < next {
			next = measuredStart
		}

		if len(e.activeList) == 0 && e.queued() <= e.crumbEps {
			// Fully idle: drop residual crumbs and jump to the next event.
			for j := range e.qs {
				e.qs[j].q = 0
			}
			if next <= e.now {
				return fmt.Errorf("flowsim: network run stuck at %v with no runnable flows", e.now)
			}
			e.smp.advance(next, 0)
			e.now = next
			continue
		}

		// Adaptive step: a fraction of the bottleneck queue's RTT, clamped,
		// snapped to the next boundary; full-RTT steps once the queue is
		// pegged deep above the ECN threshold (see stepDiv). Transit hops
		// are orders of magnitude faster and contribute delay only under
		// ECMP collisions, which the per-flow RTTs (pass A) still see.
		rttSec := e.minBaseSec + bneck.q/bneck.drain
		div := float64(stepDiv)
		if bneck.q > stepDeepK*bneck.kPkts {
			div = stepDivDeep
		}
		dt := sim.Time(rttSec / div * 1e9)
		if dt < cfg.minStep {
			dt = cfg.minStep
		}
		if dt > cfg.maxStep {
			dt = cfg.maxStep
		}
		// Snap to the boundary, but never below the minimum step:
		// boundaries are honored at that resolution. Chasing each of a
		// burst's jittered release instants exactly would mean one
		// sub-microsecond step per flow; landing up to a minimum step late
		// batches releases instead, and the release loop processes
		// everything due regardless.
		if e.now+dt > next && next-e.now >= cfg.minStep {
			dt = next - e.now
		}
		if err := e.step(dt); err != nil {
			return err
		}
	}
	return fmt.Errorf("flowsim: %d-flow network run did not complete by %v (delivered %.0f of %.0f packets)",
		cfg.flows, deadline, e.cumDelivered, totalDemand)
}

// markFraction returns the fraction of a step during which a linearly
// evolving queue (from q0 along the uncapped slope to q1) exceeds thresh,
// mirroring internal/rackmodel's crossing arithmetic.
func markFraction(q0, q1, thresh float64) float64 {
	lo, hi := q0, q1
	if lo > hi {
		lo, hi = hi, lo
	}
	switch {
	case hi <= thresh:
		return 0
	case lo >= thresh:
		return 1
	default:
		return (hi - thresh) / (hi - lo)
	}
}

// step advances the fluid state by dt: per-queue service from the
// start-of-step backlogs, per-flow injection offers, then a walk over the
// queues in topological stage order — marking, tail-dropping, admitting,
// and forwarding — and finally the per-flow round bookkeeping.
func (e *netEngine) step(dt sim.Time) error {
	e.steps++
	stepEnd := e.now + dt
	dtSec := float64(dt) / 1e9

	// Per-queue service from start-of-step state: deliveries free window
	// headroom for this step's arrivals, and arrivals admitted now are
	// served from the next step on (one-step latency << RTT/3).
	for j := range e.qs {
		qs := &e.qs[j]
		q0 := qs.q
		served := qs.drain * dtSec
		if served > q0 {
			served = q0
		}
		qs.q0 = q0
		qs.delay = q0 / qs.drain
		qs.served = served
		if q0 > 0 && served > 0 {
			qs.sFrac = served / q0
		} else {
			qs.sFrac = 0
		}
		qs.arrTotal = 0
		qs.markNow = 0
		qs.passFrac = 0
	}

	// Pass A: per-flow RTT, ACK-pipe update, and injection offers into
	// each flow's first hop. This step's terminal-hop departure — exactly
	// predictable as bk*sFrac, since drops only hit arrivals and terminal
	// hops never cut through — joins the ACK pipe and frees window
	// headroom before the injection offer is sized. The window paces at
	// w/RTT capped at the host NIC line rate and that headroom.
	maxSend := e.nicRate * dtSec
	for _, i := range e.activeList {
		h := &e.hot[i]
		hop := e.hops[h.off:]
		path := e.paths[i]
		rtt := h.baseSec
		var inNet float64
		for k, j := range path {
			rtt += e.qs[j].delay
			inNet += hop[k].bk
		}
		h.rttSec = rtt
		last := len(path) - 1
		dFinal := hop[last].bk * e.qs[path[last]].sFrac
		inNet -= dFinal
		ackDecay := dtSec / (h.baseSec / 2)
		if ackDecay > 1 {
			ackDecay = 1
		}
		p := h.ackPipe + dFinal
		p -= p * ackDecay
		h.ackPipe = p

		var a float64
		if h.unsent > volEps && h.stallT <= e.now {
			w := h.win
			a = w * dtSec / rtt
			if a > maxSend {
				a = maxSend
			}
			if head := w - inNet - p; a > head {
				a = head
			}
			if a > h.unsent {
				a = h.unsent
			}
			if a < 0 {
				a = 0
			}
		}
		hop[0].arr = a
		hop[0].arrMk = 0
		e.qs[path[0]].arrTotal += a * float64(e.mCnt[i])
	}

	// Stage walk: queues finalize (mark fraction, tail drops, cut-through
	// share, backlog update) once their arrivals are complete — i.e. after
	// every earlier stage's flows have forwarded — then the flows with a
	// hop at this stage depart, admit, and forward.
	for s, queues := range e.byStage {
		for _, j := range queues {
			qs := &e.qs[j]
			arr := qs.arrTotal
			// Mark fraction over the step, rackmodel-style: linear queue
			// evolution along the pre-drop net slope, threshold-crossing
			// time pro-rated. Deliveries during the above-threshold portion
			// carry marks, which reach senders with the ACK path's
			// negligible delay, so reactions land this step.
			qs.markNow = markFraction(qs.q0, qs.q0+arr-qs.drain*dtSec, qs.kPkts)
			// Overflow beyond capacity tail-drops the latest-released
			// arrivals (the packets at the back of the FIFO),
			// concentrating loss on stragglers exactly as real tail-drop
			// does.
			if overflow := qs.q0 - qs.served + arr - qs.capPkts; overflow > 0 {
				e.dropTailQueue(j, overflow, stepEnd)
				arr = qs.arrTotal
			}
			if qs.transit && arr > 0 {
				// Cut-through: arrivals that fit the hop's spare service
				// this step forward immediately instead of waiting a step,
				// so idle fabric hops add no pipeline latency.
				if spare := qs.drain*dtSec - qs.served; spare >= arr {
					qs.passFrac = 1
				} else if spare > 0 {
					qs.passFrac = spare / arr
				}
			}
			qs.q = qs.q0 - qs.served + arr*(1-qs.passFrac)
			if qs.q < 0 {
				qs.q = 0
			}
			out := qs.served + arr*qs.passFrac
			qs.admitted += arr
			qs.departed += out
			qs.marked += out * qs.markNow
			qs.peak = max(qs.peak, qs.q)
		}
		for _, i := range e.activeList {
			e.stepFlowStage(i, s)
		}
	}

	// Final pass: attribute deliveries and marks, apply cuts, close
	// rounds, park finished flows. The common case touches only the dense
	// netFlow records; flowState (controller and cold fields) is loaded
	// only on round events.
	var servedFinal float64
	keep := e.activeList[:0]
	for _, i := range e.activeList {
		h := &e.hot[i]
		w := float64(e.mCnt[i])
		d, dm := h.deliv, h.delivMark
		h.deliv, h.delivMark = 0, 0
		servedFinal += d * w
		e.cumDelivered += d * w
		e.marks += dm * w
		if d > 0 {
			h.roundDel += d
			if dm > 0 {
				h.roundMark += dm
				if !h.reduced {
					h.reduced = true
					f := &e.flows[i]
					f.ctrl.onMarkCut(&e.law)
					h.win = f.ctrl.window(&e.law)
				}
			}
		}
		if h.stallT <= e.now {
			// Close the observation round: the DCTCP family closes after
			// one window of data is delivered (packet DCTCP's nextSeq
			// semantics); Swift closes once per RTT.
			var closes bool
			if e.law.timeBasedRounds() {
				f := &e.flows[i]
				if f.roundEnd == 0 {
					f.roundEnd = stepEnd + sim.Time(h.rttSec*1e9)
				} else if stepEnd >= f.roundEnd {
					closes = true
					f.roundEnd = stepEnd + sim.Time(h.rttSec*1e9)
				}
			} else {
				closes = h.roundDel >= h.win
			}
			if closes {
				if h.roundDel > 0 {
					f := &e.flows[i]
					f.ctrl.onRoundEnd(&e.law, h.roundDel, h.roundMark, h.rttSec)
					h.win = f.ctrl.window(&e.law)
					f.backoff = 0
				}
				h.roundDel, h.roundMark = 0, 0
				h.reduced = false
			}
		} else {
			// Parked on an RTO: the sender is silent but its in-network
			// volume keeps draining hop to hop, so the flow stays on the
			// active list purely as a drainer until its residue is gone.
			h.roundDel, h.roundMark = 0, 0
			h.reduced = false
			if e.residual(i) <= finishCrumb {
				e.retire(i)
				continue
			}
			keep = append(keep, i)
			continue
		}
		if h.unsent <= volEps && e.residual(i) <= finishCrumb {
			// Done: write the sub-packet crumb off instead of stepping the
			// flow until multiplicative draining grinds it below volEps.
			e.retire(i)
			continue
		}
		keep = append(keep, i)
	}
	e.activeList = keep

	e.recordCompletions(servedFinal, dt, stepEnd)
	e.smp.advance(stepEnd, e.qs[e.bneck].q)
	e.now = stepEnd

	if e.cfg.Check {
		for j := range e.qs {
			if q := e.qs[j].q; q < -1e-6 || q > e.qs[j].capPkts+1e-6 {
				return fmt.Errorf("flowsim: queue %s %.6f outside [0, %.0f] at %v",
					e.net.Queues[j].Name, q, e.qs[j].capPkts, e.now)
			}
		}
		if e.steps%4096 == 0 {
			if err := e.checkConservation(); err != nil {
				return err
			}
		}
	}
	return nil
}

// stepFlowStage processes record i's hop at stage s (at most one: paths
// are stage-monotonic): depart pro rata with mark attribution, admit this
// step's (post-drop) arrivals plus any cut-through share, and forward the
// departing volume to the next hop or deliver it. Per-member volumes move
// through the record's hops; only the queue-aggregate couplings
// (arrTotal, the sent counter) scale by the member count.
func (e *netEngine) stepFlowStage(i int32, s int) {
	path := e.paths[i]
	o := e.hot[i].off
	for h, j := range path {
		if e.net.Stage[j] != s {
			continue
		}
		qs := &e.qs[j]
		hs := &e.hops[o+int32(h)]
		b := hs.bk
		var d, dmTot float64
		if sf := qs.sFrac; sf > 0 && b > 0 {
			d = b * sf
			if d > b {
				d = b
			}
			dmOld := d * (hs.mk / b)
			if dmOld > hs.mk {
				dmOld = hs.mk
			}
			hs.bk = b - d
			hs.mk -= dmOld
			dmTot = dmOld + (d-dmOld)*qs.markNow
		}
		if a := hs.arr; a > 0 {
			am := hs.arrMk
			// Arriving unmarked volume picks up this queue's step mark
			// fraction on its eventual departure; the cut-through share
			// departs now and carries it immediately.
			if pf := qs.passFrac; pf > 0 {
				pass := a * pf
				passMk := am * pf
				passMk += (pass - passMk) * qs.markNow
				d += pass
				dmTot += passMk
				a -= pass
				am -= am * pf
			}
			hs.bk += a
			hs.mk += am
			if h == 0 {
				// Admit the full post-drop offer (cut-through share
				// included): it leaves the unsent pool and counts as sent.
				admitted := hs.arr
				u := e.hot[i].unsent - admitted
				if u < 0 {
					u = 0
				}
				e.hot[i].unsent = u
				e.sent += admitted * float64(e.mCnt[i])
			}
		}
		hs.arr = 0
		hs.arrMk = 0
		if d > 0 {
			if h+1 < len(path) {
				next := &e.hops[o+int32(h+1)]
				next.arr += d
				next.arrMk += dmTot
				e.qs[path[h+1]].arrTotal += d * float64(e.mCnt[i])
			} else {
				e.hot[i].deliv += d
				e.hot[i].delivMark += dmTot
			}
		}
		return
	}
}

// dropTailQueue removes overflow volume from this step's arrivals into
// queue j, latest release first, applying the per-victim loss reaction:
// too little left in flight for duplicate ACKs means a timeout stall with
// exponential RTO backoff; otherwise a fast-retransmit halving, at most
// once per RTT. Dropped volume returns to the victims' unsent pools
// (retransmission from the source), wherever along the path it was
// dropped. A cohort whose whole weighted offer is consumed reacts in
// place; the cohort the overflow runs out inside splits exactly into
// unaffected / partially-hit / fully-hit sub-cohorts (netSplitDrop), so
// aggregation never blurs who lost what — and since that terminal split
// exhausts the overflow, each call splits at most one cohort.
//
// Only releases whose unit crosses j can hold arrivals into it, so the
// walk runs backwards over j's victim index from the newest release
// already made; skipping the releases that never cross j leaves the
// visiting order of the others unchanged. An entry counts only when it is
// its unit's latest release and the unit offered arrivals this step;
// split descendants share their lineage's release entry and are visited
// newest sub-cohort first. Only active records hold arrivals, and a record
// whose lineage was released again fails the latest-release test, so an
// entry whose release has no active record (relLive) is skipped before
// any record is read: the victims, their order and every drop amount are
// those of the full walk.
func (e *netEngine) dropTailQueue(j int32, overflow float64, stepEnd sim.Time) {
	list := e.vic[e.vicOff[j]:e.vicOff[j+1]]
	released, _ := slices.BinarySearchFunc(list, int32(e.relPtr), func(v victim, rel int32) int {
		return cmp.Compare(v.rel, rel)
	})
	remaining := overflow
	for k := released - 1; k >= 0 && remaining > volEps; k-- {
		v := list[k]
		if e.relLive[v.rel] == 0 {
			continue
		}
		rel := e.releases[v.rel]
		h := int(v.hop)
		for i := rel.flow; i >= 0 && remaining > volEps; i = e.hot[i].lineNext {
			// The arrival test comes first: it reads the dense hop array,
			// where the release test reads the large per-record flowState.
			oh := e.hot[i].off + v.hop
			a := e.hops[oh].arr
			if a <= 0 || e.flows[i].lastRelease != rel.at {
				continue
			}
			avail := a * float64(e.mCnt[i])
			d := avail
			if d > remaining {
				d = remaining
			}
			if d >= avail {
				// Whole cohort consumed: every member loses its full offer.
				e.netDropHit(i, oh, h, j, a, stepEnd)
				remaining -= d
				continue
			}
			remaining -= e.netSplitDrop(i, oh, h, j, d, stepEnd)
		}
	}
}

// netDropHit removes dPer packets per member from record i's arrivals
// into queue j at hop h (hop array index oh), moves the aggregate counters
// by weight, and applies the loss reaction to every member at once
// (members share their in-flight state, so the duplicate-ACK test answers
// identically for all of them).
func (e *netEngine) netDropHit(i, oh int32, h int, j int32, dPer float64, stepEnd sim.Time) {
	hs := &e.hops[oh]
	a := hs.arr
	frac := dPer / a
	hs.arr = a - dPer
	dm := hs.arrMk * frac
	hs.arrMk -= dm
	total := dPer * float64(e.mCnt[i])
	e.qs[j].arrTotal -= total
	e.qs[j].dropped += total
	e.drops += total
	e.retxPkts += total
	if h == 0 {
		// A first-hop drop happens before admission: the volume never
		// left the unsent pool, so it is already queued for
		// retransmission — only the sender's transmit counter moves.
		e.sent += total
	} else {
		// A deeper-hop drop was admitted (and sent-counted) in an
		// earlier step; return it to the source for retransmission.
		e.hot[i].unsent += dPer
	}

	if e.hot[i].stallT > stepEnd {
		// The victim is already parked on an RTO: drops of its residual
		// in-network volume belong to the same loss event, so the volume
		// returns for retransmission but the timer does not back off
		// again (TCP backs off per timer expiry, not per lost packet).
		return
	}
	f := &e.flows[i]
	w := float64(e.mCnt[i])
	if e.lossInflight(i, e.net.Stage[j]) < e.cfg.DupAckPackets {
		// Not enough in flight to trigger fast retransmit: stall.
		e.timeouts += w
		f.ctrl.onTimeout(&e.law)
		e.hot[i].win = f.ctrl.window(&e.law)
		rto := e.cfg.MaxRTO
		if f.backoff < 16 {
			if r := e.cfg.MinRTO << uint(f.backoff); r < rto {
				rto = r
			}
		}
		f.backoff++
		at := stepEnd + rto
		if e.hot[i].parked {
			// Re-armed in the step its old deadline ends: its earlier wake
			// entries must read the new deadline, as they would from hot.
			for k := range e.wakes {
				if e.wakes[k].rec == i {
					e.wakes[k].at = at
				}
			}
			e.wakes.init()
		}
		e.hot[i].stallT = at
		e.hot[i].parked = true
		f.roundEnd = 0
		e.hot[i].roundDel, e.hot[i].roundMark = 0, 0
		e.hot[i].reduced = false
		e.parkSeq++
		e.wakes.push(stallEntry{rec: i, at: at, seq: e.parkSeq})
	} else if rttTime := sim.Time(e.hot[i].rttSec * 1e9); stepEnd-f.lastLoss >= rttTime {
		e.fastRetx += w
		f.ctrl.onLoss(&e.law)
		e.hot[i].win = f.ctrl.window(&e.law)
		f.lastLoss = stepEnd
	}
}

// netSplitDrop removes d (< the cohort's whole weighted offer) from record
// i's arrivals into queue j by splitting it exactly: kFull =
// floor(d/perMember) members lose their entire offer, at most one more
// loses the remainder, and the rest are untouched. The parent record keeps
// the head member span (the unaffected group when non-empty, else the
// partial victim); fully- and partially-hit groups split off as new
// records that inherit the parent's state and then take their own loss
// reaction — exactly the per-flow outcome, just batched. Returns the
// volume actually dropped (== d up to one float ulp of regrouping).
func (e *netEngine) netSplitDrop(i, oh int32, h int, j int32, d float64, stepEnd sim.Time) float64 {
	per := e.hops[oh].arr
	cnt := e.mCnt[i]
	kFull := int32(d / per)
	if kFull > cnt-1 {
		kFull = cnt - 1
	}
	dPart := d - float64(kFull)*per
	if dPart < 0 {
		dPart = 0
	}
	p := int32(0)
	if dPart > 0 {
		p = 1
	}
	if kFull == 0 && p == 0 {
		return 0
	}
	unaffected := cnt - kFull - p

	if unaffected == 0 && kFull == 0 {
		// Single member, partially hit: react in place, no split.
		e.netDropHit(i, oh, h, j, dPart, stepEnd)
		return dPart
	}

	e.splitsMade++
	off := e.mOff[i]
	if unaffected > 0 {
		// Parent keeps the unaffected head span untouched.
		e.mCnt[i] = unaffected
		if p > 0 {
			part := e.newNetCohort(i, off+unaffected, 1)
			e.netDropHit(part, e.hot[part].off+int32(h), h, j, dPart, stepEnd)
		}
		if kFull > 0 {
			full := e.newNetCohort(i, off+unaffected+p, kFull)
			fo := e.hot[full].off + int32(h)
			e.netDropHit(full, fo, h, j, e.hops[fo].arr, stepEnd)
		}
	} else {
		// Every member is hit (p == 1, kFull == cnt-1): the parent becomes
		// the partial victim and the full victims split off.
		full := e.newNetCohort(i, off+1, kFull)
		fo := e.hot[full].off + int32(h)
		e.netDropHit(full, fo, h, j, e.hops[fo].arr, stepEnd)
		e.mCnt[i] = 1
		e.netDropHit(i, oh, h, j, dPart, stepEnd)
	}
	return float64(kFull)*per + dPart
}

// newNetCohort splits the member span [off, off+cnt) out of record parent
// as a new record: per-flow state and the per-hop spans are copied
// (per-member semantics make the copy exact), the path slice header is
// shared, and the record joins the parent's lineage chain (so future
// releases reach it) and the active list (splits only happen to records
// with live arrivals), counted live under the parent's release. A child
// of a record parked on an RTO stays parked until the same deadline, with
// a wake entry of its own: once its in-network volume drains it retires,
// and only that wake sends what its members still hold unsent.
func (e *netEngine) newNetCohort(parent, off, cnt int32) int32 {
	ci := int32(len(e.flows))
	e.flows = append(e.flows, e.flows[parent])
	e.hot = append(e.hot, e.hot[parent])
	e.mOff = append(e.mOff, off)
	e.mCnt = append(e.mCnt, cnt)
	e.paths = append(e.paths, e.paths[parent])
	po := e.hot[parent].off
	c := &e.hot[ci]
	c.off = int32(len(e.hops))
	if c.parked {
		e.parkSeq++
		e.wakes.push(stallEntry{rec: ci, at: c.stallT, seq: e.parkSeq})
	}
	e.hot[parent].lineNext = ci
	e.hops = append(e.hops, e.hops[po:po+int32(len(e.paths[parent]))]...)
	e.flows[ci].active = true
	e.relLive[c.rel]++
	e.activeList = append(e.activeList, ci)
	return ci
}

// lossInflight estimates the drop victim's in-network volume after this
// step's departures — hops at stages not yet integrated still hold their
// start-of-step backlog, so their pending pro-rata departure is deducted
// — plus its not-yet-admitted arrivals.
func (e *netEngine) lossInflight(i int32, s int) float64 {
	hop := e.hops[e.hot[i].off:]
	var total float64
	for k, j := range e.paths[i] {
		b := hop[k].bk
		if e.net.Stage[j] >= s {
			b *= 1 - e.qs[j].sFrac
		}
		total += b + hop[k].arr
	}
	return total
}

// residual is the record's per-member in-network backlog.
func (e *netEngine) residual(i int32) float64 {
	hop := e.hops[e.hot[i].off:]
	var total float64
	for k := range e.paths[i] {
		total += hop[k].bk
	}
	return total
}

// writeOff retires a finished (or stalled-and-drained) flow's sub-packet
// residue: the crumbs leave their queues and count as delivered, sparing
// tens of steps of multiplicative decay, bounded by Flows x finishCrumb
// packets per burst. In the queues' lifetime totals a crumb departs its
// hop and passes every later one.
func (e *netEngine) writeOff(i int32) {
	hop := e.hops[e.hot[i].off:]
	w := float64(e.mCnt[i])
	var carry float64
	for k, j := range e.paths[i] {
		qs := &e.qs[j]
		qs.admitted += carry
		if b := hop[k].bk; b > 0 {
			qs.q -= b * w
			if qs.q < 0 {
				qs.q = 0
			}
			e.cumDelivered += b * w
			carry += b * w
			hop[k].bk = 0
			hop[k].mk = 0
		}
		qs.departed += carry
	}
	e.hot[i].ackPipe = 0
	e.hot[i].roundDel, e.hot[i].roundMark = 0, 0
	e.hot[i].reduced = false
}

// wakeDue reactivates stalled records whose RTO expired. It pops every
// due entry off the wake heap, which leaves them behind the heap in its
// backing array, and wakes them in parking order, so the active list grows
// as a scan of all parkings in order would grow it, and the cost follows
// the wakes instead of everything still parked.
func (e *netEngine) wakeDue() {
	n := len(e.wakes)
	for len(e.wakes) > 0 && e.wakes[0].at <= e.now {
		e.wakes.pop()
	}
	due := e.wakes[len(e.wakes):n]
	slices.SortFunc(due, func(a, b stallEntry) int { return cmp.Compare(a.seq, b.seq) })
	for _, st := range due {
		i := st.rec
		e.hot[i].stallT = 0
		e.hot[i].parked = false
		if e.hot[i].unsent > volEps || e.residual(i) > volEps {
			e.activate(i)
		}
	}
}

// recordCompletions detects burst completions on the end-to-end
// deliveries: burst b is done when the cumulative delivered volume reaches
// its target (per-flow demand cannot over-deliver, so the aggregate
// crossing implies every flow finished). The completion instant is
// interpolated within the step. A burst whose total falls short only by
// rounding completes when the network goes idle instead (see run).
func (e *netEngine) recordCompletions(served float64, dt, stepEnd sim.Time) {
	for e.burstsDone < e.cfg.Bursts && e.burstReleased() {
		target := float64(e.burstsDone+1) * float64(e.cfg.flows) * e.segs
		if e.cumDelivered < target-e.crumbEps {
			break
		}
		t := stepEnd
		if served > 0 {
			over := e.cumDelivered - target
			if over < 0 {
				over = 0
			}
			if over > served {
				over = served
			}
			t = stepEnd - sim.Time(over/served*float64(dt))
		}
		e.completeBurst(t)
	}
}

// burstReleased reports whether every flow of the next burst to complete
// has been released.
func (e *netEngine) burstReleased() bool {
	return e.releasedFlows >= float64((e.burstsDone+1)*e.cfg.flows)
}

// completeBurst records the next burst as completed at t; half a base RTT
// approximates the final ACK's return path.
func (e *netEngine) completeBurst(t sim.Time) {
	start := sim.Time(e.burstsDone) * e.cfg.Interval
	e.bcts = append(e.bcts, t+e.cfg.baseRTT/2-start)
	e.burstsDone++
}

// checkStranded returns an error when the idle network still has records
// holding unsent volume: nothing is active or due to wake that could send
// it, so completing the burst would count volume never delivered.
func (e *netEngine) checkStranded() error {
	first, n := -1, 0
	var vol float64
	for i := range e.hot {
		if u := e.hot[i].unsent; u > volEps {
			if first < 0 {
				first = i
			}
			n++
			vol += u * float64(e.mCnt[i])
		}
	}
	if n == 0 {
		return nil
	}
	h := &e.hot[first]
	return fmt.Errorf("flowsim: network idle at %v with %d records holding %.1f unsent packets that nothing will send (first: record %d, stalled until %v, backoff %d, parked %t)",
		e.now, n, vol, first, h.stallT, e.flows[first].backoff, h.parked)
}

// checkConservation verifies released volume against delivered + unsent +
// queued, and each queue's aggregate against the per-flow backlogs; with
// Config.Check it also verifies the run-phase indexes (checkIndexes).
func (e *netEngine) checkConservation() error {
	var unsent, backlog float64
	perQueue := make([]float64, len(e.qs))
	for i := range e.flows {
		w := float64(e.mCnt[i])
		unsent += e.hot[i].unsent * w
		hop := e.hops[e.hot[i].off:]
		for k, j := range e.paths[i] {
			b := hop[k].bk * w
			backlog += b
			perQueue[j] += b
		}
	}
	released := e.releasedFlows * e.segs
	tol := 1e-6*released + float64(e.cfg.flows)*(volEps*10+finishCrumb) + 1e-3
	if diff := math.Abs(released - (e.cumDelivered + unsent + backlog)); diff > tol {
		return fmt.Errorf("flowsim: network volume conservation violated at %v: released %.3f != delivered %.3f + unsent %.3f + queued %.3f (diff %.6f)",
			e.now, released, e.cumDelivered, unsent, backlog, diff)
	}
	for j := range e.qs {
		if diff := math.Abs(perQueue[j] - e.qs[j].q); diff > 1e-3+1e-6*e.qs[j].capPkts {
			return fmt.Errorf("flowsim: queue %s accounting violated at %v: aggregate %.6f vs per-flow sum %.6f",
				e.net.Queues[j].Name, e.now, e.qs[j].q, perQueue[j])
		}
	}
	if e.cfg.Check {
		return e.checkIndexes()
	}
	return nil
}

// checkIndexes verifies the indexes the run phase keeps against recounts:
// the active flags against the active list, relLive against a count of the
// active list by release, that no inactive record holds arrivals at any
// hop, and that the wake heap is a heap holding exactly the parked
// records' entries, each at its record's stall deadline.
func (e *netEngine) checkIndexes() error {
	live := make([]int32, len(e.relLive))
	for _, i := range e.activeList {
		if !e.flows[i].active {
			return fmt.Errorf("flowsim: record %d is on the active list but not flagged active at %v", i, e.now)
		}
		live[e.hot[i].rel]++
	}
	for r, n := range live {
		if e.relLive[r] != n {
			return fmt.Errorf("flowsim: release %d has %d live records by its count, %d on the active list at %v",
				r, e.relLive[r], n, e.now)
		}
	}
	entries := make([]int32, len(e.hot))
	for k := range e.wakes {
		st := &e.wakes[k]
		if h := &e.hot[st.rec]; !h.parked || st.at != h.stallT {
			return fmt.Errorf("flowsim: wake entry for record %d at %v, but the record is parked=%t until %v (at %v)",
				st.rec, st.at, h.parked, h.stallT, e.now)
		}
		if k > 0 && st.before(&e.wakes[(k-1)/2]) {
			return fmt.Errorf("flowsim: wake heap out of order at entry %d (at %v)", k, e.now)
		}
		entries[st.rec]++
	}
	var active int
	for i := range e.flows {
		if e.hot[i].parked && entries[i] == 0 {
			return fmt.Errorf("flowsim: record %d is parked until %v with no wake entry (at %v)", i, e.hot[i].stallT, e.now)
		}
		if e.flows[i].active {
			active++
			continue
		}
		hop := e.hops[e.hot[i].off:]
		for k := range e.paths[i] {
			if hop[k].arr != 0 || hop[k].arrMk != 0 {
				return fmt.Errorf("flowsim: inactive record %d holds %.6f arrivals at hop %d (at %v)", i, hop[k].arr, k, e.now)
			}
		}
	}
	if active != len(e.activeList) {
		return fmt.Errorf("flowsim: %d records flagged active, %d on the active list at %v", active, len(e.activeList), e.now)
	}
	return nil
}

// finish assembles the Result.
func (e *netEngine) finish() (*Result, error) {
	cfg := e.cfg
	if err := e.checkConservation(); err != nil {
		return nil, err
	}
	b := e.net.Queues[e.bneck]
	r := &Result{
		Flows:         cfg.flows,
		AlgName:       cfg.CC.Name,
		QueueCapacity: b.CapacityPackets,
		ECNThreshold:  b.ECNThresholdPackets,
		Steps:         e.steps,
		SimNow:        e.now,
	}

	e.smp.win.Fold(&r.Measured)
	r.Lifetime.BCTs = append([]sim.Time(nil), e.bcts...)
	r.SummarizeBCTs(r.Lifetime.BCTs)

	round := func(v float64) int64 { return int64(math.Round(v)) }
	r.Timeouts = round(e.timeouts - e.baseTimeouts)
	r.FastRetransmits = round(e.fastRetx - e.baseFastRetx)
	r.RetransmitPackets = round(e.retxPkts - e.baseRetxPkts)
	r.Drops = round(e.drops - e.baseDrops)
	r.Marks = round(e.marks - e.baseMarks)
	r.SentPackets = round(e.sent - e.baseSent)
	r.DeliveredPackets = round(e.cumDelivered - e.baseDelivered)
	r.Lifetime.Timeouts = round(e.timeouts)
	r.Lifetime.FastRetransmits = round(e.fastRetx)
	r.Lifetime.RetransmitPackets = round(e.retxPkts)
	r.Lifetime.Marks = round(e.marks)
	r.Lifetime.SentPackets = round(e.sent)
	r.Lifetime.DeliveredPackets = round(e.cumDelivered)
	r.Lifetime.Queues = make([]QueueTotals, len(e.qs))
	for j := range e.qs {
		q := &e.qs[j]
		r.Lifetime.Queues[j] = QueueTotals{
			Name:     e.net.Queues[j].Name,
			Admitted: round(q.admitted),
			Dropped:  round(q.dropped),
			Marked:   round(q.marked),
			Departed: round(q.departed),
			Peak:     q.peak,
		}
	}
	// End state stays per record: every member shares its record's
	// controller, and the member spans say which flows those are. A
	// cohort run's member list is expanded from the path set on demand.
	m := len(e.flows)
	r.Final = EndState{Win: make([]float64, m), Off: e.mOff, Cnt: e.mCnt}
	if e.cfg.cohortEnabled() {
		r.Final.net = e.net
	}
	alphas := e.law.kind == KindDCTCP
	if alphas {
		r.Final.Alpha = make([]float64, m)
	}
	for i := range e.flows {
		r.CwndUpdates += e.flows[i].ctrl.updates * int64(e.mCnt[i])
		r.Final.Win[i] = e.flows[i].ctrl.window(&e.law)
		if alphas {
			r.Final.Alpha[i] = e.flows[i].ctrl.alpha
		}
	}
	r.Cohorts = len(e.mCnt)
	r.CohortSplits = e.splitsMade
	r.PeakCohortWeight = e.peakW
	return r, nil
}
