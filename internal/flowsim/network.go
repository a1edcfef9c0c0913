package flowsim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"incastlab/internal/netsim"
	"incastlab/internal/sim"
	"incastlab/internal/stats"
)

// This file is the fluid solver. Every flow traverses an ordered list of
// port queues (netsim.FluidPaths — the backend-neutral path model the
// packet Clos builder shares), each queue integrates its own backlog, ECN
// marking, and tail drops per step, and flows are coupled through min-rate
// allocation along their paths — a flow's throughput is implicitly the
// minimum of its per-hop pro-rata service rates, because any hop serving
// slower than the hops upstream accumulates the flow's backlog and
// throttles what reaches the hops downstream.
//
// The paper's dumbbell is the one-queue instance (SingleQueue) and runs
// through the same integrator. At a terminal hop — the only hop a
// dumbbell has — each step serves the start-of-step backlog before it
// admits new arrivals, marks with a rackmodel-style fraction, tail-drops
// the newest releases first, and parks loss victims on RTO stalls.
//
// Transit hops (leaf uplinks, spine downlinks — every queue that is never
// a path's terminal) additionally cut through: arrivals that fit in the
// hop's spare service this step are forwarded immediately instead of
// waiting a step, so an idle 100G fabric hop adds (near) zero latency and
// the effective RTT of a cross-rack flow stays at its base RTT plus real
// queueing. The terminal hop never cuts through, keeping its
// serve-then-admit contract intact.

// NetworkConfig describes one fluid run over a queue network. The
// embedded Config supplies the workload (flows, demand, bursts, jitter,
// seed), transport (RTO bounds, dup-ACK threshold, CC law), and
// integration knobs; its single-bottleneck fields (LineRateBps as the
// host NIC injection cap aside) are superseded by the per-queue rates and
// bounds in Net. Config.BaseRTT seeds the CC defaults (Swift's target
// delay); each flow's base RTT is its path class's Net.BaseRTT.
type NetworkConfig struct {
	Config

	// Net is the queue network and each flow's path class, typically
	// built by netsim.ClosConfig.FluidPaths so the ECMP spine choice
	// matches the packet backend flow for flow.
	Net *netsim.FluidPaths
}

// RunNetwork executes the fluid simulation over the queue network.
func RunNetwork(cfg NetworkConfig) (*Result, error) {
	if err := cfg.prepare(); err != nil {
		return nil, err
	}
	e, err := newNetEngine(cfg, buildPlan(&cfg.Config, cfg.Net))
	if err != nil {
		return nil, err
	}
	defer e.release()
	if err := e.run(); err != nil {
		return nil, err
	}
	return e.finish()
}

// prepare validates the network, checks it against the workload, and
// folds the bottleneck queue's parameters into the embedded Config so
// sampling, classification, and the Result echo describe the queue under
// study.
func (cfg *NetworkConfig) prepare() error {
	if cfg.Net == nil {
		return fmt.Errorf("flowsim: network run needs a queue network (NetworkConfig.Net)")
	}
	if err := cfg.Net.Validate(); err != nil {
		return err
	}
	if cfg.Flows != len(cfg.Net.Class) {
		return fmt.Errorf("flowsim: %d flows but the network assigns %d flows to path classes", cfg.Flows, len(cfg.Net.Class))
	}
	b := cfg.Net.Queues[cfg.Net.Bottleneck]
	cfg.QueueCapacityPackets = b.CapacityPackets
	cfg.ECNThresholdPackets = b.ECNThresholdPackets
	if cfg.BaseRTT <= 0 {
		// Default the CC base RTT to the slowest path class's, the
		// conservative choice for Swift's target delay.
		for _, rtt := range cfg.Net.BaseRTT {
			if rtt > cfg.BaseRTT {
				cfg.BaseRTT = rtt
			}
		}
	}
	return cfg.fill()
}

// SingleQueue wraps a single-bottleneck Config as its one-queue network:
// one queue at LineRateBps with the Config's capacity and ECN threshold,
// which every flow crosses alone at the Config's base RTT. That is one
// path class, so the build costs the same few allocations at any incast
// degree.
func SingleQueue(cfg Config) (NetworkConfig, error) {
	if err := cfg.fill(); err != nil {
		return NetworkConfig{}, err
	}
	net := &netsim.FluidPaths{
		Queues: []netsim.FluidQueue{{
			Name:                "bottleneck",
			RateBps:             cfg.LineRateBps,
			CapacityPackets:     cfg.QueueCapacityPackets,
			ECNThresholdPackets: cfg.ECNThresholdPackets,
		}},
		Paths:   [][]int32{{0}},
		BaseRTT: []sim.Time{cfg.BaseRTT},
		Class:   make([]int32, cfg.Flows),
		Stage:   []int{0},
	}
	return NetworkConfig{Config: cfg, Net: net}, nil
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
	reduced  bool
	// parked is set while the record has entries on the stalled list.
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

	// Cohort bookkeeping (see cohort.go): record i stands for mCnt[i]
	// identical flows (member IDs perm[mOff[i]:mOff[i]+mCnt[i]]); all
	// per-record flow state is PER MEMBER and aggregate couplings at queue
	// boundaries scale by the count. paths[i] is the record's shared
	// ordered queue path (every member of a path class traverses the same
	// queues by construction). Per-flow runs are the degenerate instance:
	// every count 1, every lineage chain a single node.
	perm       []int32
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

	// stalled lists records parked on an RTO, in parking order; nextWake
	// caches the earliest wake time.
	stalled  []stallEntry
	nextWake sim.Time

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

	// timeRounds is true when the law closes rounds on elapsed RTT (Swift)
	// instead of delivered volume; uniform across flows, hoisted out of
	// the hot loop.
	timeRounds bool
	steps      uint64

	smp sampler

	// scratch is the pooled backing-array bundle this run borrowed; see
	// netscratch.go.
	scratch *netScratch
}

func newNetEngine(cfg NetworkConfig, plan cohortPlan) (*netEngine, error) {
	n := cfg.Flows
	m := plan.cohorts()
	releases, err := buildReleases(cfg.Config, m)
	if err != nil {
		return nil, err
	}
	net := cfg.Net
	nq := len(net.Queues)
	e := &netEngine{
		cfg:        cfg.Config,
		net:        net,
		perm:       plan.perm,
		mOff:       plan.off,
		mCnt:       plan.cnt,
		nicRate:    EffectivePacketRate(cfg.LineRateBps),
		bneck:      net.Bottleneck,
		segs:       float64(cfg.SegmentsPerFlow),
		crumbEps:   float64(n)*volEps*4 + 1e-9,
		nextWake:   math.MaxInt64,
		timeRounds: cfg.CC.Kind == KindSwift,
		releases:   releases,
		bcts:       make([]sim.Time, 0, cfg.Bursts),
	}
	// Every member of a record shares its representative's path class.
	classOf := func(i int) int32 { return net.Class[plan.perm[plan.off[i]]] }
	var totalHops int32
	for i := 0; i < m; i++ {
		totalHops += int32(len(net.Paths[classOf(i)]))
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
		c := classOf(i)
		path := net.Paths[c]
		e.paths[i] = path
		e.qs[path[len(path)-1]].transit = false // a terminal hop never cuts through
		e.flows[i].ctrl = newController(cfg.CC)
		e.flows[i].lastLoss = math.MinInt64 / 2
		h := &e.hot[i]
		h.win = e.flows[i].ctrl.window()
		h.baseSec = float64(net.BaseRTT[c]) / 1e9
		h.off = hops
		h.lineNext = -1
		hops += int32(len(path))
		e.minBaseSec = min(e.minBaseSec, h.baseSec)
		e.peakW = max(e.peakW, float64(e.mCnt[i]))
	}
	e.buildVictimIndex()

	first := 1
	if cfg.Bursts == 1 {
		first = 0
	}
	e.smp = newSampler(cfg.Config, first)
	return e, nil
}

// stallEntry is one stalled-list entry: a record parked on an RTO and its
// wake deadline. The deadline always equals the record's hot stallT: a
// record re-armed before its wake is processed has every entry updated.
type stallEntry struct {
	rec int32
	at  sim.Time
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
		e.activeList = append(e.activeList, i)
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
	deadline := sim.Time(cfg.Bursts)*cfg.Interval + cfg.Horizon
	measuredStart := e.smp.measuredStart()
	totalDemand := float64(cfg.Flows) * e.segs * float64(cfg.Bursts)
	bneck := &e.qs[e.bneck]

	for e.now < deadline {
		// Each release record covers its unit's whole lineage: the original
		// record plus any split-off descendants.
		for e.relPtr < len(e.releases) && e.releases[e.relPtr].at <= e.now {
			r := e.releases[e.relPtr]
			for ci := r.flow; ci >= 0; ci = e.hot[ci].lineNext {
				e.hot[ci].unsent += e.segs
				e.flows[ci].lastRelease = r.at
				e.releasedFlows += float64(e.mCnt[ci])
				if e.hot[ci].stallT <= e.now {
					e.activate(ci)
				}
			}
			e.relPtr++
		}
		if !e.baseTaken && e.now >= measuredStart {
			e.baseTaken = true
			e.baseTimeouts, e.baseFastRetx, e.baseRetxPkts = e.timeouts, e.fastRetx, e.retxPkts
			e.baseDrops, e.baseMarks, e.baseSent = e.drops, e.marks, e.sent
			e.baseDelivered = e.cumDelivered
		}
		if len(e.activeList) == 0 && len(e.stalled) == 0 && e.queued() <= e.crumbEps {
			// Fully idle: every released flow has finished, so every burst
			// whose flows have all been released is complete, whatever
			// rounding residue the delivered total carries.
			for e.burstsDone < cfg.Bursts && e.burstReleased() {
				e.completeBurst(e.now)
			}
			if e.burstsDone == cfg.Bursts {
				return nil
			}
		}

		if len(e.stalled) > 0 && e.nextWake <= e.now {
			e.wakeDue()
			continue
		}

		// Next hard boundary: burst release, RTO wake, or the opening of
		// the measured window.
		next := deadline
		if e.relPtr < len(e.releases) && e.releases[e.relPtr].at < next {
			next = e.releases[e.relPtr].at
		}
		if len(e.stalled) > 0 && e.nextWake < next {
			next = e.nextWake
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
		if dt < cfg.MinStep {
			dt = cfg.MinStep
		}
		if dt > cfg.MaxStep {
			dt = cfg.MaxStep
		}
		// Snap to the boundary, but never below MinStep: boundaries are
		// honored at MinStep resolution. Chasing each of a burst's jittered
		// release instants exactly would mean one sub-microsecond step per
		// flow; landing up to MinStep late batches releases instead, and the
		// release loop processes everything due regardless.
		if e.now+dt > next && next-e.now >= cfg.MinStep {
			dt = next - e.now
		}
		if err := e.step(dt); err != nil {
			return err
		}
	}
	return fmt.Errorf("flowsim: %d-flow network run did not complete by %v (delivered %.0f of %.0f packets)",
		cfg.Flows, deadline, e.cumDelivered, totalDemand)
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
					f.ctrl.onMarkCut()
					h.win = f.ctrl.window()
				}
			}
		}
		if h.stallT <= e.now {
			// Close the observation round: the DCTCP family closes after
			// one window of data is delivered (packet DCTCP's nextSeq
			// semantics); Swift closes once per RTT.
			var closes bool
			if e.timeRounds {
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
					f.ctrl.onRoundEnd(h.roundDel, h.roundMark, h.rttSec)
					h.win = f.ctrl.window()
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
				e.writeOff(i)
				e.flows[i].active = false
				continue
			}
			keep = append(keep, i)
			continue
		}
		if h.unsent <= volEps && e.residual(i) <= finishCrumb {
			// Done: write the sub-packet crumb off instead of stepping the
			// flow until multiplicative draining grinds it below volEps.
			e.writeOff(i)
			e.flows[i].active = false
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
// newest sub-cohort first.
func (e *netEngine) dropTailQueue(j int32, overflow float64, stepEnd sim.Time) {
	list := e.vic[e.vicOff[j]:e.vicOff[j+1]]
	released, _ := slices.BinarySearchFunc(list, int32(e.relPtr), func(v victim, rel int32) int {
		return cmp.Compare(v.rel, rel)
	})
	remaining := overflow
	for k := released - 1; k >= 0 && remaining > volEps; k-- {
		v := list[k]
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
		f.ctrl.onTimeout()
		e.hot[i].win = f.ctrl.window()
		rto := e.cfg.MaxRTO
		if f.backoff < 16 {
			if r := e.cfg.MinRTO << uint(f.backoff); r < rto {
				rto = r
			}
		}
		f.backoff++
		at := stepEnd + rto
		if e.hot[i].parked {
			// Re-armed in the step its old deadline ends: its earlier stalled
			// entries must read the new deadline, as they would from hot.
			for k := range e.stalled {
				if e.stalled[k].rec == i {
					e.stalled[k].at = at
				}
			}
		}
		e.hot[i].stallT = at
		e.hot[i].parked = true
		f.roundEnd = 0
		e.hot[i].roundDel, e.hot[i].roundMark = 0, 0
		e.hot[i].reduced = false
		e.stalled = append(e.stalled, stallEntry{rec: i, at: at})
		if at < e.nextWake {
			e.nextWake = at
		}
	} else if rttTime := sim.Time(e.hot[i].rttSec * 1e9); stepEnd-f.lastLoss >= rttTime {
		e.fastRetx += w
		f.ctrl.onLoss()
		e.hot[i].win = f.ctrl.window()
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
// with live arrivals).
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
	c.parked = false // the child has no stalled-list entries
	e.hot[parent].lineNext = ci
	e.hops = append(e.hops, e.hops[po:po+int32(len(e.paths[parent]))]...)
	e.flows[ci].active = true
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
// packets per burst.
func (e *netEngine) writeOff(i int32) {
	hop := e.hops[e.hot[i].off:]
	w := float64(e.mCnt[i])
	for k, j := range e.paths[i] {
		if b := hop[k].bk; b > 0 {
			qs := &e.qs[j]
			qs.q -= b * w
			if qs.q < 0 {
				qs.q = 0
			}
			e.cumDelivered += b * w
			hop[k].bk = 0
			hop[k].mk = 0
		}
	}
	e.hot[i].ackPipe = 0
	e.hot[i].roundDel, e.hot[i].roundMark = 0, 0
	e.hot[i].reduced = false
}

// wakeDue reactivates stalled flows whose RTO expired, in stalled-list
// order. Each entry carries its record's wake deadline, so the scan
// streams one dense list instead of touching every stalled record.
func (e *netEngine) wakeDue() {
	keep := e.stalled[:0]
	e.nextWake = math.MaxInt64
	for _, st := range e.stalled {
		if st.at > e.now {
			keep = append(keep, st)
			if st.at < e.nextWake {
				e.nextWake = st.at
			}
			continue
		}
		i := st.rec
		e.hot[i].stallT = 0
		e.hot[i].parked = false
		if e.hot[i].unsent > volEps || e.residual(i) > volEps {
			e.activate(i)
		}
	}
	e.stalled = keep
}

// recordCompletions detects burst completions on the end-to-end
// deliveries: burst b is done when the cumulative delivered volume reaches
// its target (per-flow demand cannot over-deliver, so the aggregate
// crossing implies every flow finished). The completion instant is
// interpolated within the step. A burst whose total falls short only by
// rounding completes when the network goes idle instead (see run).
func (e *netEngine) recordCompletions(served float64, dt, stepEnd sim.Time) {
	for e.burstsDone < e.cfg.Bursts && e.burstReleased() {
		target := float64(e.burstsDone+1) * float64(e.cfg.Flows) * e.segs
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
	return e.releasedFlows >= float64((e.burstsDone+1)*e.cfg.Flows)
}

// completeBurst records the next burst as completed at t; half a base RTT
// approximates the final ACK's return path.
func (e *netEngine) completeBurst(t sim.Time) {
	start := sim.Time(e.burstsDone) * e.cfg.Interval
	e.bcts = append(e.bcts, t+e.cfg.BaseRTT/2-start)
	e.burstsDone++
}

// checkConservation verifies released volume against delivered + unsent +
// queued, and each queue's aggregate against the per-flow backlogs.
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
	tol := 1e-6*released + float64(e.cfg.Flows)*(volEps*10+finishCrumb) + 1e-3
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
	return nil
}

// finish assembles the Result.
func (e *netEngine) finish() (*Result, error) {
	cfg := e.cfg
	if err := e.checkConservation(); err != nil {
		return nil, err
	}
	r := &Result{
		Flows:         cfg.Flows,
		AlgName:       cfg.CC.Name,
		QueueCapacity: cfg.QueueCapacityPackets,
		ECNThreshold:  cfg.ECNThresholdPackets,
		Steps:         e.steps,
		SimNow:        e.now,
	}

	avg := stats.NewSeries(0, int64(cfg.SampleInterval), e.smp.perBurst)
	copy(avg.Values, e.smp.avg)
	avg.Scale(1 / float64(e.smp.measured))
	r.AvgQueue = avg
	r.MaxQueue = e.smp.maxQ
	if e.smp.busy > 0 {
		r.FracBelowK = float64(e.smp.belowK) / float64(e.smp.busy)
	}
	spikeSamples := int(2 * sim.Millisecond / cfg.SampleInterval)
	for i := 0; i < spikeSamples && i < len(avg.Values); i++ {
		if avg.Values[i] > r.SpikePackets {
			r.SpikePackets = avg.Values[i]
		}
	}

	var bctSum sim.Time
	measured := e.bcts[e.smp.first:]
	r.BCTs = append(r.BCTs, measured...)
	for _, b := range measured {
		bctSum += b
		if b > r.MaxBCT {
			r.MaxBCT = b
		}
	}
	r.MeanBCT = bctSum / sim.Time(len(measured))

	round := func(v float64) int64 { return int64(math.Round(v)) }
	r.Timeouts = round(e.timeouts - e.baseTimeouts)
	r.FastRetransmits = round(e.fastRetx - e.baseFastRetx)
	r.RetransmitPackets = round(e.retxPkts - e.baseRetxPkts)
	r.Drops = round(e.drops - e.baseDrops)
	r.Marks = round(e.marks - e.baseMarks)
	r.SentPackets = round(e.sent - e.baseSent)
	r.DeliveredPackets = round(e.cumDelivered - e.baseDelivered)
	// Per-flow end-state: every member of a record shares its controller,
	// so each member gets the record's window (and alpha), written at the
	// member's flow ID so the histograms match per-flow runs flow for flow.
	r.FinalCwndPkts = make([]float64, cfg.Flows)
	alphas := e.flows[0].ctrl.kind == KindDCTCP
	if alphas {
		r.FinalAlphas = make([]float64, cfg.Flows)
	}
	for i := range e.flows {
		cnt := int64(e.mCnt[i])
		r.CwndUpdates += e.flows[i].ctrl.updates * cnt
		win := e.flows[i].ctrl.window()
		for _, m := range e.perm[e.mOff[i] : e.mOff[i]+e.mCnt[i]] {
			r.FinalCwndPkts[m] = win
			if alphas {
				r.FinalAlphas[m] = e.flows[i].ctrl.alpha
			}
		}
	}
	r.Cohorts = len(e.mCnt)
	r.CohortSplits = e.splitsMade
	r.PeakCohortWeight = e.peakW
	return r, nil
}
