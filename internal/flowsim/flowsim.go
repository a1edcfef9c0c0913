// Package flowsim is the flow-level fast path: a fluid approximation of
// incast traffic over a network of port queues that advances in adaptive
// per-interval steps instead of per-packet events. Flows carry residual
// demand in packets and send at a cwnd-derived rate w/RTT; every queue's
// backlog, ECN marking, and tail drops evolve analytically per step;
// reduced-form DCTCP/Reno/Swift laws (plus the Guardrail cap and D2TCP's
// deadline exponent) update once per RTT round; and RTO timeouts are
// modeled as flow stalls with exponential backoff so Mode-3
// (timeout-dominated) incasts are representable.
//
// There is one solver and one entry point, Run (network.go): a Config's
// workload, transport and integration knobs over a path set
// (netsim.FluidPaths), which says everything about the network: every
// queue, every flow's path, and so the flow count, the bottleneck and the
// base RTTs. The paper's dumbbell is its one-queue instance
// (netsim.DumbbellConfig.FluidPaths), and a Clos fabric's per-port queues
// come from netsim.ClosConfig.FluidPaths.
//
// Rate contract: like internal/audit/diff.go, each queue drains at the
// effective IP-byte rate RateBps x MTU/(MTU+EthernetOverhead)
// (= x1500/1538) because the wire serializes 38 B of Ethernet framing per
// MTU packet that queue accounting never sees. One flowsim "packet" is one
// MSS of payload occupying one MTU-sized queue slot, exactly as in
// internal/netsim.
//
// The solver trades packet-level microstructure for speed: it reproduces
// the paper's mode classification, standing-queue levels, and BCT scale at
// a small fraction of the event simulator's cost (BenchmarkFlowsimFig5
// against BenchmarkFig5DCTCPModes). internal/audit's closed-loop gate
// (gate_test.go) pins the agreement, running both fidelities through
// core.RunIncastSim.
package flowsim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"incastlab/internal/netsim"
	"incastlab/internal/sim"
)

// Config describes one fluid incast run over a path set: the workload,
// the transport and the integration knobs. The shape mirrors the packet
// simulator's core.SimConfig so the core layer can lower one into the
// other; zero values take the paper defaults. The path set Run takes
// says the rest: the flow count, every queue and every base RTT.
type Config struct {
	// SegmentsPerFlow is the per-flow, per-burst demand in MSS segments
	// (= queue packets). Use workload.BytesPerFlowFor(...)/netsim.MSS to
	// match the packet simulator's demand sizing.
	SegmentsPerFlow int64
	// Bursts is the total burst count; the first is discarded from
	// measurements as a slow-start transient (unless it is the only one).
	Bursts int
	// Interval is the burst start-to-start spacing (default 250 ms).
	Interval sim.Time
	// JitterMax jitters each flow's start within a burst uniformly in
	// [0, JitterMax] (default 100 us).
	JitterMax sim.Time
	// Seed drives the jitter RNG (default 1).
	Seed uint64

	// LineRateBps is the host NIC line rate, which caps every sender's
	// injection (default 10 Gbps); every queue's rate comes from the path
	// set.
	LineRateBps int64
	// MinRTO and MaxRTO bound the stall length after a timeout-class loss;
	// consecutive timeouts back off exponentially between them (defaults
	// 200 ms and 2 s, the transport defaults).
	MinRTO, MaxRTO sim.Time
	// DupAckPackets is the in-flight volume below which a loss cannot
	// gather enough duplicate ACKs for fast retransmit and becomes a
	// stall instead (default 3, the dup-ACK threshold).
	DupAckPackets float64

	// CC parameterizes the per-flow reduced-form controller.
	CC CCConfig

	// Aggregation selects how flows are integrated: "perflow" (one record
	// per flow, the exact integration), "cohort" (equivalence classes of
	// identical flows integrate as weighted records; see cohort.go), or
	// "auto"/"" (cohorts from AutoCohortMinFlows up).
	Aggregation string

	// cohortBuckets overrides the per-class jitter bucket count (tests
	// only; 0 means defaultCohortBuckets).
	cohortBuckets int

	// SampleInterval and SampleWindow control queue sampling per burst
	// (defaults 100 us and demand drain time + 5 ms, capped at Interval),
	// mirroring the packet simulator's series.
	SampleInterval sim.Time
	SampleWindow   sim.Time

	// minStep and maxStep override the bounds of the adaptive fluid step
	// (tests only; 0 means defaultMinStep and defaultMaxStep).
	minStep, maxStep sim.Time

	// Check enables per-step invariant checking (queue bounds, per-flow
	// volume conservation); violations surface as errors. The closing
	// conservation check always runs.
	Check bool

	// flows and baseRTT are read from the path set by fill: its flow
	// count, and its slowest class's base RTT, the conservative choice
	// for the CC defaults (Swift's target delay) and the final ACK's
	// return that every BCT adds.
	flows   int
	baseRTT sim.Time
}

// fill validates the path set, reads the flow count and base RTT from
// it, and applies the defaults.
func (c *Config) fill(net *netsim.FluidPaths) error {
	if net == nil {
		return fmt.Errorf("flowsim: a run needs a path set")
	}
	if err := net.Validate(); err != nil {
		return err
	}
	c.flows = net.Flows()
	if c.flows <= 0 {
		return fmt.Errorf("flowsim: the path set needs at least one flow")
	}
	c.baseRTT = slices.Max(net.BaseRTT)
	if c.SegmentsPerFlow <= 0 {
		return fmt.Errorf("flowsim: config needs positive per-flow demand")
	}
	if c.Bursts <= 0 {
		c.Bursts = 11
	}
	if c.Interval <= 0 {
		c.Interval = 250 * sim.Millisecond
	}
	if c.JitterMax < 0 {
		return fmt.Errorf("flowsim: jitter must be non-negative")
	}
	if c.JitterMax == 0 {
		c.JitterMax = 100 * sim.Microsecond
	}
	if err := CheckJitter(c.JitterMax, c.Interval); err != nil {
		return err
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.LineRateBps <= 0 {
		c.LineRateBps = 10 * netsim.Gbps
	}
	if c.MinRTO <= 0 {
		c.MinRTO = 200 * sim.Millisecond
	}
	if c.MaxRTO <= 0 {
		c.MaxRTO = 2 * sim.Second
	}
	if c.MaxRTO < c.MinRTO {
		c.MaxRTO = c.MinRTO
	}
	if c.DupAckPackets <= 0 {
		c.DupAckPackets = 3
	}
	if err := CheckAggregation(c.Aggregation, c.flows); err != nil {
		return err
	}
	c.CC.fill(c.baseRTT)
	if c.SampleInterval <= 0 {
		c.SampleInterval = 100 * sim.Microsecond
	}
	if c.SampleWindow <= 0 {
		drainSec := float64(c.SegmentsPerFlow) * float64(c.flows) / EffectivePacketRate(c.LineRateBps)
		c.SampleWindow = sim.Time(drainSec*1e9) + 5*sim.Millisecond
	}
	// A single monotonically advancing sample cursor requires windows not
	// to overlap the next burst's.
	if c.SampleWindow > c.Interval {
		c.SampleWindow = c.Interval
	}
	if c.minStep <= 0 {
		c.minStep = defaultMinStep
	}
	if c.maxStep <= 0 {
		c.maxStep = defaultMaxStep
	}
	if c.maxStep < c.minStep {
		c.maxStep = c.minStep
	}
	return nil
}

// CheckJitter reports whether a start-jitter ceiling fits the burst
// interval: the release schedule needs every flow of a burst released
// before the next burst starts.
func CheckJitter(jitter, interval sim.Time) error {
	if jitter >= interval {
		return fmt.Errorf("flowsim: jitter %v must stay below the burst interval %v", jitter, interval)
	}
	return nil
}

// Result aggregates a fluid run: the Section 4 summary of its measured
// bursts, which the packet backend's result carries too, and the solver's
// own totals.
type Result struct {
	Flows   int
	AlgName string

	// Measured is the Section 4 summary over the measured bursts, filled
	// by the same Window and BCT summary as the packet backend's.
	Measured
	// DeliveredPackets is the measured-window goodput in packets.
	DeliveredPackets int64

	// CwndUpdates counts controller updates across all flows (whole run),
	// feeding the same obs metric as the packet algorithms.
	CwndUpdates int64
	// Final is the controllers' end state, one entry per flow record; it
	// feeds the obs end-state histograms.
	Final EndState

	// Steps is the number of fluid steps executed and SimNow the virtual
	// time reached — the flow-level analogue of events/SimNow.
	Steps  uint64
	SimNow sim.Time

	// Cohorts is the number of weighted flow records the run ended with
	// (== Flows for per-flow integration), CohortSplits the number of
	// records created mid-run by partial tail drops, and PeakCohortWeight
	// the largest member count any record carried — together they report
	// how much symmetry the run exploited.
	Cohorts          int
	CohortSplits     int64
	PeakCohortWeight float64

	// QueueCapacity and ECNThreshold echo the bottleneck queue's.
	QueueCapacity, ECNThreshold int

	// Lifetime covers the whole run, the discarded first burst included.
	Lifetime Lifetime
}

// Lifetime holds a run's totals over its whole lifetime, in packets.
type Lifetime struct {
	Timeouts, FastRetransmits, RetransmitPackets int64
	// Marks counts CE-marked deliveries, SentPackets admissions into the
	// network plus first-hop drops, DeliveredPackets deliveries.
	Marks, SentPackets, DeliveredPackets int64
	// BCTs is every burst's completion time, in burst order.
	BCTs []sim.Time
	// Queues holds every queue's totals, in the network's queue order.
	Queues []QueueTotals
}

// QueueTotals is one queue's lifetime traffic in packets: the arrivals it
// admitted and tail-dropped, its departures and those it sent while
// marking (each counts again at every marking queue, as a packet switch
// counts a re-mark), and the largest backlog a step ended with.
type QueueTotals struct {
	Name                                string
	Admitted, Dropped, Marked, Departed int64
	Peak                                float64
}

// EndState is a run's end-of-run controller state, kept per flow record:
// every member of a record shares its controller, so one window and one
// alpha stand for all of the record's members.
type EndState struct {
	// Win[r] is record r's effective window in packets and Alpha[r] its
	// DCTCP-family congestion estimate (Alpha is nil for other laws).
	Win, Alpha []float64
	// Record r's members are the flow IDs at positions Off[r] :
	// Off[r]+Cnt[r] of the member list (Members).
	Off, Cnt []int32
	// net is a cohort run's path set, whose classes order its member list;
	// nil for a per-flow run, whose member list is the identity. It holds
	// no engine state, so a kept Result pins only the path set.
	net *netsim.FluidPaths
}

// Members expands the member list the record spans index: the identity
// for a per-flow run (record i is flow i; one-member records never
// split), and for a cohort run the flows class by class, ascending within
// each class, re-derived from the path set's class function. It costs one
// class walk over every flow, and fails if the path set puts a flow in a
// class it does not have.
func (s *EndState) Members() ([]int32, error) {
	if s.net == nil {
		members := make([]int32, len(s.Off))
		for i := range members {
			members[i] = int32(i)
		}
		return members, nil
	}
	return classMembers(s.net)
}

// FlowRecords returns each flow's record index, indexed by flow ID:
// ranging over it visits every flow's end state in flow-ID order, the
// order a per-flow run reports it in.
func (s *EndState) FlowRecords() ([]int32, error) {
	members, err := s.Members()
	if err != nil {
		return nil, err
	}
	rec := make([]int32, len(members))
	for r, off := range s.Off {
		for _, m := range members[off : off+s.Cnt[r]] {
			rec[m] = int32(r)
		}
	}
	return rec, nil
}

// ModeFracBelowK is the busy-sample fraction below K separating healthy
// (Mode 1) from degenerate (Mode 2) runs, shared with internal/core so
// both fidelities label the paper's operating modes identically.
const ModeFracBelowK = 0.10

// Classify maps run outcomes onto the paper's three operating modes:
// timeouts mean Mode 3; a queue that never meaningfully falls below the
// marking threshold means Mode 2; otherwise the run is healthy.
func Classify(timeouts int64, fracBelowK float64) string {
	switch {
	case timeouts > 0:
		return "3 (timeouts)"
	case fracBelowK < ModeFracBelowK:
		return "2 (degenerate)"
	default:
		return "1 (healthy)"
	}
}

// EffectivePacketRate returns the IP-packet drain rate of a link in
// packets/second under the x1500/1538 wire-overhead contract.
func EffectivePacketRate(bps int64) float64 {
	return float64(bps) / 8 / float64(netsim.MTU+netsim.EthernetOverhead)
}

// flowState is the per-record cold state: everything the per-step hot
// loops do not touch on every iteration. The hot per-record quantities
// (unsent, ACK pipe, cached window, round tallies, stall deadline) live in
// netFlow, and per-hop backlogs in the engine's hop array, so each fluid
// step streams dense records instead of striding through a large struct.
type flowState struct {
	ctrl controller

	// lastRelease orders tail-drop victims: the latest-released arrivals
	// are the ones at the back of the queue when it overflows.
	lastRelease sim.Time

	// backoff doubles the RTO up to MaxRTO across consecutive stalls.
	backoff int

	// roundEnd ends a time-based (Swift) observation round one RTT after
	// it began; lastLoss rate-limits fast-retransmit reactions to one per
	// RTT. The volume-based round tallies live in netFlow.
	roundEnd sim.Time
	lastLoss sim.Time

	active bool
}

type release struct {
	at   sim.Time
	flow int32
}

// unitBits is the width of the record field in buildReleases' packed
// (start jitter, record) sort keys; jitter keeps the other 44 bits, over
// four hours of nanoseconds.
const unitBits = 20

const volEps = 1e-9

// stepDiv divides the current RTT to get the adaptive step: the
// controllers react at round (RTT) cadence, so a handful of steps per
// round resolves the control loop; finer steps only sharpen sub-round
// queue microstructure the mode statistics do not depend on. Near the ECN
// threshold the below-K busy fraction (the Mode-1/Mode-2 discriminant)
// does depend on the oscillation around K, so steps stay at RTT/stepDiv
// there; once the queue is pegged deep above K (beyond stepDeepK times
// the threshold) marking is saturated and a full-RTT step (stepDivDeep)
// loses nothing the taxonomy can see.
const (
	stepDiv     = 1.5
	stepDivDeep = 1.0
	stepDeepK   = 4.0
)

// defaultMinStep and defaultMaxStep bound the adaptive fluid step, which
// tracks RTT/stepDiv.
const (
	defaultMinStep = 2 * sim.Microsecond
	defaultMaxStep = 2 * sim.Millisecond
)

// horizon is the recovery headroom past the nominal end before a run is
// declared stuck: synchronized RTO retry waves at high N legitimately
// take seconds.
const horizon = 60 * sim.Second

// finishCrumb is the residual backlog (packets) below which a flow with no
// remaining demand is considered done and its crumb written off as
// delivered (netEngine.writeOff). A whole burst leaves at most Flows x finishCrumb packets — under
// two wire bytes per flow — to the aggregate, while sparing tens of
// per-flow steps of multiplicative decay from ~1 packet down to volEps.
const finishCrumb = 1e-3

// buildReleases expands the burst schedule into every unit's per-burst
// start, globally time-sorted — a unit is one release record: a flow in
// per-flow runs, a cohort (one jitter draw standing for all its members)
// in aggregated runs, so per-flow runs draw one jitter value per flow and
// burst. Each burst is sorted by (at, unit) ascending so dropTailQueue's
// newest-first walk visits equal-time releases in descending unit order,
// matching the documented tail-drop victim order. Each unit's key packs
// jitter<<unitBits|unit; units enter in ascending order, so a stable LSD
// radix sort over the jitter bits alone (byte digits, ping-ponging between
// the two halves of one buffer) yields the order of sorting the unique
// keys, in time linear in the units. More units than the key can pack is
// an error (CheckAggregation rejects such per-flow runs up front).
func buildReleases(cfg Config, nUnits int) ([]release, error) {
	if nUnits >= 1<<unitBits {
		return nil, fmt.Errorf("flowsim: %d release records exceed the release-key packing limit of %d (use aggregation %q to go bigger)",
			nUnits, MaxPerFlowFlows, AggregationCohort)
	}
	rng := rand.New(rand.NewSource(int64(cfg.Seed)))
	releases := make([]release, 0, nUnits*cfg.Bursts)
	buf := make([]uint64, 2*nUnits)
	jitterBits := bits.Len64(uint64(cfg.JitterMax))
	for b := 0; b < cfg.Bursts; b++ {
		start := sim.Time(b) * cfg.Interval
		keys, tmp := buf[:nUnits], buf[nUnits:]
		for i := range keys {
			j := uint64(rng.Int63n(int64(cfg.JitterMax) + 1))
			keys[i] = j<<unitBits | uint64(i)
		}
		for shift := unitBits; shift < unitBits+jitterBits; shift += 8 {
			var count [257]int
			for _, k := range keys {
				count[(k>>shift)&0xff+1]++
			}
			for d := 1; d < len(count); d++ {
				count[d] += count[d-1]
			}
			for _, k := range keys {
				d := (k >> shift) & 0xff
				tmp[count[d]] = k
				count[d]++
			}
			keys, tmp = tmp, keys
		}
		for _, k := range keys {
			releases = append(releases, release{at: start + sim.Time(k>>unitBits), flow: int32(k & (1<<unitBits - 1))})
		}
	}
	return releases, nil
}
