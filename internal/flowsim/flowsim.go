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
// There is one solver, RunNetwork (network.go). The paper's dumbbell is
// its one-queue instance: Run wraps a Config with SingleQueue, a single
// bottleneck at LineRateBps that every flow crosses alone, and solves that.
// A Clos fabric's per-port queues come from netsim.ClosConfig.FluidPaths.
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
// core.RunIncastSim, and its RunDiff checks the open-loop queue
// (TraceConfig).
package flowsim

import (
	"fmt"
	"math/bits"
	"math/rand"

	"incastlab/internal/netsim"
	"incastlab/internal/sim"
	"incastlab/internal/stats"
)

// Config describes one fluid incast run. The shape mirrors the packet
// simulator's core.SimConfig so the core layer can lower one into the
// other; zero values take the paper defaults.
type Config struct {
	// Flows is the incast degree N.
	Flows int
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
	// injection, and the rate of the one queue SingleQueue builds
	// (default 10 Gbps). Network runs take every queue's rate from Net.
	LineRateBps int64
	// QueueCapacityPackets and ECNThresholdPackets describe SingleQueue's
	// bottleneck port (defaults 1333 and 65, the paper's 2 MB queue and
	// K); network runs overwrite them with Net's bottleneck queue.
	QueueCapacityPackets int
	ECNThresholdPackets  int
	// BaseRTT is the dumbbell's uncongested round-trip time (default the
	// paper dumbbell's ~30 us); network runs take per-flow base RTTs from
	// Net and use this one for the CC defaults only.
	BaseRTT sim.Time
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

	// MinStep and MaxStep bound the adaptive fluid step, which tracks
	// RTT/stepDiv (defaults 2 us and 2 ms).
	MinStep, MaxStep sim.Time
	// Horizon is the recovery headroom past the nominal end before the run
	// is declared stuck (default 60 s: synchronized RTO retry waves at
	// high N legitimately take seconds).
	Horizon sim.Time

	// Check enables per-step invariant checking (queue bounds, per-flow
	// volume conservation); violations surface as errors. The closing
	// conservation check always runs.
	Check bool
}

func (c *Config) fill() error {
	if c.Flows <= 0 {
		return fmt.Errorf("flowsim: config needs at least one flow")
	}
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
	if c.JitterMax >= c.Interval {
		return fmt.Errorf("flowsim: jitter %v must stay below the burst interval %v", c.JitterMax, c.Interval)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.LineRateBps <= 0 {
		c.LineRateBps = 10 * netsim.Gbps
	}
	if c.QueueCapacityPackets <= 0 {
		c.QueueCapacityPackets = netsim.DefaultDumbbellConfig(1).QueueCapacityPackets
	}
	if c.ECNThresholdPackets <= 0 {
		c.ECNThresholdPackets = netsim.DefaultDumbbellConfig(1).ECNThresholdPackets
	}
	if c.BaseRTT <= 0 {
		c.BaseRTT = netsim.DefaultDumbbellConfig(1).BaseRTT()
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
	if err := CheckAggregation(c.Aggregation, c.Flows); err != nil {
		return err
	}
	c.CC.fill(c.BaseRTT)
	if c.SampleInterval <= 0 {
		c.SampleInterval = 100 * sim.Microsecond
	}
	if c.SampleWindow <= 0 {
		drainSec := float64(c.SegmentsPerFlow) * float64(c.Flows) / EffectivePacketRate(c.LineRateBps)
		c.SampleWindow = sim.Time(drainSec*1e9) + 5*sim.Millisecond
	}
	// A single monotonically advancing sample cursor requires windows not
	// to overlap the next burst's.
	if c.SampleWindow > c.Interval {
		c.SampleWindow = c.Interval
	}
	if c.MinStep <= 0 {
		c.MinStep = 2 * sim.Microsecond
	}
	if c.MaxStep <= 0 {
		c.MaxStep = 2 * sim.Millisecond
	}
	if c.MaxStep < c.MinStep {
		c.MaxStep = c.MinStep
	}
	if c.Horizon <= 0 {
		c.Horizon = 60 * sim.Second
	}
	return nil
}

// Result aggregates a fluid run over its measured bursts, mirroring the
// packet simulator's core.SimResult fields so the core layer renders both
// through one path.
type Result struct {
	Flows   int
	AlgName string

	// AvgQueue is the queue depth in packets averaged element-wise across
	// measured bursts; time is relative to burst start.
	AvgQueue *stats.Series
	// MaxQueue is the highest sampled depth across measured bursts.
	MaxQueue float64
	// FracBelowK is the fraction of busy (non-empty) samples below the ECN
	// threshold, per burst before averaging (the Mode-1 signature).
	FracBelowK float64
	// SpikePackets is the peak of AvgQueue within the first 2 ms.
	SpikePackets float64

	// MeanBCT and MaxBCT summarize measured burst completion times; BCTs
	// carries every measured burst for quantile work.
	MeanBCT, MaxBCT sim.Time
	BCTs            []sim.Time

	// Counters over the measured window (after the discarded first burst).
	Timeouts, FastRetransmits, RetransmitPackets, Drops, Marks int64
	SentPackets                                                int64
	// DeliveredPackets is the measured-window goodput in packets.
	DeliveredPackets int64

	// CwndUpdates counts controller updates across all flows (whole run),
	// feeding the same obs metric as the packet algorithms.
	CwndUpdates int64
	// FinalCwndPkts holds each flow's effective window at the end of the
	// run; FinalAlphas holds the DCTCP-family congestion estimates (empty
	// for other laws). Both feed the obs end-state histograms.
	FinalCwndPkts []float64
	FinalAlphas   []float64

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

	// QueueCapacity and ECNThreshold echo the configuration.
	QueueCapacity, ECNThreshold int
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

// finishCrumb is the residual backlog (packets) below which a flow with no
// remaining demand is considered done and its crumb written off as
// delivered (netEngine.writeOff). A whole burst leaves at most Flows x finishCrumb packets — under
// two wire bytes per flow — to the aggregate, while sparing tens of
// per-flow steps of multiplicative decay from ~1 packet down to volEps.
const finishCrumb = 1e-3

// Run executes the fluid simulation of the dumbbell: the one-queue
// network SingleQueue builds, solved by RunNetwork. It returns an error
// when the configuration is invalid, the run fails to complete within the
// horizon, or (with cfg.Check) an invariant is violated.
func Run(cfg Config) (*Result, error) {
	ncfg, err := SingleQueue(cfg)
	if err != nil {
		return nil, err
	}
	return RunNetwork(ncfg)
}

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
