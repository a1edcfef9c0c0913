package audit

import (
	"fmt"

	"incastlab/internal/flowsim"
	"incastlab/internal/netsim"
	"incastlab/internal/sim"
	"incastlab/internal/workload"
)

// CohortDiffConfig parameterizes the aggregation differential gate: the
// same fluid incast solved twice, once with one record per flow
// ("perflow", the reference — bit-identical to the pre-cohort solver) and
// once with cohort aggregation ("cohort", the scale path), point by point
// across the incast degrees and across both topologies the fluid engine
// serves (the paper dumbbell and the leaf/spine Clos fabric).
//
// Unlike the packet<->flow gates, both sides here share one physical
// model, so the contract is tight:
//
//   - Mode classification (flowsim.Classify) must match EXACTLY — cohort
//     aggregation exists so million-flow mode maps cost one run, and a
//     mode flip between representations would poison every such map.
//   - Mean BCT within MeanBCTTol relative (default 0.15). Cohorts
//     integrate a bucketed release schedule (at most cohortBuckets jitter
//     offsets per class instead of one per flow), which shifts burst
//     tails by at most a fraction of the jitter window.
//   - Max BCT within MaxBCTTol relative (default 0.25) — the single
//     worst retry wave is the statistic most sensitive to bucketing.
//   - Peak queue within PeakQueueTol of capacity (default 0.10
//     absolute): both representations must agree whether the queue
//     grazes K, rides near capacity, or overflows.
type CohortDiffConfig struct {
	// Flows lists the dumbbell incast degrees to gate (defaults to the
	// quick Fig-5 operating points: 80, 500, 1400 — one per paper mode).
	Flows []int
	// ClosFlows lists the per-aggregator degrees for the fabric points
	// (defaults to 80 and 500 on the 8x501 ext_clos_crossrack geometry).
	ClosFlows []int
	// Racks and HostsPerRack shape the fabric points (defaults 8, 501).
	Racks, HostsPerRack int
	// BurstDuration, Bursts, Interval shape the workload (defaults 15 ms,
	// 4 bursts with the first discarded, 250 ms spacing).
	BurstDuration sim.Time
	Bursts        int
	Interval      sim.Time
	// Seed drives start jitter and the ECMP hash on both sides.
	Seed uint64

	// Tolerances; zero values take the documented defaults (0.15, 0.25,
	// 0.10).
	MeanBCTTol   float64
	MaxBCTTol    float64
	PeakQueueTol float64

	// Audit additionally runs both sides with per-step conservation
	// checks.
	Audit bool
}

func (c *CohortDiffConfig) fill() {
	if len(c.Flows) == 0 {
		c.Flows = []int{80, 500, 1400}
	}
	if len(c.ClosFlows) == 0 {
		c.ClosFlows = []int{80, 500}
	}
	if c.Racks <= 0 {
		c.Racks = 8
	}
	if c.HostsPerRack <= 0 {
		c.HostsPerRack = 501
	}
	if c.BurstDuration <= 0 {
		c.BurstDuration = 15 * sim.Millisecond
	}
	if c.Bursts <= 0 {
		c.Bursts = 4
	}
	if c.Interval <= 0 {
		c.Interval = 250 * sim.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MeanBCTTol <= 0 {
		c.MeanBCTTol = 0.15
	}
	if c.MaxBCTTol <= 0 {
		c.MaxBCTTol = 0.25
	}
	if c.PeakQueueTol <= 0 {
		c.PeakQueueTol = 0.10
	}
}

// CohortDiffPoint carries one operating point's two-representation
// outcome. PerFlow* is the reference side, Cohort* the aggregated side.
type CohortDiffPoint struct {
	// Topology is "dumbbell" or "clos".
	Topology string
	Flows    int

	PerFlowMode, CohortMode       string
	PerFlowMeanBCT, CohortMeanBCT sim.Time
	PerFlowMaxBCT, CohortMaxBCT   sim.Time
	// Peak queue as a fraction of capacity.
	PerFlowPeakQueue, CohortPeakQueue float64
	PerFlowTimeouts, CohortTimeouts   int64

	// Cohorts and Splits report how much the aggregated side compressed:
	// record count at solve time and lazy exact splits forced by
	// divergence.
	Cohorts int
	Splits  int64
}

// CohortDiffResult aggregates the gate across all operating points.
type CohortDiffResult struct {
	Points []CohortDiffPoint
	// Breaches lists every tolerance violation, empty on agreement.
	Breaches []string
}

// RunCohortDiff runs the aggregation differential gate. The returned
// error is non-nil when any point breaches the tolerance contract; the
// result always carries every point for reporting.
func RunCohortDiff(cfg CohortDiffConfig) (*CohortDiffResult, error) {
	cfg.fill()
	res := &CohortDiffResult{}
	breach := func(format string, args ...any) {
		res.Breaches = append(res.Breaches, fmt.Sprintf(format, args...))
	}

	run := func(topology string, n int, solve func(agg string) (*flowsim.Result, error)) error {
		per, err := solve(flowsim.AggregationPerFlow)
		if err != nil {
			return fmt.Errorf("audit: %s perflow side at %d flows: %w", topology, n, err)
		}
		coh, err := solve(flowsim.AggregationCohort)
		if err != nil {
			return fmt.Errorf("audit: %s cohort side at %d flows: %w", topology, n, err)
		}

		capPkts := float64(per.QueueCapacity)
		p := CohortDiffPoint{
			Topology:         topology,
			Flows:            n,
			PerFlowMode:      flowsim.Classify(per.Timeouts, per.FracBelowK),
			CohortMode:       flowsim.Classify(coh.Timeouts, coh.FracBelowK),
			PerFlowMeanBCT:   per.MeanBCT,
			CohortMeanBCT:    coh.MeanBCT,
			PerFlowMaxBCT:    per.MaxBCT,
			CohortMaxBCT:     coh.MaxBCT,
			PerFlowPeakQueue: per.MaxQueue / capPkts,
			CohortPeakQueue:  coh.MaxQueue / capPkts,
			PerFlowTimeouts:  per.Timeouts,
			CohortTimeouts:   coh.Timeouts,
			Cohorts:          coh.Cohorts,
			Splits:           coh.CohortSplits,
		}
		res.Points = append(res.Points, p)

		// Compression is workload-dependent (sparse fabrics can put every
		// flow in its own path x jitter-bucket class), but the record count
		// can never exceed the member count.
		if p.Cohorts > n {
			breach("%s n=%d: cohort side has more records than flows: %d",
				topology, n, p.Cohorts)
		}
		if p.PerFlowMode != p.CohortMode {
			breach("%s n=%d: mode classification diverges: perflow %q vs cohort %q (timeouts %d/%d, fracBelowK %.3f/%.3f)",
				topology, n, p.PerFlowMode, p.CohortMode, p.PerFlowTimeouts, p.CohortTimeouts, per.FracBelowK, coh.FracBelowK)
		}
		if rel := relDiff(float64(p.CohortMeanBCT), float64(p.PerFlowMeanBCT)); rel > cfg.MeanBCTTol {
			breach("%s n=%d: mean BCT: perflow %v vs cohort %v (rel diff %.3f > tol %.3f)",
				topology, n, p.PerFlowMeanBCT, p.CohortMeanBCT, rel, cfg.MeanBCTTol)
		}
		if rel := relDiff(float64(p.CohortMaxBCT), float64(p.PerFlowMaxBCT)); rel > cfg.MaxBCTTol {
			breach("%s n=%d: max BCT: perflow %v vs cohort %v (rel diff %.3f > tol %.3f)",
				topology, n, p.PerFlowMaxBCT, p.CohortMaxBCT, rel, cfg.MaxBCTTol)
		}
		if d := absDiff(p.PerFlowPeakQueue, p.CohortPeakQueue); d > cfg.PeakQueueTol {
			breach("%s n=%d: peak queue: perflow %.3f vs cohort %.3f of capacity (diff %.3f > tol %.3f)",
				topology, n, p.PerFlowPeakQueue, p.CohortPeakQueue, d, cfg.PeakQueueTol)
		}
		return nil
	}

	for _, n := range cfg.Flows {
		n := n
		err := run("dumbbell", n, func(agg string) (*flowsim.Result, error) {
			return flowsim.Run(flowsim.Config{
				Flows:           n,
				SegmentsPerFlow: workload.BytesPerFlowFor(10*netsim.Gbps, cfg.BurstDuration, n) / netsim.MSS,
				Bursts:          cfg.Bursts,
				Interval:        cfg.Interval,
				Seed:            cfg.Seed,
				Aggregation:     agg,
				Check:           cfg.Audit,
			})
		})
		if err != nil {
			return nil, err
		}
	}

	closCfg := netsim.DefaultClosConfig(cfg.Racks, cfg.HostsPerRack)
	closCfg.ECMPSeed = cfg.Seed
	for _, n := range cfg.ClosFlows {
		n := n
		srcs, dsts, err := workload.ClosFlowEndpoints(closCfg, n, 1, workload.PlacementCrossRack)
		if err != nil {
			return nil, fmt.Errorf("audit: clos endpoints at %d flows: %w", n, err)
		}
		net, err := closCfg.FluidPaths(srcs, dsts)
		if err != nil {
			return nil, fmt.Errorf("audit: clos paths at %d flows: %w", n, err)
		}
		err = run("clos", n, func(agg string) (*flowsim.Result, error) {
			return flowsim.RunNetwork(flowsim.NetworkConfig{
				Config: flowsim.Config{
					Flows:           len(srcs),
					SegmentsPerFlow: workload.BytesPerFlowFor(closCfg.HostLinkBps, cfg.BurstDuration, n) / netsim.MSS,
					Bursts:          cfg.Bursts,
					Interval:        cfg.Interval,
					Seed:            cfg.Seed,
					LineRateBps:     closCfg.HostLinkBps,
					Aggregation:     agg,
					Check:           cfg.Audit,
				},
				Net: net,
			})
		})
		if err != nil {
			return nil, err
		}
	}

	if len(res.Breaches) > 0 {
		msg := fmt.Sprintf("audit: cohort<->perflow aggregation differential check failed with %d breach(es)", len(res.Breaches))
		for _, b := range res.Breaches {
			msg += "\n  " + b
		}
		return res, fmt.Errorf("%s", msg)
	}
	return res, nil
}
