package audit

import (
	"fmt"

	"incastlab/internal/cc"
	"incastlab/internal/flowsim"
	"incastlab/internal/netsim"
	"incastlab/internal/sim"
	"incastlab/internal/stats"
	"incastlab/internal/workload"
)

// ClosDiffConfig parameterizes the fabric closed-loop differential gate:
// the same repeated-burst DCTCP incast over a leaf/spine Clos run through
// the packet-level simulator (workload + netsim, the reference) and
// through the multi-queue fluid solver (flowsim.RunNetwork), point by
// point across the incast degrees. Both sides place flows through
// workload.ClosFlowEndpoints and hash ECMP with the same seed, so every
// flow meets the same queues in both backends.
//
// The tolerance contract is the dumbbell gate's (see IncastDiffConfig):
// mode classification exact, mean BCT within MeanBCTTol relative, max BCT
// within MaxBCTTol relative, peak bottleneck queue within PeakQueueTol of
// capacity.
type ClosDiffConfig struct {
	// Racks and HostsPerRack shape the fabric (defaults 8 and 501, the
	// ext_clos_crossrack geometry: every degree fits both placements).
	Racks, HostsPerRack int
	// Placement is workload.PlacementCrossRack (default) or
	// workload.PlacementSameRack.
	Placement string
	// Aggregators is the concurrent incast count (0 or 1 = single).
	Aggregators int
	// Flows lists the per-aggregator incast degrees to gate (defaults to
	// 80 and 500 — the fabric experiments' Mode 1 and Mode 2 points).
	Flows []int
	// BurstDuration, Bursts, Interval shape the workload (defaults 15 ms,
	// 4 bursts with the first discarded, 250 ms spacing).
	BurstDuration sim.Time
	Bursts        int
	Interval      sim.Time
	// Seed drives start jitter and the ECMP hash on both sides.
	Seed uint64

	// Tolerances; zero values take the documented defaults (0.35, 0.50,
	// 0.15 — pinned like the PR 6 dumbbell gate).
	MeanBCTTol   float64
	MaxBCTTol    float64
	PeakQueueTol float64

	// Audit additionally runs both sides in checked mode.
	Audit bool
}

func (c *ClosDiffConfig) fill() {
	if c.Racks <= 0 {
		c.Racks = 8
	}
	if c.HostsPerRack <= 0 {
		c.HostsPerRack = 501
	}
	if len(c.Flows) == 0 {
		c.Flows = []int{80, 500}
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
		c.MeanBCTTol = 0.35
	}
	if c.MaxBCTTol <= 0 {
		c.MaxBCTTol = 0.50
	}
	if c.PeakQueueTol <= 0 {
		c.PeakQueueTol = 0.15
	}
}

// clos materializes the fabric both sides run on.
func (c ClosDiffConfig) clos() netsim.ClosConfig {
	cfg := netsim.DefaultClosConfig(c.Racks, c.HostsPerRack)
	cfg.ECMPSeed = c.Seed
	return cfg
}

// RunClosDiff runs the fabric closed-loop differential gate. The returned
// error is non-nil when any point breaches the tolerance contract; the
// result always carries every point for reporting.
func RunClosDiff(cfg ClosDiffConfig) (*IncastDiffResult, error) {
	cfg.fill()
	closCfg := cfg.clos()
	res := &IncastDiffResult{}
	breach := func(format string, args ...any) {
		res.Breaches = append(res.Breaches, fmt.Sprintf(format, args...))
	}

	for _, n := range cfg.Flows {
		pkt, err := runPacketClosIncast(cfg, closCfg, n)
		if err != nil {
			return nil, fmt.Errorf("audit: clos packet side at %d flows: %w", n, err)
		}
		flow, err := runFlowClosIncast(cfg, closCfg, n)
		if err != nil {
			return nil, fmt.Errorf("audit: clos flow side at %d flows: %w", n, err)
		}

		capPkts := float64(flow.QueueCapacity)
		p := IncastDiffPoint{
			Flows:           n,
			PacketMode:      flowsim.Classify(pkt.timeouts, pkt.fracBelowK),
			FlowMode:        flowsim.Classify(flow.Timeouts, flow.FracBelowK),
			PacketMeanBCT:   pkt.meanBCT,
			FlowMeanBCT:     flow.MeanBCT,
			PacketMaxBCT:    pkt.maxBCT,
			FlowMaxBCT:      flow.MaxBCT,
			PacketPeakQueue: pkt.maxQueue / capPkts,
			FlowPeakQueue:   flow.MaxQueue / capPkts,
			PacketTimeouts:  pkt.timeouts,
			FlowTimeouts:    flow.Timeouts,
		}
		res.Points = append(res.Points, p)

		if p.PacketMode != p.FlowMode {
			breach("n=%d: mode classification diverges: packet %q vs flow %q (timeouts %d/%d, fracBelowK %.3f/%.3f)",
				n, p.PacketMode, p.FlowMode, p.PacketTimeouts, p.FlowTimeouts, pkt.fracBelowK, flow.FracBelowK)
		}
		if rel := relDiff(float64(p.FlowMeanBCT), float64(p.PacketMeanBCT)); rel > cfg.MeanBCTTol {
			breach("n=%d: mean BCT: packet %v vs flow %v (rel diff %.3f > tol %.3f)",
				n, p.PacketMeanBCT, p.FlowMeanBCT, rel, cfg.MeanBCTTol)
		}
		if rel := relDiff(float64(p.FlowMaxBCT), float64(p.PacketMaxBCT)); rel > cfg.MaxBCTTol {
			breach("n=%d: max BCT: packet %v vs flow %v (rel diff %.3f > tol %.3f)",
				n, p.PacketMaxBCT, p.FlowMaxBCT, rel, cfg.MaxBCTTol)
		}
		if d := absDiff(p.PacketPeakQueue, p.FlowPeakQueue); d > cfg.PeakQueueTol {
			breach("n=%d: peak queue: packet %.3f vs flow %.3f of capacity (diff %.3f > tol %.3f)",
				n, p.PacketPeakQueue, p.FlowPeakQueue, d, cfg.PeakQueueTol)
		}
	}

	if len(res.Breaches) > 0 {
		msg := fmt.Sprintf("audit: clos packet<->flow closed-loop differential check failed with %d breach(es)", len(res.Breaches))
		for _, b := range res.Breaches {
			msg += "\n  " + b
		}
		return res, fmt.Errorf("%s", msg)
	}
	return res, nil
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

// runFlowClosIncast is the fluid side: endpoints from ClosFlowEndpoints,
// queue paths from ClosConfig.FluidPaths, solved by flowsim.RunNetwork.
func runFlowClosIncast(cfg ClosDiffConfig, closCfg netsim.ClosConfig, n int) (*flowsim.Result, error) {
	srcs, dsts, err := workload.ClosFlowEndpoints(closCfg, n, cfg.Aggregators, cfg.Placement)
	if err != nil {
		return nil, err
	}
	net, err := closCfg.FluidPaths(srcs, dsts)
	if err != nil {
		return nil, err
	}
	return flowsim.RunNetwork(flowsim.NetworkConfig{
		Config: flowsim.Config{
			Flows:           len(srcs),
			SegmentsPerFlow: workload.BytesPerFlowFor(closCfg.HostLinkBps, cfg.BurstDuration, n) / netsim.MSS,
			Bursts:          cfg.Bursts,
			Interval:        cfg.Interval,
			Seed:            cfg.Seed,
			LineRateBps:     closCfg.HostLinkBps,
			Check:           cfg.Audit,
		},
		Net: net,
	})
}

// runPacketClosIncast runs the reference DCTCP incast on workload + netsim
// over the fabric, measuring identically to the dumbbell gate's packet
// side: discarded first burst, 100 us queue samples on the aggregator's
// leaf downlink over burst duration + 5 ms, counters diffed from the
// measured window's start.
func runPacketClosIncast(cfg ClosDiffConfig, closCfg netsim.ClosConfig, n int) (*packetIncastOutcome, error) {
	eng := sim.NewEngine()
	wl := workload.ClosIncastConfig{
		Workers:      n,
		Placement:    cfg.Placement,
		Aggregators:  cfg.Aggregators,
		BytesPerFlow: workload.BytesPerFlowFor(closCfg.HostLinkBps, cfg.BurstDuration, n),
		Bursts:       cfg.Bursts,
		Interval:     cfg.Interval,
		JitterMax:    100 * sim.Microsecond,
		Seed:         cfg.Seed,
	}
	in := workload.NewClosIncast(eng, closCfg, wl, func(int) cc.Algorithm {
		return cc.NewDCTCP(cc.DefaultDCTCPConfig())
	})

	var auditor *Auditor
	if cfg.Audit {
		auditor = New(eng, Config{RequireDrained: true})
		auditor.WatchClos(in.Network())
		for _, s := range in.Senders() {
			auditor.WatchSender(s)
		}
		auditor.Start()
	}

	q := in.Network().DownlinkQueue(0)
	sampleInterval := 100 * sim.Microsecond
	samples := int((cfg.BurstDuration + 5*sim.Millisecond) / sampleInterval)
	first := 1
	if cfg.Bursts == 1 {
		first = 0
	}
	var burstSeries []*stats.Series
	for b := first; b < cfg.Bursts; b++ {
		start := sim.Time(b) * cfg.Interval
		burstSeries = append(burstSeries,
			netsim.QueueDepthSeries(eng, q, start, sampleInterval, samples))
	}

	var baseTimeouts int64
	eng.Schedule(sim.Time(first)*cfg.Interval, func() {
		baseTimeouts = in.AggregateSenderStats().Timeouts
	})

	deadline := sim.Time(cfg.Bursts)*cfg.Interval + 10*sim.Second
	eng.RunUntil(deadline)
	if !in.Done() {
		return nil, fmt.Errorf("clos incast with %d workers did not complete by %v", n, deadline)
	}
	if auditor != nil {
		auditor.Finish()
		if err := auditor.Err(); err != nil {
			return nil, fmt.Errorf("invariant audit: %w", err)
		}
	}

	out := &packetIncastOutcome{}
	var busy, belowK int
	for _, bs := range burstSeries {
		for _, v := range bs.Values {
			if v > out.maxQueue {
				out.maxQueue = v
			}
			if v > 0 {
				busy++
				if v < float64(closCfg.ECNThresholdPackets) {
					belowK++
				}
			}
		}
	}
	if busy > 0 {
		out.fracBelowK = float64(belowK) / float64(busy)
	}

	var bctSum sim.Time
	measured := 0
	for _, b := range in.Bursts()[first:] {
		bctSum += b.BCT
		if b.BCT > out.maxBCT {
			out.maxBCT = b.BCT
		}
		measured++
	}
	out.meanBCT = bctSum / sim.Time(measured)
	out.timeouts = in.AggregateSenderStats().Timeouts - baseTimeouts
	return out, nil
}
