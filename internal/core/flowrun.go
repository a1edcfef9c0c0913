package core

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"incastlab/internal/cc"
	"incastlab/internal/flowsim"
	"incastlab/internal/netsim"
	"incastlab/internal/obs"
	"incastlab/internal/sim"
	"incastlab/internal/tcp"
	"incastlab/internal/workload"
)

// The fidelity knob selects the simulation backend behind RunIncastSim:
// packet-level discrete events (internal/netsim, the default) or the
// flow-level fluid fast path (internal/flowsim). Both backends share
// SimConfig, SimResult, the obs metric schema, and the mode taxonomy, so
// everything above this layer — experiments, scenarios, CLIs — is
// backend-agnostic.
const (
	FidelityPacket = "packet"
	FidelityFlow   = "flow"
)

// The aggregation knob selects how the flow-level backend represents the
// flow population: per-flow records, cohort-aggregated equivalence
// classes, or the automatic policy (cohorts from flowsim's threshold up).
// It only means something at FidelityFlow — the packet backend is
// per-packet by construction.
const (
	AggregationAuto    = flowsim.AggregationAuto
	AggregationCohort  = flowsim.AggregationCohort
	AggregationPerFlow = flowsim.AggregationPerFlow
)

// FlowCompatible reports whether the configuration can run on the
// flow-level backend; the error names the first packet-level-only feature.
// The fluid engine models incast demand over a queue network — the
// dumbbell's single bottleneck or a Clos fabric's per-port queues, each
// with threshold marking and tail drops, reduced-form congestion laws, RTO
// stalls — but not receiver-side control, shared switch memory, ACK
// shaping, per-packet traces, or the dumbbell's inter-ToR core link. Its
// release schedule also needs the start jitter, default included, below
// the burst interval, and its port queues a positive capacity and ECN
// threshold: the packet backend reads a zero bound as unbounded and a
// zero threshold as no marking, which a fluid queue cannot model.
func (c SimConfig) FlowCompatible() error {
	if c.Flows <= 0 {
		return errNoFlows(c.Flows)
	}
	cfg := c
	cfg.fill()
	var feature string
	switch {
	case cfg.Notification != nil:
		// The notification path is literally packets: detector firings
		// keyed to per-packet queue dynamics and zero-payload control
		// packets racing the data they react to.
		feature = "switch-side incast notification"
	case cfg.Admitter != nil:
		feature = "wave/admission scheduling"
	case cfg.EnableICTCP:
		feature = "ICTCP receive-window control"
	case cfg.ExternalBufferBytes > 0:
		feature = "external shared-buffer contention"
	case cfg.TrackInFlight:
		feature = "per-flow in-flight tracking"
	case cfg.Clos != nil && cfg.Clos.SharedBufferBytes > 0:
		feature = "shared switch buffering"
	case cfg.Clos != nil && cfg.Clos.ECNAverageWeight > 0:
		feature = "EWMA-averaged ECN marking"
	case cfg.Clos == nil && cfg.Net.SharedBufferBytes > 0:
		feature = "shared switch buffering"
	case cfg.Clos == nil && cfg.Net.ECNAverageWeight > 0:
		feature = "EWMA-averaged ECN marking"
	case cfg.Clos == nil && cfg.Net.CoreLinkBps != netsim.DefaultDumbbellConfig(cfg.Flows).CoreLinkBps:
		// The fluid dumbbell is the bottleneck queue alone; a changed core
		// rate would be silently ignored there.
		feature = "a non-default dumbbell core link rate (Net.CoreLinkBps, scenario topology.core_link_gbps)"
	case cfg.Receiver.DelayedAcks:
		feature = "delayed ACKs"
	case cfg.Sender.RestartAfterIdle:
		feature = "idle-restart window validation"
	}
	if feature != "" {
		return fmt.Errorf("core: %s is packet-level only and cannot run at fidelity %q; use fidelity %q",
			feature, FidelityFlow, FidelityPacket)
	}
	if err := flowsim.CheckJitter(cfg.JitterMax, cfg.Interval); err != nil {
		return err
	}
	// The topology is checked before flowBaseRTT reads its link rates.
	flows := cfg.Flows
	capPkts, ecnK := cfg.Net.QueueCapacityPackets, cfg.Net.ECNThresholdPackets
	if cfg.Clos != nil {
		// The placement check ClosFlowEndpoints runs, without the endpoints.
		n, err := workload.CheckClosPlacement(*cfg.Clos, cfg.Flows, cfg.Aggregators, cfg.Placement)
		if err != nil {
			return err
		}
		flows = n
		capPkts, ecnK = cfg.Clos.QueueCapacityPackets, cfg.Clos.ECNThresholdPackets
	} else if err := cfg.Net.Validate(); err != nil {
		return err
	}
	switch {
	case capPkts <= 0:
		return fmt.Errorf("core: fidelity %q needs a positive port queue capacity (QueueCapacityPackets = %d, which the packet backend reads as unbounded); use fidelity %q",
			FidelityFlow, capPkts, FidelityPacket)
	case ecnK <= 0:
		return fmt.Errorf("core: fidelity %q needs a positive ECN threshold (ECNThresholdPackets = %d, which the packet backend reads as no marking); use fidelity %q",
			FidelityFlow, ecnK, FidelityPacket)
	}
	if _, err := flowCC(cfg.Alg(0), flowBaseRTT(&cfg)); err != nil {
		return err
	}
	return flowsim.CheckAggregation(cfg.Aggregation, flows)
}

// flowBaseRTT is the uncongested round-trip the reduced congestion laws
// (and packet ICTCP's control slot) are parameterized against: the fabric
// RTT for the configured placement on a Clos, the dumbbell's otherwise.
func flowBaseRTT(cfg *SimConfig) sim.Time {
	if cfg.Clos != nil {
		return cfg.Clos.BaseRTT(crossRack(cfg))
	}
	return cfg.Net.BaseRTT()
}

// crossRack reports whether a fabric row's workers sit in other racks than
// their aggregator's.
func crossRack(cfg *SimConfig) bool { return cfg.Placement != workload.PlacementSameRack }

// hostLinkBps is the host NIC line rate of the configured topology, which
// sizes per-flow demand on both backends.
func hostLinkBps(cfg *SimConfig) int64 {
	if cfg.Clos != nil {
		return cfg.Clos.HostLinkBps
	}
	return cfg.Net.HostLinkBps
}

// flowCC lowers a packet-level congestion-control instance into flowsim's
// reduced form, mirroring its parameters (windows converted from bytes to
// MSS packets).
func flowCC(alg cc.Algorithm, baseRTT sim.Time) (flowsim.CCConfig, error) {
	mss := float64(netsim.MSS)
	switch a := alg.(type) {
	case *cc.Guardrail:
		inner, err := flowCC(a.Inner(), baseRTT)
		if err != nil {
			return flowsim.CCConfig{}, err
		}
		if capBytes := a.Cap(); capBytes > 0 {
			inner.CapPkts = float64(capBytes) / mss
		}
		inner.Name = a.Name()
		return inner, nil
	case *cc.D2TCP:
		dc := a.Config()
		return flowsim.CCConfig{
			Kind:              flowsim.KindDCTCP,
			Name:              a.Name(),
			InitialWindowPkts: float64(dc.InitialWindow) / mss,
			G:                 dc.G,
			InitialAlpha:      dc.InitialAlpha,
			DeadlineFactor:    a.DeadlineFactor(),
		}, nil
	case *cc.DCTCP:
		dc := a.Config()
		return flowsim.CCConfig{
			Kind:              flowsim.KindDCTCP,
			Name:              a.Name(),
			InitialWindowPkts: float64(dc.InitialWindow) / mss,
			G:                 dc.G,
			InitialAlpha:      dc.InitialAlpha,
		}, nil
	case *cc.Swift:
		sc := a.Config()
		return flowsim.CCConfig{
			Kind:              flowsim.KindSwift,
			Name:              a.Name(),
			InitialWindowPkts: float64(sc.InitialWindow) / mss,
			TargetDelay:       sc.TargetDelay,
			AIPkts:            float64(sc.AI) / mss,
			Beta:              sc.Beta,
			MinWindowPkts:     sc.MinWindowBytes / mss,
		}, nil
	case *cc.Reno:
		return flowsim.CCConfig{
			Kind:              flowsim.KindReno,
			Name:              a.Name(),
			InitialWindowPkts: float64(a.Probe().CwndBytes) / mss,
		}, nil
	}
	return flowsim.CCConfig{}, fmt.Errorf("core: congestion control %q has no flow-level reduced form", alg.Name())
}

// runFlowIncastSim executes a filled SimConfig, which RunIncastSim has
// validated, on the fluid backend and shapes the outcome into the shared
// SimResult.
func runFlowIncastSim(cfg SimConfig) *SimResult {
	wallStart := startWall(cfg.Metrics)
	fres, err := runFluid(cfg)
	if err != nil {
		panic(fmt.Sprintf("core: flow-level simulation with %d flows: %v", cfg.Flows, err))
	}
	res := &SimResult{
		Fidelity:      FidelityFlow,
		Flows:         cfg.Flows,
		AlgName:       fres.AlgName,
		Measured:      fres.Measured,
		Events:        fres.Steps,
		SimNow:        fres.SimNow,
		QueueCapacity: fres.QueueCapacity,
		ECNThreshold:  fres.ECNThreshold,
	}
	if cfg.Metrics != nil {
		harvest(&cfg, wallStart, flowTotals(&cfg, fres))
	}
	return res
}

// runFluid lowers a filled, validated SimConfig onto the fluid backend:
// it builds the row's path set and runs the solver over it. One fluid
// Config serves both topologies; the branch only picks the path set the
// flows cross. Per-flow demand is sized against the per-aggregator
// degree, exactly as the packet workload's BytesPerFlow.
func runFluid(cfg SimConfig) (*flowsim.Result, error) {
	ccCfg, err := flowCC(cfg.Alg(0), flowBaseRTT(&cfg))
	if err != nil {
		return nil, err
	}
	var net *netsim.FluidPaths
	if c := cfg.Clos; c != nil {
		// The path build takes the endpoints from the placement a chunk at
		// a time, so no per-flow array outlives a chunk.
		pl, perr := workload.NewClosPlacement(*c, cfg.Flows, cfg.Aggregators, cfg.Placement)
		if perr != nil {
			return nil, perr
		}
		net, err = c.FluidPathsFrom(pl.Flows(), pl.Fill)
	} else {
		net, err = cfg.Net.FluidPaths()
	}
	if err != nil {
		return nil, err
	}
	return flowsim.Run(flowsim.Config{
		SegmentsPerFlow: workload.BytesPerFlowFor(hostLinkBps(&cfg), cfg.BurstDuration, cfg.Flows) / netsim.MSS,
		Bursts:          cfg.Bursts,
		Interval:        cfg.Interval,
		JitterMax:       cfg.JitterMax,
		Seed:            cfg.Seed,
		LineRateBps:     hostLinkBps(&cfg),
		MinRTO:          cfg.Sender.MinRTO,
		MaxRTO:          cfg.Sender.MaxRTO,
		CC:              ccCfg,
		SampleInterval:  cfg.SampleInterval,
		SampleWindow:    cfg.SampleWindow,
		Check:           cfg.Audit,
		Aggregation:     cfg.Aggregation,
	}, net)
}

// flowTotals reads a finished fluid run for the harvest. Its ports are
// the packet fabric's, mapped from the solver's queues: on a Clos the
// bottleneck is queue leaf-0-port-0 and spine s's port into the
// aggregator's rack is spine-<s>-port-0; a spine port no flow crosses is
// not in the path set, so it carried nothing and reports idle. The fluid
// dumbbell is the bottleneck queue alone (it does not model the core
// link), so it lists only the bottleneck.
func flowTotals(cfg *SimConfig, r *flowsim.Result) runTotals {
	lt := r.Lifetime
	port := func(label, queue string, bps int64) harvestPort {
		p := harvestPort{label: label, bps: bps}
		if k := slices.IndexFunc(lt.Queues, func(q flowsim.QueueTotals) bool { return q.Name == queue }); k >= 0 {
			q := lt.Queues[k]
			p.queue = netsim.QueueStats{
				EnqueuedPackets: q.Admitted,
				EnqueuedBytes:   q.Admitted * netsim.MTU,
				DroppedPackets:  q.Dropped,
				DroppedBytes:    q.Dropped * netsim.MTU,
				MarkedPackets:   q.Marked,
				PeakPackets:     int(math.Round(q.Peak)),
				PeakBytes:       int(math.Round(q.Peak * netsim.MTU)),
			}
			p.txPackets, p.txBytes = q.Departed, q.Departed*(netsim.MTU+netsim.EthernetOverhead)
		}
		return p
	}
	var ports []harvestPort
	if c := cfg.Clos; c != nil {
		ports = append(ports, port("bottleneck", "leaf-0-port-0", c.HostLinkBps))
		for s := range c.Spines {
			ports = append(ports, port(spinePort(s), "spine-"+strconv.Itoa(s)+"-port-0", c.SpineLinkBps))
		}
	} else {
		ports = append(ports, port("bottleneck", "bottleneck", cfg.Net.HostLinkBps))
	}
	return runTotals{
		// One fluid step is the flow-level analogue of one executed event.
		scheduled: r.Steps,
		executed:  r.Steps,
		simNow:    r.SimNow,
		ports:     ports,
		// The fluid model has no discrete ACKs; one delivered packet
		// stands in for one ACK, and a marked delivery for an ECE echo.
		tcp: tcp.SenderStats{
			SentPackets:       lt.SentPackets,
			SentBytes:         lt.SentPackets * netsim.MSS,
			RetransmitPackets: lt.RetransmitPackets,
			FastRetransmits:   lt.FastRetransmits,
			Timeouts:          lt.Timeouts,
			Acks:              lt.DeliveredPackets,
			ECEAcks:           lt.Marks,
		},
		bcts: lt.BCTs,
		cc: func(cwnd, alpha *obs.Histogram) int64 {
			// End state is kept per record; expand it flow by flow in
			// flow-ID order, so the histograms' float sums match a
			// per-flow walk.
			flowRec, err := r.Final.FlowRecords()
			if err != nil {
				panic(fmt.Sprintf("core: flow-level end state of %d flows: %v", cfg.Flows, err))
			}
			for _, i := range flowRec {
				cwnd.Observe(r.Final.Win[i] * float64(netsim.MSS))
			}
			if r.Final.Alpha != nil {
				for _, i := range flowRec {
					alpha.Observe(r.Final.Alpha[i])
				}
			}
			return r.CwndUpdates
		},
		backend: func(c *obs.Collector) {
			c.Gauge("flowsim_cohorts", obs.MergeSum).Set(float64(r.Cohorts))
			c.Counter("flowsim_cohort_splits").Add(r.CohortSplits)
			c.Gauge("flowsim_cohort_peak_weight", obs.MergeMax).Set(r.PeakCohortWeight)
		},
	}
}
