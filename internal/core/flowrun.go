package core

import (
	"fmt"
	"strconv"
	"time"

	"incastlab/internal/cc"
	"incastlab/internal/flowsim"
	"incastlab/internal/netsim"
	"incastlab/internal/obs"
	"incastlab/internal/sim"
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

// KnownFidelity reports whether name selects a backend ("" means packet).
func KnownFidelity(name string) bool {
	return name == "" || name == FidelityPacket || name == FidelityFlow
}

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

// KnownAggregation reports whether name selects a flow-aggregation level
// ("" means auto).
func KnownAggregation(name string) bool { return flowsim.KnownAggregation(name) }

// FlowCompatible reports whether the configuration can run on the
// flow-level backend; the error names the first packet-level-only feature.
// The fluid engine models incast demand over a queue network — the
// dumbbell's single bottleneck or a Clos fabric's per-port queues, each
// with threshold marking and tail drops, reduced-form congestion laws, RTO
// stalls — but not receiver-side control, shared switch memory, ACK
// shaping, per-packet traces, or the dumbbell's inter-ToR core link. Its
// release schedule also needs the start jitter, default included, below
// the burst interval.
func (c SimConfig) FlowCompatible() error {
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
	if _, err := flowCC(cfg.Alg(0), flowBaseRTT(&cfg)); err != nil {
		return err
	}
	flows := cfg.Flows
	if cfg.Clos != nil {
		// The placement check ClosFlowEndpoints runs, without the endpoints.
		n, err := workload.CheckClosPlacement(*cfg.Clos, cfg.Flows, cfg.Aggregators, cfg.Placement)
		if err != nil {
			return err
		}
		flows = n
	}
	return flowsim.CheckAggregation(cfg.Aggregation, flows)
}

// flowBaseRTT is the uncongested round-trip the reduced congestion laws
// are parameterized against: the fabric RTT for the configured placement
// on a Clos, the dumbbell's otherwise.
func flowBaseRTT(cfg *SimConfig) sim.Time {
	if cfg.Clos != nil {
		return cfg.Clos.BaseRTT(cfg.Placement != workload.PlacementSameRack)
	}
	return cfg.Net.BaseRTT()
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

// runFlowIncastSim executes a filled SimConfig on the fluid backend and
// shapes the outcome into the shared SimResult. Incompatible configurations
// panic, like the packet path's own invalid-input handling; callers that
// want a soft answer check FlowCompatible first.
func runFlowIncastSim(cfg SimConfig) *SimResult {
	var wallStart time.Time
	if cfg.Metrics != nil {
		wallStart = time.Now()
	}
	fres := runFluid(cfg)
	res := &SimResult{
		Fidelity:          FidelityFlow,
		Flows:             cfg.Flows,
		AlgName:           fres.AlgName,
		AvgQueue:          fres.AvgQueue,
		MaxQueue:          fres.MaxQueue,
		FracBelowK:        fres.FracBelowK,
		SpikePackets:      fres.SpikePackets,
		MeanBCT:           fres.MeanBCT,
		MaxBCT:            fres.MaxBCT,
		Timeouts:          fres.Timeouts,
		FastRetransmits:   fres.FastRetransmits,
		RetransmitPackets: fres.RetransmitPackets,
		Drops:             fres.Drops,
		Marks:             fres.Marks,
		SentPackets:       fres.SentPackets,
		Events:            fres.Steps,
		SimNow:            fres.SimNow,
		QueueCapacity:     fres.QueueCapacity,
		ECNThreshold:      fres.ECNThreshold,
	}
	harvestFlowRun(&cfg, fres, wallStart)
	return res
}

// runFluid lowers a filled SimConfig onto the fluid backend's queue
// network and runs it, panicking on any error as runFlowIncastSim does.
func runFluid(cfg SimConfig) *flowsim.Result {
	if err := cfg.FlowCompatible(); err != nil {
		panic(err.Error())
	}
	ccCfg, err := flowCC(cfg.Alg(0), flowBaseRTT(&cfg))
	if err != nil {
		panic(err.Error())
	}
	// One fluid Config serves both topologies; the branch only picks the
	// queue network the flows cross.
	fcfg := flowsim.Config{
		Flows:           cfg.Flows,
		SegmentsPerFlow: workload.BytesPerFlowFor(cfg.Net.HostLinkBps, cfg.BurstDuration, cfg.Flows) / netsim.MSS,
		Bursts:          cfg.Bursts,
		Interval:        cfg.Interval,
		JitterMax:       cfg.JitterMax,
		Seed:            cfg.Seed,
		LineRateBps:     cfg.Net.HostLinkBps,
		MinRTO:          cfg.Sender.MinRTO,
		MaxRTO:          cfg.Sender.MaxRTO,
		DupAckPackets:   float64(cfg.Sender.DupAckThreshold),
		CC:              ccCfg,
		SampleInterval:  cfg.SampleInterval,
		SampleWindow:    cfg.SampleWindow,
		Check:           cfg.Audit,
		Aggregation:     cfg.Aggregation,
	}
	var ncfg flowsim.NetworkConfig
	if cfg.Clos != nil {
		closCfg := *cfg.Clos
		// The path build takes the endpoints from the placement a chunk at
		// a time, so no per-flow array outlives a chunk.
		pl, err := workload.NewClosPlacement(closCfg, cfg.Flows, cfg.Aggregators, cfg.Placement)
		if err != nil {
			panic(err.Error())
		}
		net, err := closCfg.FluidPathsFrom(pl.Flows(), pl.Fill)
		if err != nil {
			panic(err.Error())
		}
		fcfg.Flows = pl.Flows()
		// Per-flow demand is sized against the per-aggregator degree,
		// exactly as the packet workload's BytesPerFlow.
		fcfg.SegmentsPerFlow = workload.BytesPerFlowFor(closCfg.HostLinkBps, cfg.BurstDuration, cfg.Flows) / netsim.MSS
		fcfg.LineRateBps = closCfg.HostLinkBps
		ncfg = flowsim.NetworkConfig{Config: fcfg, Net: net}
	} else {
		fcfg.QueueCapacityPackets = cfg.Net.QueueCapacityPackets
		fcfg.ECNThresholdPackets = cfg.Net.ECNThresholdPackets
		fcfg.BaseRTT = cfg.Net.BaseRTT()
		ncfg, err = flowsim.SingleQueue(fcfg)
	}
	var fres *flowsim.Result
	if err == nil {
		fres, err = flowsim.RunNetwork(ncfg)
	}
	if err != nil {
		panic(fmt.Sprintf("core: flow-level simulation with %d flows: %v", fcfg.Flows, err))
	}
	return fres
}

// harvestFlowRun publishes a flow-level run's telemetry under the same
// metric schema as the packet harvest, so dashboards and snapshot tooling
// see one key set regardless of fidelity. Counters with no fluid
// counterpart — free-list, calendar-queue scheduler, packet pool, the
// uplink port — report explicit zeros rather than going absent.
func harvestFlowRun(cfg *SimConfig, r *flowsim.Result, wallStart time.Time) {
	reg := cfg.Metrics
	if reg == nil {
		return
	}
	experiment := cfg.Experiment
	if experiment == "" {
		experiment = "adhoc"
	}
	labels := []string{"experiment", experiment, "flows", strconv.Itoa(cfg.Flows)}
	if cfg.Clos != nil {
		// Mirror the packet-side fabric harvest's placement label so both
		// fidelities publish the same key set for Clos experiments.
		placement := cfg.Placement
		if placement == "" {
			placement = workload.PlacementCrossRack
		}
		labels = append(labels, "placement", placement)
	}
	c := reg.Collector(labels...)
	defer c.Close()

	c.Counter("runs").Inc()
	// One fluid step is the flow-level analogue of one executed event.
	c.Counter("sim_events_scheduled").Add(int64(r.Steps))
	c.Counter("sim_events_executed").Add(int64(r.Steps))
	c.Counter("sim_freelist_hits").Add(0)
	c.Counter("sim_freelist_misses").Add(0)
	c.Counter("sim_time_ns").Add(int64(r.SimNow))
	c.Counter("sim_sched_resizes").Add(0)
	c.Counter("sim_sched_overflow_migrations").Add(0)
	c.Counter("sim_sched_now_fastpath").Add(0)

	admitted := r.SentPackets - r.Drops
	if admitted < 0 {
		admitted = 0
	}
	c.Counter("net_queue_enqueued_packets", "port", "bottleneck").Add(admitted)
	c.Counter("net_queue_enqueued_bytes", "port", "bottleneck").Add(admitted * netsim.MTU)
	c.Counter("net_queue_dropped_packets", "port", "bottleneck").Add(r.Drops)
	c.Counter("net_queue_dropped_bytes", "port", "bottleneck").Add(r.Drops * netsim.MTU)
	c.Counter("net_queue_marked_packets", "port", "bottleneck").Add(r.Marks)
	c.Gauge("net_queue_peak_packets", obs.MergeMax, "port", "bottleneck").Set(r.MaxQueue)
	c.Gauge("net_queue_peak_bytes", obs.MergeMax, "port", "bottleneck").Set(r.MaxQueue * netsim.MTU)
	for _, m := range []string{"net_queue_enqueued_packets", "net_queue_enqueued_bytes",
		"net_queue_dropped_packets", "net_queue_dropped_bytes", "net_queue_marked_packets"} {
		c.Counter(m, "port", "uplink").Add(0)
	}
	c.Gauge("net_queue_peak_packets", obs.MergeMax, "port", "uplink").Set(0)
	c.Gauge("net_queue_peak_bytes", obs.MergeMax, "port", "uplink").Set(0)

	wire := int64(netsim.MTU + netsim.EthernetOverhead)
	c.Counter("net_link_tx_packets", "port", "bottleneck").Add(r.DeliveredPackets)
	c.Counter("net_link_tx_bytes", "port", "bottleneck").Add(r.DeliveredPackets * wire)
	active := sim.Time(cfg.Bursts) * cfg.Interval
	if r.SimNow < active {
		active = r.SimNow
	}
	hostBps := cfg.Net.HostLinkBps
	if cfg.Clos != nil {
		hostBps = cfg.Clos.HostLinkBps
	}
	if secs := active.Seconds(); secs > 0 && hostBps > 0 {
		util := float64(r.DeliveredPackets*wire) * 8 / (float64(hostBps) * secs)
		c.Gauge("net_link_utilization", obs.MergeMax, "port", "bottleneck").Set(util)
	}
	c.Counter("net_link_tx_packets", "port", "uplink").Add(0)
	c.Counter("net_link_tx_bytes", "port", "uplink").Add(0)
	c.Gauge("net_link_utilization", obs.MergeMax, "port", "uplink").Set(0)

	for _, m := range []string{"net_pool_gets", "net_pool_puts", "net_pool_hits", "net_pool_misses"} {
		c.Counter(m).Add(0)
	}
	c.Gauge("net_pool_outstanding_end", obs.MergeMax).Set(0)

	c.Counter("tcp_sent_packets").Add(r.SentPackets)
	c.Counter("tcp_sent_bytes").Add(r.SentPackets * netsim.MSS)
	c.Counter("tcp_retransmit_packets").Add(r.RetransmitPackets)
	c.Counter("tcp_fast_retransmits").Add(r.FastRetransmits)
	c.Counter("tcp_timeouts").Add(r.Timeouts)
	// The fluid model has no discrete ACKs; one delivered packet stands in
	// for one ACK, and the marked volume for ECE echoes.
	c.Counter("tcp_acks").Add(r.DeliveredPackets)
	c.Counter("tcp_ece_acks").Add(r.Marks)
	// The fluid backend has no per-packet control plane, so explicit
	// incast notification never runs there (scenario validation rejects
	// the combination); publish the zero so the key set stays dense.
	c.Counter("tcp_incast_notifies").Add(0)
	c.Counter("cc_cwnd_updates").Add(r.CwndUpdates)
	harvestCohorts(c, r.Cohorts, r.CohortSplits, r.PeakCohortWeight)

	// End state is kept per record; expand it flow by flow in flow-ID
	// order, so the histograms' float sums match a per-flow walk.
	flowRec, err := r.Final.FlowRecords()
	if err != nil {
		panic(fmt.Sprintf("core: flow-level end state of %d flows: %v", cfg.Flows, err))
	}
	cwnd := c.Histogram("cc_final_cwnd_bytes", cwndBuckets)
	for _, i := range flowRec {
		cwnd.Observe(r.Final.Win[i] * float64(netsim.MSS))
	}
	alpha := c.Histogram("cc_final_alpha", alphaBuckets)
	if r.Final.Alpha != nil {
		for _, i := range flowRec {
			alpha.Observe(r.Final.Alpha[i])
		}
	}
	bct := c.Histogram("burst_bct_ms", bctBuckets)
	for _, b := range r.BCTs {
		bct.Observe(b.Milliseconds())
	}

	if !wallStart.IsZero() {
		c.Gauge("wall_run_seconds", obs.MergeSum).Set(time.Since(wallStart).Seconds())
	}
}
