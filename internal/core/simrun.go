package core

import (
	"fmt"

	"incastlab/internal/audit"
	"incastlab/internal/cc"
	"incastlab/internal/flowsim"
	"incastlab/internal/netsim"
	"incastlab/internal/obs"
	"incastlab/internal/sim"
	"incastlab/internal/tcp"
	"incastlab/internal/workload"
)

// SimConfig describes one packet-level incast simulation in the paper's
// Section 4 style: repeated equal-demand bursts over a dumbbell, with the
// first burst discarded as a slow-start transient.
type SimConfig struct {
	// Flows is the incast degree N.
	Flows int
	// BurstDuration is the target burst length (demand = bottleneck rate x
	// duration, split equally).
	BurstDuration sim.Time
	// Bursts is the total number of bursts (first one discarded).
	Bursts int
	// Interval is the burst start-to-start spacing. The paper's per-burst
	// semantics require it to exceed the minimum RTO so that one burst's
	// timeout recovery does not bleed into the next; see EXPERIMENTS.md.
	Interval sim.Time
	// JitterMax is the per-flow start jitter ceiling: each flow's release
	// within a burst is delayed uniformly in [0, JitterMax] (default
	// 100 us). Synchronized incasts at very large degree can lock their
	// retransmission timers together; widening the jitter is how a
	// scenario desynchronizes them, on either backend.
	JitterMax sim.Time
	// Net is the dumbbell, with one sender per flow; the zero value means
	// the paper defaults (netsim.DefaultDumbbellConfig). Set it whole, or
	// start from the defaults: Validate refuses a partly set one.
	Net netsim.DumbbellConfig
	// Alg builds the congestion-control algorithm per flow; nil means
	// DCTCP with the paper's parameters.
	Alg func(flow int) cc.Algorithm
	// Sender/Receiver override transport tuning; zero values mean the
	// paper defaults (200 ms min RTO, immediate ACKs).
	Sender   tcp.SenderConfig
	Receiver tcp.ReceiverConfig
	// Admitter optionally schedules flow release within bursts.
	Admitter workload.Admitter
	// SampleInterval is the queue sampling granularity (default 100 us).
	SampleInterval sim.Time
	// SampleWindow is how long after each burst start to sample (default
	// burst duration + 5 ms).
	SampleWindow sim.Time
	// ExternalBufferBytes models rack-level contention when the topology
	// uses a shared buffer: bytes consumed by bursts to other hosts.
	ExternalBufferBytes int
	// EnableICTCP manages every flow's receive window with a receiver-side
	// ICTCP controller (pair it with a loss-based Alg such as Reno, as the
	// original scheme assumes no ECN).
	EnableICTCP bool
	// TrackInFlight additionally samples the per-flow in-flight
	// distribution over the measured window of the last burst (Figure 7).
	TrackInFlight bool
	// Audit runs the simulation in checked mode: an internal/audit Auditor
	// watches the whole topology (conservation, queue bounds, clock,
	// cc protocol bounds, pool hygiene) and any violation panics with a
	// summary. Results are bit-identical to an unaudited run.
	Audit bool
	// Seed drives start jitter.
	Seed uint64
	// Metrics, when non-nil, receives the run's telemetry at the end of
	// the simulation (see internal/obs). Harvesting happens after the run
	// from counters the simulation maintains anyway, so results are
	// bit-identical with or without it.
	Metrics *obs.Registry
	// Experiment labels the harvested metrics with the experiment that
	// spawned the run; empty means "adhoc".
	Experiment string
	// Fidelity selects the simulation backend: FidelityPacket (the
	// default, also selected by "") runs the discrete-event packet
	// simulator; FidelityFlow runs the fluid fast path in
	// internal/flowsim. Flow-level runs reject packet-level-only features;
	// see FlowCompatible.
	Fidelity string
	// Aggregation selects how the flow-level backend represents the flow
	// population: AggregationPerFlow (one record per flow),
	// AggregationCohort (equivalence classes integrated as weighted
	// records, split lazily and exactly on divergence), or
	// AggregationAuto / "" (cohorts from flowsim's threshold up). It is a
	// FidelityFlow knob; Validate rejects it on a packet-level run.
	Aggregation string
	// Clos, when non-nil, runs the incast over a leaf/spine fabric instead
	// of the dumbbell: the aggregator in rack 0 and workers placed by
	// Placement. Net is ignored; queue/buffer tuning comes from the Clos
	// config itself. Both fidelities model the fabric: packet via
	// netsim.NewClos, flow via the multi-queue fluid solver over
	// ClosConfig.FluidPaths (same ECMP seed, same spine per flow).
	Clos *netsim.ClosConfig
	// Placement is where Clos workers sit relative to the aggregator:
	// workload.PlacementCrossRack (default) or workload.PlacementSameRack.
	Placement string
	// Aggregators is the number of concurrent Clos incasts sharing the
	// fabric (0 or 1 = the classic single aggregator at host 0); Flows is
	// the per-aggregator degree. See workload.ClosFlowEndpoints.
	Aggregators int
	// Notification, when non-nil, enables switch-side incast detection and
	// the explicit notification path (see NotificationConfig). Packet
	// fidelity only.
	Notification *NotificationConfig
}

// Validate reports whether the configuration can run; it is the one list
// of rules every row meets before RunIncastSim takes it. The rules are a
// positive degree, a known fidelity and aggregation (the aggregation only
// at FidelityFlow), ExternalBufferBytes only with a shared buffer, a
// dumbbell that is unset or has positive link rates (and neither
// Aggregators nor Placement, which only a Clos reads), and a Clos fabric
// that builds and fits its placement. At FidelityFlow it also
// applies FlowCompatible. A packet row is checked without filling the
// config or building its algorithm.
func (c SimConfig) Validate() error {
	if c.Flows <= 0 {
		return errNoFlows(c.Flows)
	}
	if err := checkBackend(c.Fidelity, c.Aggregation); err != nil {
		return err
	}
	if c.Clos != nil {
		if _, err := workload.CheckClosPlacement(*c.Clos, c.Flows, c.Aggregators, c.Placement); err != nil {
			return err
		}
	} else {
		if c.Aggregators > 1 {
			return fmt.Errorf("core: Aggregators (%d) needs a Clos fabric, but the row runs on the dumbbell (set Clos, or leave Aggregators 0)",
				c.Aggregators)
		}
		if c.Placement != "" {
			return fmt.Errorf("core: Placement %q needs a Clos fabric, but the row runs on the dumbbell (set Clos, or leave Placement empty)",
				c.Placement)
		}
		if c.Net != (netsim.DumbbellConfig{}) {
			if err := c.Net.Validate(); err != nil {
				return fmt.Errorf("%w; start Net from netsim.DefaultDumbbellConfig(), or leave it zero for the defaults", err)
			}
		}
	}
	if c.ExternalBufferBytes > 0 && c.ports().SharedBufferBytes <= 0 {
		return fmt.Errorf("core: ExternalBufferBytes (%d) models contention in a shared buffer, but the topology has none (set Net or Clos SharedBufferBytes)",
			c.ExternalBufferBytes)
	}
	if c.Fidelity == FidelityFlow {
		return c.FlowCompatible()
	}
	return nil
}

// ports returns the row's per-port settings: the fabric's on a Clos, the
// dumbbell's otherwise.
func (c *SimConfig) ports() netsim.PortConfig {
	if c.Clos != nil {
		return c.Clos.PortConfig
	}
	return c.Net.PortConfig
}

// errNoFlows is the error for a run without a positive incast degree.
func errNoFlows(n int) error {
	return fmt.Errorf("core: a simulation needs a positive incast degree (Flows = %d)", n)
}

// checkBackend reports whether fidelity names a backend and aggregation a
// flow-population level that the backend takes.
func checkBackend(fidelity, aggregation string) error {
	if fidelity != "" && fidelity != FidelityPacket && fidelity != FidelityFlow {
		return fmt.Errorf("core: unknown fidelity %q (valid: %q, %q)",
			fidelity, FidelityPacket, FidelityFlow)
	}
	if !flowsim.KnownAggregation(aggregation) {
		return fmt.Errorf("core: unknown aggregation %q (valid: %q, %q, %q)",
			aggregation, AggregationAuto, AggregationCohort, AggregationPerFlow)
	}
	if aggregation != "" && fidelity != FidelityFlow {
		return fmt.Errorf("core: aggregation %q requires fidelity %q (the packet backend is per-packet by construction)",
			aggregation, FidelityFlow)
	}
	return nil
}

// fill applies the paper defaults.
func (c *SimConfig) fill() {
	if c.Flows <= 0 {
		panic("core: simulation needs flows")
	}
	if c.BurstDuration <= 0 {
		c.BurstDuration = 15 * sim.Millisecond
	}
	if c.Bursts <= 0 {
		c.Bursts = 11
	}
	if c.Interval <= 0 {
		c.Interval = 250 * sim.Millisecond
	}
	if c.JitterMax <= 0 {
		c.JitterMax = 100 * sim.Microsecond
	}
	if c.Net == (netsim.DumbbellConfig{}) {
		c.Net = netsim.DefaultDumbbellConfig()
	}
	if c.Alg == nil {
		c.Alg = func(int) cc.Algorithm { return cc.NewDCTCP(cc.DefaultDCTCPConfig()) }
	}
	if c.SampleInterval <= 0 {
		c.SampleInterval = 100 * sim.Microsecond
	}
	if c.SampleWindow <= 0 {
		c.SampleWindow = c.BurstDuration + 5*sim.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// SimResult aggregates one simulation run over its measured bursts (all but
// the first).
type SimResult struct {
	Flows   int
	AlgName string
	// Fidelity records which backend produced the result (FidelityPacket
	// or FidelityFlow).
	Fidelity string

	// Measured is the Section 4 summary over the measured bursts (burst
	// 1 onward), filled the same way at either fidelity.
	flowsim.Measured
	// IncastNotifies counts explicit incast notifications delivered to
	// senders and DetectorFirings counts switch-side detector (or, on a
	// Clos with distributed detection, leaf coordinator) firings — both
	// over the measured window, both zero when notification is off.
	IncastNotifies, DetectorFirings int64
	// DetectorFirstFire is the virtual time of the first detector firing
	// over the run's whole lifetime (the onset detection latency, since the
	// first burst starts at t=0); zero when it never fired.
	DetectorFirstFire sim.Time

	// InFlight is the Figure 7 trace over the last burst (nil unless
	// requested).
	InFlight *workload.InFlightTrace

	// Events is the number of simulator events the run executed and SimNow
	// is the virtual time it reached — together they give benchmarks an
	// events/sec figure. Neither is rendered into CSV artifacts.
	Events uint64
	SimNow sim.Time

	// QueueCapacity and ECNThreshold echo the topology, for rendering.
	QueueCapacity, ECNThreshold int
}

// RunIncastSim executes the simulation and gathers the per-burst-averaged
// queue trace and counters. A configuration that fails Validate panics
// with its error; front doors that take user input validate first.
func RunIncastSim(cfg SimConfig) *SimResult {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	cfg.fill()
	if cfg.Fidelity == FidelityFlow {
		return runFlowIncastSim(cfg)
	}
	wallStart := startWall(cfg.Metrics)
	// Reuse a pooled engine + packet pool unless the run is instrumented
	// (see simpool.go for why metrics force a cold start).
	reuse := cfg.Metrics == nil
	res0 := acquireSimResources(reuse)
	eng := res0.eng

	f := newFabric(eng, &cfg, res0.pool)
	q := f.ports[0].link.Queue()
	if cfg.EnableICTCP {
		// One controller per receiving host, each budgeting its own NIC.
		ctrls := map[*netsim.Host]*tcp.ICTCP{}
		for _, r := range f.flows.Receivers {
			ctrl := ctrls[r.Host()]
			if ctrl == nil {
				ctrl = tcp.NewICTCP(eng, tcp.DefaultICTCPConfig(cfg.ports().HostLinkBps, flowBaseRTT(&cfg)))
				ctrls[r.Host()] = ctrl
			}
			ctrl.Manage(r)
		}
	}
	if cfg.ExternalBufferBytes > 0 {
		q.SharedBuffer().SetExternalBytes(cfg.ExternalBufferBytes)
	}

	var auditor *audit.Auditor
	if cfg.Audit {
		auditor = startAudit(eng, f.watch, f.flows.Senders())
	}

	res := &SimResult{
		Flows:         cfg.Flows,
		AlgName:       f.flows.Senders()[0].Algorithm().Name(),
		Fidelity:      FidelityPacket,
		QueueCapacity: q.CapacityPackets(),
		ECNThreshold:  q.ECNThresholdPackets(),
	}

	probe := newBurstProbe(&cfg, eng, q, f.flows)
	if cfg.Notification != nil {
		probe.det = f.notify(cfg.Notification)
	}

	if cfg.TrackInFlight {
		// Figure 7 samples the last burst.
		res.InFlight = workload.SampleInFlight(eng, f.flows.Senders(),
			sim.Time(cfg.Bursts-1)*cfg.Interval, cfg.SampleInterval, probe.win.Samples())
	}

	// Run until everything completes: the nominal end plus generous
	// recovery headroom for timeout-dominated modes.
	deadline := sim.Time(cfg.Bursts)*cfg.Interval + 10*sim.Second
	eng.RunUntil(deadline)
	if !f.flows.Done() {
		panic(fmt.Sprintf("core: simulation with %d flows did not complete by %v", cfg.Flows, deadline))
	}
	if auditor != nil {
		finishAudit(auditor, fmt.Sprintf("%d-flow simulation", cfg.Flows))
	}

	probe.finish(res)

	if cfg.Metrics != nil {
		harvest(&cfg, wallStart, f.totals(eng))
	}
	// Read the engine counters before release: Reset zeroes them.
	res.Events = eng.Executed()
	res.SimNow = eng.Now()
	releaseSimResources(res0, reuse)
	return res
}

// startAudit starts a checked-mode auditor over a whole topology, which
// watch registers, and its senders.
func startAudit(eng *sim.Engine, watch func(*audit.Auditor), senders []*tcp.Sender) *audit.Auditor {
	a := audit.New(eng, audit.Config{RequireDrained: true})
	watch(a)
	for _, s := range senders {
		a.WatchSender(s)
	}
	a.Start()
	return a
}

// finishAudit closes a checked run and panics, naming the run, on any
// invariant violation.
func finishAudit(a *audit.Auditor, run string) {
	a.Finish()
	if err := a.Err(); err != nil {
		panic(fmt.Sprintf("core: %s failed its invariant audit: %v", run, err))
	}
}
