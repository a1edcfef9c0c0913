package core

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"

	"incastlab/internal/cc"
	"incastlab/internal/netsim"
	"incastlab/internal/predict"
	"incastlab/internal/scenario"
	"incastlab/internal/schedule"
	"incastlab/internal/sim"
	"incastlab/internal/trace"
)

// This file lowers declarative scenario.Specs into packet-level SimConfigs
// and runs them through the shared sweep loop. The ten built-in ablations
// are specs compiled here (see ablations.go), and `incastsim -scenario`
// feeds user-written spec files through the same path, so a scenario
// behaves identically whether it ships with the repo or arrives as JSON.

// CompileScenario lowers a spec into one SimConfig per sweep row, plus the
// axis columns that label each row: header holds the axis column names and
// labels[i] the row's values for them. Each row is stamped with opt
// (Options.stamp) before it is checked, so the rows returned are the rows
// RunScenario and RunScenarioCached run, backend included. Two rulebooks
// guard it, before any row runs: scenario.Validate checks what the spec
// says on its own (field ranges, vocabulary, which blocks an axis needs),
// and SimConfig.Validate checks every stamped row (fidelity and
// aggregation, fabric capacity, the fluid backend's limits). A row that
// fails is named in the error by its index and labels.
func CompileScenario(opt Options, spec scenario.Spec) (header []string, labels [][]string, cfgs []SimConfig, err error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, nil, err
	}

	column := spec.Sweep.Column
	if column == "" {
		column = spec.Sweep.Axis
	}

	switch {
	case spec.Sweep.Axis == "flows":
		header = []string{column}
		for i, v := range spec.Sweep.Values {
			f, _ := v.Number()
			cfgs = append(cfgs, compileRow(opt, spec, int(f), v))
			labels = append(labels, []string{axisLabel(spec.Sweep, i, v)})
		}
	case len(spec.Sweep.Flows) > 0:
		// Crossed sweep: incast degrees outermost, axis values inner.
		header = []string{"flows", column}
		for _, n := range spec.Sweep.Flows {
			for i, v := range spec.Sweep.Values {
				cfgs = append(cfgs, compileRow(opt, spec, n, v))
				labels = append(labels, []string{strconv.Itoa(n), axisLabel(spec.Sweep, i, v)})
			}
		}
	default:
		header = []string{column}
		for i, v := range spec.Sweep.Values {
			cfgs = append(cfgs, compileRow(opt, spec, spec.Workload.Flows, v))
			labels = append(labels, []string{axisLabel(spec.Sweep, i, v)})
		}
	}

	for i := range cfgs {
		opt.stamp(spec.Name, &cfgs[i])
		if err := cfgs[i].Validate(); err != nil {
			return nil, nil, nil, fmt.Errorf("scenario %q row %d (%s): %w",
				spec.Name, i, strings.Join(labels[i], "/"), err)
		}
	}
	return header, labels, cfgs, nil
}

// axisLabel renders a sweep value for its table column.
func axisLabel(sw scenario.Sweep, i int, v scenario.Value) string {
	if len(sw.Labels) > 0 {
		return sw.Labels[i]
	}
	if f, ok := v.Number(); ok {
		return trace.Float(f)
	}
	return v.String()
}

// compileRow builds the SimConfig for one sweep row: workload and
// transport bases first, then the row's dumbbell (gated for the
// shared-buffer axis), then the swept value on top, and last the fabric
// that carries the dumbbell's ports when the spec has a clos block.
func compileRow(opt Options, spec scenario.Spec, n int, v scenario.Value) SimConfig {
	cfg := SimConfig{
		Flows:         n,
		BurstDuration: msTime(spec.Workload.BurstMS, 15),
		Bursts:        scenarioBursts(opt, spec.Workload),
		Fidelity:      spec.Fidelity,
		Aggregation:   spec.Aggregation,
	}
	if spec.Workload.IntervalMS > 0 {
		cfg.Interval = msTime(spec.Workload.IntervalMS, 0)
	}
	if spec.Workload.JitterUS > 0 {
		cfg.JitterMax = sim.Time(spec.Workload.JitterUS * float64(sim.Microsecond))
	}
	if tr := spec.Transport; tr != nil {
		if tr.MinRTOMS > 0 {
			cfg.Sender.MinRTO = msTime(tr.MinRTOMS, 0)
		}
		if tr.DelayedAcks {
			cfg.Receiver.DelayedAcks = true
			cfg.Receiver.AckEvery = ackEvery(tr.AckEvery)
		}
		if tr.IdleRestart {
			cfg.Sender.RestartAfterIdle = true
		}
		if tr.ICTCP {
			cfg.EnableICTCP = true
		}
	}

	// The shared-buffer axis toggles the topology's pooled memory per row;
	// every other axis sees the full topology on every row.
	shared := true
	if spec.Sweep.Axis == "shared_buffer" {
		shared, _ = v.Bool()
	}
	net := scenarioNet(spec.Topology, shared)
	if shared && spec.Topology != nil && spec.Topology.ContendBytes > 0 {
		cfg.ExternalBufferBytes = spec.Topology.ContendBytes
	}

	// The congestion-control factory is named here and built after the
	// clos block: Swift's target delay and the guardrail's cap size
	// themselves from the row's base RTT, which the fabric and the
	// placement axis decide. An empty name keeps the engine default.
	var algName string
	if spec.CC != nil {
		algName = cmp.Or(spec.CC.Algorithm, "dctcp")
	}

	switch spec.Sweep.Axis {
	case "flows", "shared_buffer":
		// Fully handled above.
	case "g":
		g, _ := v.Number()
		algName = ""
		cfg.Alg = func(int) cc.Algorithm {
			c := cc.DefaultDCTCPConfig()
			c.G = g
			return cc.NewDCTCP(c)
		}
	case "ecn_threshold_pkts":
		k, _ := v.Number()
		net.ECNThresholdPackets = int(k)
	case "min_rto_ms":
		ms, _ := v.Number()
		cfg.Sender.MinRTO = msTime(ms, 0)
	case "marking_ewma":
		w, _ := v.Number()
		net.ECNAverageWeight = w
	case "delayed_acks":
		if on, _ := v.Bool(); on {
			cfg.Receiver.DelayedAcks = true
			ae := 0
			if spec.Transport != nil {
				ae = spec.Transport.AckEvery
			}
			cfg.Receiver.AckEvery = ackEvery(ae)
		}
	case "idle_restart":
		if on, _ := v.Bool(); on {
			cfg.Sender.RestartAfterIdle = true
		}
	case "ictcp":
		on, _ := v.Bool()
		cfg.EnableICTCP = on
	case "cc":
		algName, _ = v.Str()
	case "scheme":
		name, _ := v.Str()
		switch {
		case name == "dctcp+guardrail":
			algName = name
		case scenario.WaveSize(name) > 0:
			cfg.Admitter = schedule.NewWave(scenario.WaveSize(name))
		}
	case "placement":
		name, _ := v.Str()
		cfg.Placement = name
	case "aggregators":
		a, _ := v.Number()
		cfg.Aggregators = int(a)
	case "notification":
		// Handled below with the spec's notification block.
	}

	// The notification block arms the mechanism; the "notification" axis
	// toggles it per row (other axes see it on every row).
	if spec.Notification != nil {
		on := true
		if spec.Sweep.Axis == "notification" {
			on, _ = v.Bool()
		}
		if on {
			cfg.Notification = scenarioNotification(spec.Notification)
		}
	}

	// A clos block lifts the row onto the fabric, which takes the
	// dumbbell's ports after the axis switch, so per-row port settings (ECN
	// threshold, EWMA weight, shared-buffer toggles) carry over.
	if spec.Topology != nil && spec.Topology.Clos != nil {
		scenarioClos(opt, spec.Topology.Clos, net.PortConfig, &cfg)
	} else {
		cfg.Net = net
	}
	if algName != "" {
		cfg.Alg = ccByName(opt, algName, spec.CC, &cfg)
	}
	return cfg
}

// scenarioClos lifts a row onto the fabric the spec's clos block
// describes, with the ports of the row's compiled dumbbell: host rate,
// queue bounds, marking and the per-leaf shared buffer. The clos block
// supplies the fabric's shape.
func scenarioClos(opt Options, cb *scenario.Clos, ports netsim.PortConfig, cfg *SimConfig) {
	cc := netsim.DefaultClosConfig(cb.Racks, cb.HostsPerRack)
	cc.PortConfig = ports
	if cb.Spines > 0 {
		cc.Spines = cb.Spines
	}
	switch {
	case cb.SpineLinkGbps > 0:
		cc.SpineLinkBps = int64(cb.SpineLinkGbps * float64(netsim.Gbps))
	case cb.Oversubscription > 0:
		// offered / (spines * uplink) = F  =>  uplink = offered / (spines*F).
		offered := float64(cb.HostsPerRack) * float64(cc.HostLinkBps)
		cc.SpineLinkBps = int64(offered/(float64(cc.Spines)*cb.Oversubscription) + 0.5)
	}
	cc.ECMPSeed = cb.ECMPSeed
	if cc.ECMPSeed == 0 {
		// Tie ECMP placement to the run seed, so -seed reshuffles paths the
		// way a production fabric rehash would.
		cc.ECMPSeed = opt.seed()
	}

	cfg.Clos = &cc
	if cfg.Placement == "" {
		cfg.Placement = cb.Placement
	}
	if cfg.Aggregators == 0 {
		cfg.Aggregators = cb.Aggregators
	}
}

// scenarioNotification lowers a spec's notification block; zero fields stay
// zero here and pick up their defaults inside netsim/cc.
func scenarioNotification(n *scenario.Notification) *NotificationConfig {
	return &NotificationConfig{
		Window:        usTime(n.WindowUS),
		SlopePackets:  n.SlopePackets,
		BurstArrivals: n.BurstArrivals,
		Cooldown:      usTime(n.CooldownUS),
		Backoff:       n.Backoff,
		HoldAcks:      n.HoldAcks,
		MinPorts:      n.MinPorts,
		CoordWindow:   usTime(n.CoordWindowUS),
		FlowHorizon:   usTime(n.FlowHorizonUS),
	}
}

// usTime converts fractional microseconds to simulation time (0 stays 0).
func usTime(us float64) sim.Time {
	return sim.Time(us * float64(sim.Microsecond))
}

// scenarioNet builds a row's dumbbell: the paper defaults with the spec's
// overrides applied. shared gates the pooled-buffer fields so the
// "shared_buffer" axis can toggle them per row.
func scenarioNet(topo *scenario.Topology, shared bool) netsim.DumbbellConfig {
	net := netsim.DefaultDumbbellConfig()
	if topo == nil {
		return net
	}
	if topo.HostLinkGbps > 0 {
		net.HostLinkBps = int64(topo.HostLinkGbps * float64(netsim.Gbps))
	}
	if topo.CoreLinkGbps > 0 {
		net.CoreLinkBps = int64(topo.CoreLinkGbps * float64(netsim.Gbps))
	}
	if topo.QueuePackets > 0 {
		net.QueueCapacityPackets = topo.QueuePackets
		net.QueueCapacityBytes = topo.QueuePackets * netsim.MTU
	}
	if topo.ECNThresholdPackets > 0 {
		net.ECNThresholdPackets = topo.ECNThresholdPackets
	}
	if shared && topo.SharedBufferBytes > 0 {
		net.SharedBufferBytes = topo.SharedBufferBytes
		net.SharedBufferAlpha = topo.SharedBufferAlpha
		if net.SharedBufferAlpha == 0 {
			net.SharedBufferAlpha = 1
		}
	}
	return net
}

// ccByName maps a congestion-control name (a scenario CC name or the
// "dctcp+guardrail" scheme) to an algorithm factory for a compiled row,
// whose topology (Net, or Clos and Placement) is set: Swift's target delay
// and the guardrail's cap size themselves from its base RTT (flowBaseRTT,
// the one ICTCP and the fluid laws use) and its ports. nil (for plain
// DCTCP with no overrides) defers to the engine default, matching a
// hand-written SimConfig that leaves Alg unset.
func ccByName(opt Options, name string, c *scenario.CC, row *SimConfig) func(int) cc.Algorithm {
	var g float64
	var iw int
	if c != nil {
		g = c.G
		iw = c.InitialWindowPkts
	}
	switch name {
	case "dctcp":
		if g == 0 {
			return nil
		}
		return func(int) cc.Algorithm {
			dc := cc.DefaultDCTCPConfig()
			dc.G = g
			return cc.NewDCTCP(dc)
		}
	case "reno":
		if iw == 0 {
			iw = 10
		}
		window := iw * netsim.MSS
		return func(int) cc.Algorithm { return cc.NewReno(window) }
	case "d2tcp":
		return func(int) cc.Algorithm { return cc.NewD2TCP(cc.DefaultD2TCPConfig()) }
	case "d2tcp-tight":
		return func(int) cc.Algorithm {
			dcfg := cc.DefaultD2TCPConfig()
			dcfg.D = 2
			return cc.NewD2TCP(dcfg)
		}
	case "swift":
		rtt := flowBaseRTT(row)
		return func(int) cc.Algorithm { return cc.NewSwift(cc.DefaultSwiftConfig(rtt)) }
	case "dctcp+guardrail":
		return guardrailAlg(opt, row)
	}
	// Unreachable after Validate; fail loudly rather than silently fall
	// back to the default algorithm.
	panic(fmt.Sprintf("core: unknown congestion-control name %q", name))
}

// guardrailAlg builds the Section 5.1 predicted-degree clamp for a
// compiled row's incast, capped at its host link's BDP and its ports'
// marking threshold. The predictor learns the service's incast degree from
// observed bursts (Section 3.3 stability makes this meaningful); here it
// observes the true degree with sampling noise. The predictor's RNG draws
// happen at compile time, before the fan-out, so the degree each row sees
// does not depend on worker interleaving.
func guardrailAlg(opt Options, row *SimConfig) func(int) cc.Algorithm {
	n, ports := row.Flows, row.ports()
	bdp, ecnBytes := ports.BDPBytes(flowBaseRTT(row)), ports.ECNThresholdPackets*netsim.MTU
	pr := predict.New(predict.DefaultConfig())
	rng := sim.NewRand(opt.seed())
	for i := 0; i < 64; i++ {
		pr.Observe(n - 3 + rng.IntN(7))
	}
	degree := pr.PredictedDegree()
	return func(int) cc.Algorithm {
		g := cc.NewGuardrail(cc.NewDCTCP(cc.DefaultDCTCPConfig()), bdp, ecnBytes)
		g.Predict(degree)
		return g
	}
}

// msTime converts fractional milliseconds to simulation time, falling back
// to def when the spec omits the field.
func msTime(ms, def float64) sim.Time {
	if ms <= 0 {
		ms = def
	}
	return sim.Time(ms * float64(sim.Millisecond))
}

// ackEvery applies the delayed-ACK coalescing default.
func ackEvery(n int) int {
	if n <= 0 {
		return 2
	}
	return n
}

// scenarioBursts picks the burst count by Quick mode, honoring the spec's
// overrides.
func scenarioBursts(opt Options, w scenario.Workload) int {
	if opt.Quick {
		if w.QuickBursts > 0 {
			return w.QuickBursts
		}
		return 4
	}
	if w.Bursts > 0 {
		return w.Bursts
	}
	return 11
}

// RunScenario compiles and runs a declarative scenario: one packet-level
// simulation per sweep row, rendered into the shared metric table (queue
// occupancy, spike, burst completion time, timeouts, drops, mark rate).
func RunScenario(opt Options, spec scenario.Spec) (*TableResult, error) {
	header, labels, cfgs, err := CompileScenario(opt, spec)
	if err != nil {
		return nil, err
	}
	sims := runIncastSims(opt, cfgs)
	cells := make([][]string, len(sims))
	for i, m := range sims {
		cells[i] = ablationRow(m)
	}
	return scenarioTable(spec, header, labels, cells), nil
}

// scenarioTable renders a finished sweep: each row's axis labels and
// metric cells in the shared metric table, under the spec's title and
// followed by its notes.
func scenarioTable(spec scenario.Spec, header []string, labels, cells [][]string) *TableResult {
	t := &trace.Table{Header: append(append([]string{}, header...), ablationHeader...)}
	for i := range cells {
		t.AddRow(append(append([]string{}, labels[i]...), cells[i]...)...)
	}
	title := spec.Title
	if title == "" {
		title = "Scenario: " + spec.Name
	}
	var b strings.Builder
	b.WriteString(section(title))
	b.WriteString(t.Text())
	if spec.Notes != "" {
		b.WriteString(spec.Notes)
		b.WriteString("\n")
	}
	return &TableResult{
		ExpName:     spec.Name,
		Artifacts:   []Artifact{{File: spec.Name + ".csv", Table: t}},
		SummaryText: b.String(),
	}
}

// mustScenario runs a built-in spec. The built-ins are covered by the
// registry contract tests, so a compile failure here is a programming
// error, not an input error.
func mustScenario(opt Options, spec scenario.Spec) *TableResult {
	r, err := RunScenario(opt, spec)
	if err != nil {
		panic(fmt.Sprintf("core: built-in scenario %q: %v", spec.Name, err))
	}
	return r
}
