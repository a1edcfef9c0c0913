package core

import (
	"fmt"

	"incastlab/internal/audit"
	"incastlab/internal/millisampler"
	"incastlab/internal/netsim"
	"incastlab/internal/sim"
	"incastlab/internal/trace"
)

func init() {
	register(80, Experiment{
		Name: "crossval", Kind: KindExtension, PaperRef: "Sections 3 & 4 (methodology cross-check)",
		Run: func(o Options) Result { return CrossValidation(o) },
	})
}

// CrossValidationResult ties the paper's two methodologies together: it
// runs the Section 4 packet-level simulator on a production-like burst
// cadence and feeds the receiver NIC's packets through the Section 3
// Millisampler pipeline. The measured bursts must recover the ground-truth
// workload (frequency, duration, incast degree) — evidence that the
// measurement tooling and the simulator agree with each other.
type CrossValidationResult struct {
	TableResult
	// Ground truth from the workload generator.
	TrueFlows         int
	TrueBurstsPerSec  float64
	TrueBurstDuration sim.Time

	// Trace is the Millisampler view of the simulated receiver.
	Trace *millisampler.Trace
	// Report is the burst analysis over that trace.
	Report *millisampler.Report
}

// CrossValidation runs a 150-flow, 2 ms incast repeating 50 times per
// second (squarely inside the paper's Figure 2 ranges) for one simulated
// second and measures it with Millisampler.
//
// Unlike the sweep experiments, this is a single engine run with nothing to
// fan out, so Options.Workers has no effect here; it parallelizes with the
// other experiments at the cmd/figures level instead.
func CrossValidation(opt Options) *CrossValidationResult {
	const (
		flows    = 150
		interval = 20 * sim.Millisecond
		duration = 2 * sim.Millisecond
	)
	bursts := 50
	if opt.Quick {
		bursts = 15
	}

	cfg := SimConfig{
		Flows: flows, BurstDuration: duration, Bursts: bursts, Interval: interval,
		Fidelity: FidelityPacket,
	}
	opt.stamp("crossval", &cfg)
	wallStart := startWall(cfg.Metrics)
	cfg.fill()
	eng := sim.NewEngine()
	f := newFabric(eng, &cfg, nil)

	// Millisampler's production deployment: 1 ms bins at the receiver NIC.
	windowMS := int(sim.Time(bursts) * interval / sim.Millisecond)
	rec := netsim.NewHostIngressRecorder(f.aggregator, 0, sim.Millisecond, windowMS)

	var auditor *audit.Auditor
	if cfg.Audit {
		auditor = startAudit(eng, f.watch, f.flows.Senders())
	}

	eng.RunUntil(sim.Time(bursts)*interval + 5*sim.Second)
	if !f.flows.Done() {
		panic("core: cross-validation incast did not complete")
	}
	if auditor != nil {
		finishAudit(auditor, "cross-validation")
	}

	if cfg.Metrics != nil {
		harvest(&cfg, wallStart, f.totals(eng))
	}

	tr, err := millisampler.FromIngressRecorder(rec, cfg.ports().HostLinkBps)
	if err != nil {
		// The recorder above is constructed with sim.Millisecond, so this
		// is unreachable short of a programming error.
		panic(fmt.Sprintf("core: cross-validation recorder: %v", err))
	}
	r := &CrossValidationResult{
		TrueFlows:         flows,
		TrueBurstsPerSec:  float64(sim.Second) / float64(interval),
		TrueBurstDuration: duration,
		Trace:             tr,
		Report:            millisampler.Analyze([]*millisampler.Trace{tr}),
	}

	cmp := r.comparisonTable()
	ts := trace.NewTable("time_ms", "util", "flows", "ecn_util")
	capacity := float64(r.Trace.LineRateBps) / 8 * float64(r.Trace.IntervalNS) / 1e9
	for i, s := range r.Trace.Samples {
		ts.AddFloats(float64(i), s.Bytes/capacity, float64(s.Flows), s.ECNBytes/capacity)
	}
	r.TableResult = TableResult{
		ExpName: "crossval",
		Artifacts: []Artifact{
			{File: "crossval.csv", Table: cmp},
			{File: "crossval_trace.csv", Table: ts},
		},
		SummaryText: section("Cross-validation: Millisampler over the packet simulator") + cmp.Text() +
			"\nThe Section 3 measurement pipeline, run over Section 4's simulated packets,\nrecovers the configured workload.\n",
	}
	return r
}

func (r *CrossValidationResult) comparisonTable() *trace.Table {
	t := trace.NewTable("metric", "workload_truth", "millisampler_measured")
	rep := r.Report
	t.AddRow("bursts_per_second", trace.Float(r.TrueBurstsPerSec),
		trace.Float(rep.BurstsPerSecond.Quantile(0.5)))
	t.AddRow("burst_duration_ms", trace.Float(r.TrueBurstDuration.Milliseconds()),
		trace.Float(rep.DurationMS.Quantile(0.5)))
	t.AddRow("incast_degree", fmt.Sprint(r.TrueFlows), trace.Float(rep.Flows.Quantile(0.5)))
	t.AddRow("incast_fraction", "1", trace.Float(rep.IncastFraction()))
	return t
}
