package core

import (
	"fmt"
	"strings"

	"incastlab/internal/millisampler"
	"incastlab/internal/services"
	"incastlab/internal/sim"
	"incastlab/internal/stats"
	"incastlab/internal/trace"
)

func init() {
	register(10, Experiment{
		Name: "table1", Kind: KindTable, PaperRef: "Table 1",
		Run: func(o Options) Result { return Table1(o) },
	})
	register(20, Experiment{
		Name: "fig1", Kind: KindFigure, PaperRef: "Figure 1",
		Run: func(o Options) Result { return Fig1ExampleTrace(o) },
	})
	register(30, Experiment{
		Name: "fig2_fig4", Kind: KindFigure, PaperRef: "Figures 2 & 4",
		Run: func(o Options) Result { return Fig2And4BurstCharacterization(o) },
	})
	register(40, Experiment{
		Name: "fig3", Kind: KindFigure, PaperRef: "Figure 3",
		Run: func(o Options) Result { return Fig3Stability(o) },
	})
}

// Table1Result reproduces Table 1: the five example services.
type Table1Result struct {
	TableResult
	Services []services.Profile
}

// Table1 returns the service registry.
func Table1(opt Options) *Table1Result {
	r := &Table1Result{Services: services.All()}
	t := trace.NewTable("service", "description")
	for _, p := range r.Services {
		t.AddRow(p.Name, p.Description)
	}
	r.TableResult = TableResult{
		ExpName:     "table1",
		Artifacts:   []Artifact{{File: "table1_services.csv", Table: t}},
		SummaryText: section("Table 1: five example services") + t.Text(),
	}
	return r
}

// Fig1Result reproduces Figure 1: a two-second example trace from one
// "aggregator" host at 1 ms granularity — throughput, active flows,
// ECN-marked throughput, and retransmissions.
type Fig1Result struct {
	TableResult
	Trace  *millisampler.Trace
	Bursts []millisampler.Burst
	// MeanUtilization should land near the paper's 10.6%.
	MeanUtilization float64
}

// Fig1ExampleTrace generates and analyzes the example trace.
func Fig1ExampleTrace(opt Options) *Fig1Result {
	p, ok := services.ByName("aggregator")
	if !ok {
		panic("core: aggregator profile missing")
	}
	ms := 2000
	if opt.Quick {
		ms = 500
	}
	// Like the paper, the example is chosen to be illustrative: scan a few
	// hosts and prefer the first trace that exhibits a retransmission
	// burst (they strike fewer than 1% of bursts, so an arbitrary host
	// often shows none). The candidates generate in parallel; the pick —
	// lowest host with a retransmission burst, else host 0 — is positional,
	// so it matches the serial scan exactly.
	type candidate struct {
		tr     *millisampler.Trace
		bursts []millisampler.Burst
		retx   bool
	}
	cands := runParallel(opt, 20, func(host int) candidate {
		c := candidate{}
		c.tr = p.Generate(services.GenConfig{Seed: opt.seed(), Host: host, DurationMS: ms})
		c.bursts = millisampler.Detect(c.tr, millisampler.DefaultBurstThreshold)
		for _, b := range c.bursts {
			if b.RetxLineRateFraction > 0 {
				c.retx = true
				break
			}
		}
		return c
	})
	pick := cands[0]
	for _, c := range cands {
		if c.retx {
			pick = c
			break
		}
	}
	r := &Fig1Result{
		Trace:           pick.tr,
		Bursts:          pick.bursts,
		MeanUtilization: pick.tr.MeanUtilization(),
	}
	r.TableResult = TableResult{
		ExpName:     "fig1",
		Artifacts:   []Artifact{{File: "fig1_example_trace.csv", Table: r.seriesTable()}},
		SummaryText: r.renderSummary(),
	}
	return r
}

// seriesTable renders the four per-millisecond series.
func (r *Fig1Result) seriesTable() *trace.Table {
	t := trace.NewTable("time_ms", "throughput_util", "active_flows", "ecn_util", "retx_util")
	capacity := float64(r.Trace.LineRateBps) / 8 * float64(r.Trace.IntervalNS) / 1e9
	for i, s := range r.Trace.Samples {
		t.AddFloats(float64(i), s.Bytes/capacity, float64(s.Flows),
			s.ECNBytes/capacity, s.RetxBytes/capacity)
	}
	return t
}

func (r *Fig1Result) renderSummary() string {
	var b strings.Builder
	b.WriteString(section("Figure 1: example incast bursts at one aggregator host"))
	incasts := 0
	var maxFlows int
	var maxRetx float64
	for _, burst := range r.Bursts {
		if burst.IsIncast() {
			incasts++
		}
		if burst.PeakFlows > maxFlows {
			maxFlows = burst.PeakFlows
		}
		if burst.RetxLineRateFraction > maxRetx {
			maxRetx = burst.RetxLineRateFraction
		}
	}
	fmt.Fprintf(&b, "duration=%.1fs  mean utilization=%.1f%% (paper: 10.6%%)\n",
		r.Trace.DurationSeconds(), 100*r.MeanUtilization)
	fmt.Fprintf(&b, "bursts=%d (incasts: %d)  peak flows=%d  worst retransmit=%.1f%% of line rate (paper: up to 24%%)\n",
		len(r.Bursts), incasts, maxFlows, 100*maxRetx)

	n := len(r.Trace.Samples)
	xs := make([]float64, n)
	util := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
		util[i] = r.Trace.Utilization(i)
	}
	b.WriteString(trace.PlotString("Ingress throughput (fraction of line rate)",
		"ms", "utilization", []trace.Series{{Name: "util", X: xs, Y: util}}, 72, 10))
	return b.String()
}

// ServiceReport pairs a service with its analyzed burst corpus.
type ServiceReport struct {
	Service string
	Report  *millisampler.Report
}

// Fig2And4Result reproduces Figures 2 and 4: per-service CDFs of burst
// frequency, duration, and flow count (Fig 2) and of queue watermark, ECN
// marking, and retransmissions (Fig 4), over the 20-host x 9-round corpus.
type Fig2And4Result struct {
	TableResult
	Reports []ServiceReport
}

// Fig2And4BurstCharacterization runs the measurement campaign for all five
// services.
func Fig2And4BurstCharacterization(opt Options) *Fig2And4Result {
	cfg := services.DefaultCollectConfig()
	cfg.Seed = opt.seed()
	if opt.Quick {
		cfg.Hosts = 4
		cfg.Rounds = 2
	}
	r := &Fig2And4Result{}
	profiles := services.All()
	r.Reports = runParallel(opt, len(profiles), func(i int) ServiceReport {
		return ServiceReport{
			Service: profiles[i].Name,
			Report:  millisampler.Analyze(services.Collect(profiles[i], cfg)),
		}
	})
	summary := r.summaryTable()
	artifacts := []Artifact{{File: "fig2_fig4_summary.csv", Table: summary}}
	metrics := []struct {
		file string
		get  func(*millisampler.Report) *stats.CDF
	}{
		{"fig2a_burst_frequency.csv", func(r *millisampler.Report) *stats.CDF { return r.BurstsPerSecond }},
		{"fig2b_burst_duration.csv", func(r *millisampler.Report) *stats.CDF { return r.DurationMS }},
		{"fig2c_burst_flows.csv", func(r *millisampler.Report) *stats.CDF { return r.Flows }},
		{"fig4a_queue_watermark.csv", func(r *millisampler.Report) *stats.CDF { return r.QueueWatermark }},
		{"fig4b_ecn_fraction.csv", func(r *millisampler.Report) *stats.CDF { return r.ECNFraction }},
		{"fig4c_retx_fraction.csv", func(r *millisampler.Report) *stats.CDF { return r.RetxFraction }},
	}
	const points = 200
	for _, m := range metrics {
		header := []string{"quantile"}
		for _, sr := range r.Reports {
			header = append(header, sr.Service)
		}
		t := &trace.Table{Header: header}
		for i := 0; i < points; i++ {
			q := float64(i) / float64(points-1)
			row := []string{trace.Float(q)}
			for _, sr := range r.Reports {
				row = append(row, trace.Float(m.get(sr.Report).Quantile(q)))
			}
			t.AddRow(row...)
		}
		artifacts = append(artifacts, Artifact{File: m.file, Table: t})
	}
	r.TableResult = TableResult{
		ExpName:   "fig2_fig4",
		Artifacts: artifacts,
		SummaryText: section("Figures 2 & 4: burst characteristics and network effects across services") +
			summary.Text(),
	}
	return r
}

func (r *Fig2And4Result) summaryTable() *trace.Table {
	t := trace.NewTable("service", "bursts", "incast_frac", "util",
		"freq_p50_per_s", "dur_p50_ms", "dur_p90_ms",
		"flows_p50", "flows_p99", "low_flow_frac",
		"wm_p50", "ecn_zero_frac", "ecn_p95", "retx_zero_frac", "retx_p999")
	for _, sr := range r.Reports {
		rep := sr.Report
		t.AddRow(sr.Service,
			fmt.Sprint(rep.Bursts), trace.Float(rep.IncastFraction()), trace.Float(rep.MeanUtilization),
			trace.Float(rep.BurstsPerSecond.Quantile(0.5)),
			trace.Float(rep.DurationMS.Quantile(0.5)), trace.Float(rep.DurationMS.Quantile(0.9)),
			trace.Float(rep.Flows.Quantile(0.5)), trace.Float(rep.Flows.Quantile(0.99)),
			trace.Float(rep.Flows.At(20)),
			trace.Float(rep.QueueWatermark.Quantile(0.5)),
			trace.Float(rep.ECNFraction.At(0)), trace.Float(rep.ECNFraction.Quantile(0.95)),
			trace.Float(rep.RetxFraction.At(0)), trace.Float(rep.RetxFraction.Quantile(0.999)))
	}
	return t
}

// Fig3Result reproduces Figure 3: stability of the incast degree over time
// (3a: per-service mean flow count per round over 18 h) and across hosts
// (3b: per-host mean and p99 for the aggregator).
type Fig3Result struct {
	TableResult
	// Services lists the service names in row order.
	Services []string
	// RoundHours gives each round's wall-clock offset in hours.
	RoundHours []float64
	// RoundMeans[s][r] is service s's mean per-burst flow count in round r,
	// averaged over hosts.
	RoundMeans [][]float64
	// HostMeans/HostP99s are per-host aggregator statistics over all
	// rounds (Fig 3b).
	HostMeans, HostP99s []float64
}

// Fig3Stability runs the 18-hour campaign: 2-second traces from 20 hosts
// every 10 minutes.
func Fig3Stability(opt Options) *Fig3Result {
	hosts, rounds, traceMS := 20, 108, 2000
	spacing := 600 * sim.Second
	if opt.Quick {
		hosts, rounds, traceMS = 4, 10, 1000
		spacing = 2 * 3600 * sim.Second // still spans the video mode switch
	}
	r := &Fig3Result{}

	// One job per service: each walks its rounds x hosts grid serially (the
	// per-host flow lists must accumulate in round order) and services fan
	// out across workers.
	type svcResult struct {
		means []float64
		// hostFlows is non-nil only for the aggregator, whose per-host
		// distributions feed Fig 3b.
		hostFlows [][]float64
	}
	profiles := services.All()
	results := runParallel(opt, len(profiles), func(si int) svcResult {
		p := profiles[si]
		res := svcResult{means: make([]float64, rounds)}
		if p.Name == "aggregator" {
			res.hostFlows = make([][]float64, hosts)
		}
		for round := 0; round < rounds; round++ {
			at := sim.Time(round) * spacing
			var roundMean stats.Online
			for h := 0; h < hosts; h++ {
				tr := p.Generate(services.GenConfig{
					Seed: opt.seed(), Host: h, At: at, DurationMS: traceMS,
				})
				bursts := millisampler.Detect(tr, millisampler.DefaultBurstThreshold)
				for _, bu := range bursts {
					roundMean.Add(float64(bu.PeakFlows))
					if res.hostFlows != nil {
						res.hostFlows[h] = append(res.hostFlows[h], float64(bu.PeakFlows))
					}
				}
			}
			res.means[round] = roundMean.Mean()
		}
		return res
	})
	aggHostFlows := make([][]float64, hosts)
	for i, p := range profiles {
		r.Services = append(r.Services, p.Name)
		r.RoundMeans = append(r.RoundMeans, results[i].means)
		if results[i].hostFlows != nil {
			aggHostFlows = results[i].hostFlows
		}
	}
	r.RoundHours = make([]float64, rounds)
	for i := range r.RoundHours {
		r.RoundHours[i] = (sim.Time(i) * spacing).Seconds() / 3600
	}
	for h := 0; h < hosts; h++ {
		sum := stats.Summarize(aggHostFlows[h])
		r.HostMeans = append(r.HostMeans, sum.Mean)
		r.HostP99s = append(r.HostP99s, sum.P99)
	}

	over := &trace.Table{Header: append([]string{"hour"}, r.Services...)}
	for round := range r.RoundHours {
		row := []string{trace.Float(r.RoundHours[round])}
		for s := range r.Services {
			row = append(row, trace.Float(r.RoundMeans[s][round]))
		}
		over.AddRow(row...)
	}
	hb := trace.NewTable("host", "mean_flows", "p99_flows")
	for h := range r.HostMeans {
		hb.AddFloats(float64(h), r.HostMeans[h], r.HostP99s[h])
	}
	r.TableResult = TableResult{
		ExpName: "fig3",
		Artifacts: []Artifact{
			{File: "fig3a_flows_over_time.csv", Table: over},
			{File: "fig3b_aggregator_hosts.csv", Table: hb},
		},
		SummaryText: r.renderSummary(),
	}
	return r
}

// StabilitySpread returns (max-min)/mean of service s's round means — the
// Figure 3a stability metric.
func (r *Fig3Result) StabilitySpread(service string) float64 {
	for i, name := range r.Services {
		if name != service {
			continue
		}
		sum := stats.Summarize(r.RoundMeans[i])
		if sum.Mean == 0 {
			return 0
		}
		return (sum.Max - sum.Min) / sum.Mean
	}
	return 0
}

func (r *Fig3Result) renderSummary() string {
	var b strings.Builder
	b.WriteString(section("Figure 3: incast degree is stable over time and across hosts"))
	t := trace.NewTable("service", "mean_flows", "spread_over_rounds")
	for i, name := range r.Services {
		sum := stats.Summarize(r.RoundMeans[i])
		t.AddRow(name, trace.Float(sum.Mean), trace.Float(r.StabilitySpread(name)))
	}
	b.WriteString(t.Text())

	var series []trace.Series
	for i, name := range r.Services {
		series = append(series, trace.Series{Name: name, X: r.RoundHours, Y: r.RoundMeans[i]})
	}
	b.WriteString(trace.PlotString("Mean flow count per round (Fig 3a)",
		"hours", "flows", series, 72, 14))

	hostSum := stats.Summarize(r.HostMeans)
	fmt.Fprintf(&b, "Aggregator per-host mean flows: %.0f..%.0f (spread %.0f%%); p99 range %.0f..%.0f\n",
		hostSum.Min, hostSum.Max, 100*(hostSum.Max-hostSum.Min)/hostSum.Mean,
		stats.Summarize(r.HostP99s).Min, stats.Summarize(r.HostP99s).Max)
	return b.String()
}
