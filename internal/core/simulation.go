package core

import (
	"fmt"
	"strings"

	"incastlab/internal/sim"
	"incastlab/internal/stats"
	"incastlab/internal/trace"
)

func init() {
	register(50, Experiment{
		Name: "fig5", Kind: KindFigure, PaperRef: "Figure 5",
		Run: func(o Options) Result { return Fig5Modes(o) },
	})
	register(60, Experiment{
		Name: "fig6", Kind: KindFigure, PaperRef: "Figure 6",
		Run: func(o Options) Result { return Fig6ShortBursts(o) },
	})
	register(70, Experiment{
		Name: "fig7", Kind: KindFigure, PaperRef: "Figure 7",
		Run: func(o Options) Result { return Fig7InFlight(o) },
	})
}

// Fig5Result reproduces Figure 5: the three DCTCP operating modes, as ToR
// queue length over time (averaged over the measured bursts).
//
// Mode boundaries in this simulator follow the paper's own arithmetic
// exactly: with marking threshold K packets and a BDP of ~25 packets,
// congestion control is healthy while N < K + BDP (= 90 here); between
// that and queue capacity + BDP (= 1358) every flow is pinned at the
// 1-MSS degenerate point with the queue standing at N - BDP; beyond it,
// steady-state overflow forces timeout-bound completion. The paper's
// empirical boundary sits slightly higher (~150 flows, with Mode 3
// appearing at 1000 via straggler spikes and shared-buffer contention);
// EXPERIMENTS.md discusses the shift. We therefore run the paper's
// labeled flow counts plus the two boundary-adjusted ones.
type Fig5Result struct {
	TableResult
	Modes []*SimResult
}

// Fig5Modes runs the operating-mode sweep: 15 ms bursts at increasing
// incast degrees.
func Fig5Modes(opt Options) *Fig5Result {
	flows := []int{80, 100, 500, 1000, 1400}
	bursts := 11
	if opt.Quick {
		flows = []int{80, 500, 1400}
		bursts = 4
	}
	cfgs := make([]SimConfig, len(flows))
	for i, n := range flows {
		cfgs[i] = SimConfig{Flows: n, BurstDuration: 15 * sim.Millisecond, Bursts: bursts}
	}
	r := &Fig5Result{Modes: opt.runRows("fig5", cfgs)}

	summary := r.modesTable()
	artifacts := []Artifact{{File: "fig5_modes.csv", Table: summary}}
	for _, m := range r.Modes {
		artifacts = append(artifacts, Artifact{
			File:  fmt.Sprintf("fig5_queue_%dflows.csv", m.Flows),
			Table: queueCSV(m),
		})
	}
	r.TableResult = TableResult{
		ExpName:     "fig5",
		Artifacts:   artifacts,
		SummaryText: r.renderSummary(summary),
	}
	return r
}

// modesTable renders the per-mode summary rows shared by Summary and CSV.
func (r *Fig5Result) modesTable() *trace.Table {
	t := trace.NewTable("flows", "mode", "queue_busy_avg_pkts", "queue_max_pkts",
		"spike_pkts", "mean_bct_ms", "max_bct_ms", "timeouts", "drops", "retx_pkts")
	for _, m := range r.Modes {
		t.AddRow(
			fmt.Sprint(m.Flows), m.Mode(),
			trace.Float(m.BusyAvgQueue()), trace.Float(m.MaxQueue), trace.Float(m.SpikePackets),
			trace.Float(m.MeanBCT.Milliseconds()), trace.Float(m.MaxBCT.Milliseconds()),
			fmt.Sprint(m.Timeouts), fmt.Sprint(m.Drops), fmt.Sprint(m.RetransmitPackets),
		)
	}
	return t
}

// queueCSV renders a run's averaged queue trace.
func queueCSV(m *SimResult) *trace.Table {
	t := trace.NewTable("time_ms", "queue_pkts")
	for i, v := range m.AvgQueue.Values {
		t.AddFloats(float64(m.AvgQueue.TimeAt(i))/1e6, v)
	}
	return t
}

func (r *Fig5Result) renderSummary(t *trace.Table) string {
	var b strings.Builder
	b.WriteString(section("Figure 5: DCTCP operating modes (15 ms bursts, avg of measured bursts)"))
	b.WriteString(t.Text())
	for _, m := range r.Modes {
		b.WriteString("\n")
		b.WriteString(queuePlot(m, fmt.Sprintf("Queue depth, %d flows (K=%d, capacity=%d)",
			m.Flows, m.ECNThreshold, m.QueueCapacity)))
	}
	return b.String()
}

// queuePlot renders an ASCII queue-vs-time chart with the ECN threshold
// overlaid.
func queuePlot(m *SimResult, title string) string {
	n := len(m.AvgQueue.Values)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(m.AvgQueue.TimeAt(i)) / 1e6
	}
	thresh := trace.Series{Name: "K", X: []float64{xs[0], xs[n-1]},
		Y: []float64{float64(m.ECNThreshold), float64(m.ECNThreshold)}}
	queue := trace.Series{Name: "queue", X: xs, Y: m.AvgQueue.Values}
	return trace.PlotString(title, "ms since burst start", "packets",
		[]trace.Series{queue, thresh}, 72, 14)
}

// Fig6Result reproduces Figure 6: queue behavior during 2 ms bursts, the
// common case, at several incast degrees.
type Fig6Result struct {
	TableResult
	Runs []*SimResult
}

// Fig6ShortBursts runs the 2 ms sweep.
func Fig6ShortBursts(opt Options) *Fig6Result {
	flows := []int{50, 100, 200, 500}
	bursts := 11
	if opt.Quick {
		flows = []int{50, 200}
		bursts = 4
	}
	cfgs := make([]SimConfig, len(flows))
	for i, n := range flows {
		cfgs[i] = SimConfig{
			Flows:          n,
			BurstDuration:  2 * sim.Millisecond,
			Bursts:         bursts,
			SampleInterval: 50 * sim.Microsecond,
			SampleWindow:   6 * sim.Millisecond,
		}
	}
	r := &Fig6Result{Runs: opt.runRows("fig6", cfgs)}

	summary := r.runsTable()
	// One wide CSV with a queue column per flow count.
	header := []string{"time_ms"}
	for _, m := range r.Runs {
		header = append(header, fmt.Sprintf("queue_pkts_%dflows", m.Flows))
	}
	wide := &trace.Table{Header: header}
	n := len(r.Runs[0].AvgQueue.Values)
	for i := 0; i < n; i++ {
		row := []string{trace.Float(float64(r.Runs[0].AvgQueue.TimeAt(i)) / 1e6)}
		for _, m := range r.Runs {
			row = append(row, trace.Float(m.AvgQueue.Values[i]))
		}
		wide.AddRow(row...)
	}
	r.TableResult = TableResult{
		ExpName: "fig6",
		Artifacts: []Artifact{
			{File: "fig6_short_bursts.csv", Table: summary},
			{File: "fig6_queue_traces.csv", Table: wide},
		},
		SummaryText: section("Figure 6: 2 ms incast bursts (the common case)") + summary.Text() +
			"\nShort bursts are dominated by the initial window spike; there is no time\nfor the oscillatory steady state of 15 ms bursts to develop.\n",
	}
	return r
}

func (r *Fig6Result) runsTable() *trace.Table {
	t := trace.NewTable("flows", "queue_max_pkts", "spike_pkts", "queue_busy_avg_pkts",
		"mean_bct_ms", "timeouts", "drops")
	for _, m := range r.Runs {
		t.AddRow(fmt.Sprint(m.Flows), trace.Float(m.MaxQueue), trace.Float(m.SpikePackets),
			trace.Float(m.BusyAvgQueue()), trace.Float(m.MeanBCT.Milliseconds()),
			fmt.Sprint(m.Timeouts), fmt.Sprint(m.Drops))
	}
	return t
}

// Fig7Result reproduces Figure 7: the per-flow in-flight distribution over
// a 15 ms burst in the healthy mode, exposing straggler skew and the
// end-of-burst ramp-up.
type Fig7Result struct {
	TableResult
	Run *SimResult
	// RampRatio compares the mean in-flight over the last quarter of the
	// burst to the mid-burst mean: > 1 means stragglers ramp at the end.
	RampRatio float64
	// MaxSkew is the largest max/median ratio across samples.
	MaxSkew float64
}

// Fig7InFlight runs the skew experiment. The paper uses 100 flows; in this
// simulator the healthy mode requires N < K + BDP = 90, so 80 flows keep
// the run inside Mode 1 (see Fig5Result's doc comment).
func Fig7InFlight(opt Options) *Fig7Result {
	bursts := 11
	if opt.Quick {
		bursts = 5
	}
	cfg := SimConfig{
		Flows:          80,
		BurstDuration:  15 * sim.Millisecond,
		Bursts:         bursts,
		SampleInterval: 50 * sim.Microsecond,
		TrackInFlight:  true,
	}
	opt.stamp("fig7", &cfg)
	run := RunIncastSim(cfg)
	r := &Fig7Result{Run: run, MaxSkew: run.InFlight.MaxSkew(10)}

	// Ramp: once most flows have finished (the burst tail), the remaining
	// stragglers claim the freed capacity and their in-flight data rises
	// above the typical (median) incast window of the full phase.
	var fullP50s, tailMeans []float64
	for _, s := range run.InFlight.Samples {
		switch {
		case s.Active >= run.Flows*9/10:
			fullP50s = append(fullP50s, s.P50)
		case s.Active > 0:
			tailMeans = append(tailMeans, s.Mean)
		}
	}
	if len(fullP50s) > 0 && len(tailMeans) > 0 {
		r.RampRatio = stats.Mean(tailMeans) / stats.Quantile(fullP50s, 0.5)
	}

	t := trace.NewTable("time_ms", "active_flows", "mean_bytes", "p25", "p50", "p75", "p95", "max")
	start := run.InFlight.Samples[0].At
	for _, s := range run.InFlight.Samples {
		t.AddFloats((s.At - start).Milliseconds(), float64(s.Active),
			s.Mean, s.P25, s.P50, s.P75, s.P95, s.Max)
	}
	r.TableResult = TableResult{
		ExpName:     "fig7",
		Artifacts:   []Artifact{{File: "fig7_inflight.csv", Table: t}},
		SummaryText: r.renderSummary(),
	}
	return r
}

func (r *Fig7Result) renderSummary() string {
	var b strings.Builder
	b.WriteString(section("Figure 7: per-flow in-flight data during a healthy-mode incast"))
	fmt.Fprintf(&b, "flows=%d  max/median skew=%.1fx  late-burst ramp=%.2fx mid-burst\n",
		r.Run.Flows, r.MaxSkew, r.RampRatio)
	b.WriteString("Stragglers ramp up at the end of the burst, 'unlearning' the incast\nwindow; the next burst starts with a queue spike of ")
	fmt.Fprintf(&b, "%.0f packets.\n", r.Run.SpikePackets)

	samples := r.Run.InFlight.Samples
	start := samples[0].At
	var xs, mean, p95, max []float64
	for _, s := range samples {
		if s.Active == 0 {
			continue
		}
		xs = append(xs, (s.At - start).Milliseconds())
		mean = append(mean, s.Mean)
		p95 = append(p95, s.P95)
		max = append(max, s.Max)
	}
	if len(xs) > 1 {
		b.WriteString(trace.PlotString("Per-flow in-flight bytes over the burst",
			"ms since burst start", "bytes", []trace.Series{
				{Name: "mean", X: xs, Y: mean},
				{Name: "p95", X: xs, Y: p95},
				{Name: "max", X: xs, Y: max},
			}, 72, 14))
	}
	return b.String()
}
