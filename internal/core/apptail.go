package core

import (
	"fmt"

	"incastlab/internal/app"
	"incastlab/internal/cc"
	"incastlab/internal/netsim"
	"incastlab/internal/sim"
	"incastlab/internal/stats"
	"incastlab/internal/trace"
)

func init() {
	register(190, Experiment{
		Name: "ext_query_tail", Kind: KindExtension, PaperRef: "Section 1 (service-level impact)",
		Run: func(o Options) Result { return QueryTailLatency(o) },
	})
}

// QueryTailResult is an extension experiment beyond the paper's figures:
// it quantifies the paper's introduction claim that incast-induced loss
// "causes high tail latency that directly impacts service-level
// performance", using the closed-loop partition/aggregate application.
// The aggregate response volume is held constant while the fan-in degree
// grows, so the bandwidth bound is identical across rows; everything above
// it is incast damage.
type QueryTailResult struct {
	TableResult
	// Rows pairs each fan-in degree with its QCT summary (milliseconds).
	Degrees []int
	QCT     []stats.Summary
	// Timeouts per run, the mechanism behind the tail.
	Timeouts []int64
}

// QueryTailLatency sweeps the fan-in degree of a partition/aggregate
// application dispatching 4 MB queries.
func QueryTailLatency(opt Options) *QueryTailResult {
	degrees := []int{20, 80, 400, 1600}
	queries := 15
	if opt.Quick {
		degrees = []int{20, 400}
		queries = 6
	}
	r := &QueryTailResult{}
	type degreeResult struct {
		qct      stats.Summary
		timeouts int64
	}
	results := runParallel(opt, len(degrees), func(i int) degreeResult {
		n := degrees[i]
		wallStart := startWall(opt.Metrics)
		eng := sim.NewEngine()
		cfg := app.DefaultPartitionAggregateConfig(n)
		cfg.Queries = queries
		cfg.Seed = opt.seed()
		cfg.ResponseBytes = 4_000_000 / int64(n)
		pa := app.NewPartitionAggregate(eng, netsim.DefaultDumbbellConfig(n), cfg,
			func(int) cc.Algorithm { return cc.NewDCTCP(cc.DefaultDCTCPConfig()) })
		eng.RunUntil(60 * sim.Second)
		if !pa.Done() {
			panic(fmt.Sprintf("core: %d-worker query sweep did not complete", n))
		}
		var timeouts int64
		for _, s := range pa.Senders() {
			timeouts += s.Stats().Timeouts
		}
		harvestEngineRun(opt.Metrics, "ext_query_tail", eng, wallStart,
			"workers", fmt.Sprint(n))
		return degreeResult{qct: pa.QCTStats(), timeouts: timeouts}
	})
	for i, n := range degrees {
		r.Degrees = append(r.Degrees, n)
		r.QCT = append(r.QCT, results[i].qct)
		r.Timeouts = append(r.Timeouts, results[i].timeouts)
	}

	t := trace.NewTable("workers", "qct_p50_ms", "qct_p99_ms", "qct_max_ms", "timeouts")
	for i, n := range r.Degrees {
		s := r.QCT[i]
		t.AddRow(fmt.Sprint(n), trace.Float(s.P50), trace.Float(s.P99), trace.Float(s.Max),
			fmt.Sprint(r.Timeouts[i]))
	}
	r.TableResult = TableResult{
		ExpName:   "ext_query_tail",
		Artifacts: []Artifact{{File: "ext_query_tail.csv", Table: t}},
		SummaryText: section("Extension: partition/aggregate query tail latency vs fan-in") + t.Text() +
			"\nEqual total bytes per query: the median stays at the bandwidth bound while\nthe tail explodes once the synchronized first windows overflow the ToR queue.\n",
	}
	return r
}
