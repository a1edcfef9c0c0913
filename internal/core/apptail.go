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
	results := runParallel(opt, len(degrees), func(i int) *PartitionAggregateResult {
		n := degrees[i]
		wallStart := startWall(opt.Metrics)
		eng := sim.NewEngine()
		cfg := app.DefaultPartitionAggregateConfig()
		cfg.Queries = queries
		cfg.Seed = opt.seed()
		cfg.ResponseBytes = 4_000_000 / int64(n)
		res := RunPartitionAggregate(eng, n, cfg)
		harvestEngineRun(opt.Metrics, "ext_query_tail", eng, wallStart,
			"workers", fmt.Sprint(n))
		return res
	})
	for i, n := range degrees {
		r.Degrees = append(r.Degrees, n)
		r.QCT = append(r.QCT, results[i].QCT)
		r.Timeouts = append(r.Timeouts, results[i].Timeouts)
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

// PartitionAggregateResult is the outcome of RunPartitionAggregate.
type PartitionAggregateResult struct {
	// Queries holds the per-query records.
	Queries []app.QueryRecord
	// QCT summarizes query completion times in milliseconds.
	QCT stats.Summary
	// Timeouts counts RTO events across all worker flows.
	Timeouts int64
}

// RunPartitionAggregate builds the paper's dumbbell for workers senders on
// eng, runs the closed-loop application over it under DCTCP with the
// coordinator at the receiver and a worker at each sender, and summarizes
// the query completion times.
func RunPartitionAggregate(eng *sim.Engine, workers int, cfg app.PartitionAggregateConfig) *PartitionAggregateResult {
	net := netsim.NewDumbbell(eng, netsim.DefaultDumbbellConfig(workers))
	pa := app.NewPartitionAggregate(eng, net.Receiver, net.Senders, cfg,
		func(int) cc.Algorithm { return cc.NewDCTCP(cc.DefaultDCTCPConfig()) })
	eng.RunUntil(60 * sim.Second)
	if !pa.Done() {
		panic(fmt.Sprintf("core: partition/aggregate with %d workers did not complete", workers))
	}
	var timeouts int64
	for _, s := range pa.Senders() {
		timeouts += s.Stats().Timeouts
	}
	return &PartitionAggregateResult{Queries: pa.Queries(), QCT: pa.QCTStats(), Timeouts: timeouts}
}
