package incastlab_test

// The benchmark harness regenerates every table and figure of the paper
// (one benchmark per artifact) plus the DESIGN.md ablations. Each benchmark
// iteration runs the complete experiment; an untimed warm-up run before the
// first iteration also prints the experiment's summary — the same
// rows/series the paper reports — so `go test -bench=. -benchmem` doubles
// as the reproduction log.
//
// By default the experiments run in Quick mode (reduced corpus sizes) so
// the full suite finishes in minutes. Set INCASTLAB_FULL=1 to run the
// paper-sized corpora (what EXPERIMENTS.md records); cmd/figures does the
// same with nicer output handling.

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"incastlab"
)

// benchOptions picks quick or full experiment sizing. The rows run
// serially: fanned out over processors, they would draw on per-processor
// pool caches, and their allocation counts would move with scheduling.
func benchOptions() incastlab.Options {
	return incastlab.Options{Seed: 1, Quick: os.Getenv("INCASTLAB_FULL") == "", Workers: 1}
}

// printedSummaries dedups summary printing across -benchtime iterations.
var printedSummaries sync.Map

// warmUp runs one untimed iteration and then starts the measurement. A
// run draws engines and packets from pools that a garbage collection
// empties, so without it the first iteration's allocation count depends
// on which benchmarks ran earlier in the process and when a collection
// last happened.
func warmUp(b *testing.B, run func()) {
	b.Helper()
	run()
	b.ReportAllocs()
	b.ResetTimer()
}

// printSummary prints an experiment's summary once per process.
func printSummary(name string, res incastlab.Result) {
	if _, done := printedSummaries.LoadOrStore(name, true); !done {
		fmt.Printf("\n%s\n", res.Summary())
	}
}

func runExperiment(b *testing.B, name string, run func(incastlab.Options) incastlab.Result) {
	b.Helper()
	opt := benchOptions()
	warmUp(b, func() { printSummary(name, run(opt)) })
	for i := 0; i < b.N; i++ {
		run(opt)
	}
}

// --- One benchmark per paper artifact. ----------------------------------

func BenchmarkTable1Services(b *testing.B) {
	runExperiment(b, "table1", func(o incastlab.Options) incastlab.Result {
		return incastlab.Table1(o)
	})
}

func BenchmarkFig1ExampleTrace(b *testing.B) {
	runExperiment(b, "fig1", func(o incastlab.Options) incastlab.Result {
		return incastlab.Fig1ExampleTrace(o)
	})
}

func BenchmarkFig2And4BurstCharacteristics(b *testing.B) {
	runExperiment(b, "fig2_fig4", func(o incastlab.Options) incastlab.Result {
		return incastlab.Fig2And4BurstCharacterization(o)
	})
}

func BenchmarkFig3Stability(b *testing.B) {
	runExperiment(b, "fig3", func(o incastlab.Options) incastlab.Result {
		return incastlab.Fig3Stability(o)
	})
}

func BenchmarkFig5DCTCPModes(b *testing.B) {
	runExperiment(b, "fig5", func(o incastlab.Options) incastlab.Result {
		return incastlab.Fig5Modes(o)
	})
}

func BenchmarkFig6ShortBursts(b *testing.B) {
	runExperiment(b, "fig6", func(o incastlab.Options) incastlab.Result {
		return incastlab.Fig6ShortBursts(o)
	})
}

func BenchmarkFig7InFlightSkew(b *testing.B) {
	runExperiment(b, "fig7", func(o incastlab.Options) incastlab.Result {
		return incastlab.Fig7InFlight(o)
	})
}

// --- Ablations (design choices DESIGN.md calls out). ---------------------

func BenchmarkAblationG(b *testing.B) {
	runExperiment(b, "ablation_g", func(o incastlab.Options) incastlab.Result {
		return incastlab.AblationG(o)
	})
}

func BenchmarkAblationECNThreshold(b *testing.B) {
	runExperiment(b, "ablation_ecn", func(o incastlab.Options) incastlab.Result {
		return incastlab.AblationECNThreshold(o)
	})
}

func BenchmarkAblationSharedBuffer(b *testing.B) {
	runExperiment(b, "ablation_shared", func(o incastlab.Options) incastlab.Result {
		return incastlab.AblationSharedBuffer(o)
	})
}

func BenchmarkAblationDelayedACKs(b *testing.B) {
	runExperiment(b, "ablation_delack", func(o incastlab.Options) incastlab.Result {
		return incastlab.AblationDelayedACKs(o)
	})
}

func BenchmarkAblationGuardrail(b *testing.B) {
	runExperiment(b, "ablation_guardrail", func(o incastlab.Options) incastlab.Result {
		return incastlab.AblationGuardrail(o)
	})
}

func BenchmarkAblationCCA(b *testing.B) {
	runExperiment(b, "ablation_cca", func(o incastlab.Options) incastlab.Result {
		return incastlab.AblationCCA(o)
	})
}

func BenchmarkAblationMinRTO(b *testing.B) {
	runExperiment(b, "ablation_min_rto", func(o incastlab.Options) incastlab.Result {
		return incastlab.AblationMinRTO(o)
	})
}

// BenchmarkCrossValidation runs the Millisampler-over-simulator check.
func BenchmarkCrossValidation(b *testing.B) {
	runExperiment(b, "crossval", func(o incastlab.Options) incastlab.Result {
		return incastlab.CrossValidation(o)
	})
}

func BenchmarkAblationIdleRestart(b *testing.B) {
	runExperiment(b, "ablation_idle_restart", func(o incastlab.Options) incastlab.Result {
		return incastlab.AblationIdleRestart(o)
	})
}

func BenchmarkAblationReceiverWindow(b *testing.B) {
	runExperiment(b, "ablation_receiver_window", func(o incastlab.Options) incastlab.Result {
		return incastlab.AblationReceiverWindow(o)
	})
}

func BenchmarkAblationMarkingDiscipline(b *testing.B) {
	runExperiment(b, "ablation_marking", func(o incastlab.Options) incastlab.Result {
		return incastlab.AblationMarkingDiscipline(o)
	})
}

// BenchmarkExtQueryTail runs the partition/aggregate fan-in sweep.
func BenchmarkExtQueryTail(b *testing.B) {
	runExperiment(b, "ext_query_tail", func(o incastlab.Options) incastlab.Result {
		return incastlab.QueryTailLatency(o)
	})
}

// BenchmarkExtRackContention runs the shared-buffer neighbor-incast study.
func BenchmarkExtRackContention(b *testing.B) {
	runExperiment(b, "ext_rack_contention", func(o incastlab.Options) incastlab.Result {
		return incastlab.RackContention(o)
	})
}

// BenchmarkExtModeBoundary sweeps the incast degree across both regime
// boundaries.
func BenchmarkExtModeBoundary(b *testing.B) {
	runExperiment(b, "ext_mode_boundary", func(o incastlab.Options) incastlab.Result {
		return incastlab.ModeBoundary(o)
	})
}

// --- Substrate micro-benchmarks. -----------------------------------------

// BenchmarkSimulatorPacketRate measures the packet-level simulator's
// throughput: one 100-flow, 1 ms burst end to end. Reported as ns/op for
// ~3.4k delivered packets (data + ACKs), plus engine events dispatched per
// wall-clock second.
func BenchmarkSimulatorPacketRate(b *testing.B) {
	cfg := incastlab.SimConfig{
		Flows:         100,
		BurstDuration: incastlab.Millisecond,
		Bursts:        2,
		Interval:      5 * incastlab.Millisecond,
	}
	warmUp(b, func() { incastlab.RunIncastSim(cfg) })
	var events uint64
	for i := 0; i < b.N; i++ {
		events += incastlab.RunIncastSim(cfg).Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkMillisamplerAnalyze measures the measurement pipeline: generate
// and analyze one 2-second aggregator trace.
func BenchmarkMillisamplerAnalyze(b *testing.B) {
	p, _ := incastlab.ServiceByName("aggregator")
	analyze := func(seed uint64) {
		tr := p.Generate(incastlab.GenConfig{Seed: seed, DurationMS: 2000})
		incastlab.AnalyzeTraces([]*incastlab.MeasurementTrace{tr})
	}
	warmUp(b, func() { analyze(1) })
	for i := 0; i < b.N; i++ {
		analyze(uint64(i + 1))
	}
}

// BenchmarkPredictorObserve measures the Section 3.3 predictor's ingest
// path.
func BenchmarkPredictorObserve(b *testing.B) {
	pr := incastlab.NewPredictor(incastlab.DefaultPredictorConfig())
	warmUp(b, func() { pr.Observe(100) })
	for i := 0; i < b.N; i++ {
		pr.Observe(100 + i%50)
	}
}

// BenchmarkFlowsimFig5 regenerates the Fig-5 mode table through the
// flow-level fluid fast path (Options.Fidelity = FidelityFlow) instead of
// the packet simulator. Compared against BenchmarkFig5DCTCPModes it records
// the fast path's speedup on the same sweep; the differential gate
// (TestIncastDifferentialGate in internal/audit) pins the two backends'
// agreement at these operating points, so this benchmark is purely about
// wall clock.
func BenchmarkFlowsimFig5(b *testing.B) {
	runExperiment(b, "fig5_flow", func(o incastlab.Options) incastlab.Result {
		o.Fidelity = incastlab.FidelityFlow
		return incastlab.Fig5Modes(o)
	})
}

// --- Clos fabric: packet vs flow. ---------------------------------------

// benchClosFidelity runs a registered Clos experiment at the given
// fidelity. The packet/flow pairs below record the multi-queue fluid
// solver's speedup over the packet fabric on identical sweeps; the
// differential gate (TestClosDifferentialGate in internal/audit) pins the
// two backends' agreement, so the benchmarks are purely about wall clock.
func benchClosFidelity(b *testing.B, name string, fidelity string) {
	b.Helper()
	exp, ok := incastlab.LookupExperiment(name)
	if !ok {
		b.Fatalf("experiment %q not registered", name)
	}
	runExperiment(b, name+"_"+fidelity, func(o incastlab.Options) incastlab.Result {
		o.Fidelity = fidelity
		return exp.Run(o)
	})
}

func BenchmarkClosCrossRackPacket(b *testing.B) {
	benchClosFidelity(b, "ext_clos_crossrack", incastlab.FidelityPacket)
}

func BenchmarkClosCrossRackFlow(b *testing.B) {
	benchClosFidelity(b, "ext_clos_crossrack", incastlab.FidelityFlow)
}

func BenchmarkClosMultiAggPacket(b *testing.B) {
	benchClosFidelity(b, "ext_clos_multiagg", incastlab.FidelityPacket)
}

func BenchmarkClosMultiAggFlow(b *testing.B) {
	benchClosFidelity(b, "ext_clos_multiagg", incastlab.FidelityFlow)
}

// --- Cohort aggregation: per-flow vs cohort. ----------------------------

// BenchmarkFlowsimCohortFig5 regenerates the Fig-5 mode table on the fluid
// backend with cohort aggregation forced on every point. Compared against
// BenchmarkFlowsimFig5 (the same sweep under the automatic policy, which
// keeps these sub-threshold degrees per-flow) it records what cohorts buy
// across the whole sweep, small points included.
func BenchmarkFlowsimCohortFig5(b *testing.B) {
	runExperiment(b, "fig5_cohort", func(o incastlab.Options) incastlab.Result {
		o.Fidelity = incastlab.FidelityFlow
		o.Aggregation = incastlab.AggregationCohort
		return incastlab.Fig5Modes(o)
	})
}

// benchFlowsimFig5Point runs the Fig-5 sweep's deepest point — a
// 1400-degree dumbbell incast, the timeout-collapse regime — on the fluid
// backend with the given flow representation. The per-flow/cohort pair
// records cohort aggregation's speedup on the identical run; the
// differential gate (TestCohortDifferentialGate in internal/audit) pins the
// representations' agreement, so the pair is purely about wall clock.
func benchFlowsimFig5Point(b *testing.B, aggregation string) {
	b.Helper()
	run := func() {
		res := incastlab.RunIncastSim(incastlab.SimConfig{
			Flows:       1400,
			Bursts:      4, // quick-mode burst count, like the sweep benchmarks
			Fidelity:    incastlab.FidelityFlow,
			Aggregation: aggregation,
		})
		if res.MeanBCT <= 0 {
			b.Fatal("degenerate run: no burst completed")
		}
	}
	warmUp(b, run)
	for i := 0; i < b.N; i++ {
		run()
	}
}

func BenchmarkFlowsimPerFlowFig5Point(b *testing.B) {
	benchFlowsimFig5Point(b, incastlab.AggregationPerFlow)
}

func BenchmarkFlowsimCohortFig5Point(b *testing.B) {
	benchFlowsimFig5Point(b, incastlab.AggregationCohort)
}

// BenchmarkClosMillionFlowSingleRun integrates 1,048,576 flows — 16
// aggregators, each fanning in 65,536 cross-rack workers — through the
// Clos fabric's coupled queues in ONE cohort-aggregated run, the
// configuration examples/scenarios/clos_million_flow_single.json ships.
// Per-flow records cannot represent this run at all (the release-packing
// limit bounds them below 2^20 flows), so there is no baseline twin: the
// benchmark pins that the headline scale stays runnable and how much wall
// clock it costs — about 1 s per run on a 2-vCPU VM, most of it fluid
// steps now that tail-drop victims come from a per-queue index.
func BenchmarkClosMillionFlowSingleRun(b *testing.B) {
	spec, err := incastlab.LoadScenario("examples/scenarios/clos_million_flow_single.json")
	if err != nil {
		b.Fatal(err)
	}
	opt := benchOptions()
	run := func() {
		res, err := incastlab.RunScenario(opt, spec)
		if err != nil {
			b.Fatal(err)
		}
		printSummary("clos_million_flow_single", res)
	}
	warmUp(b, run)
	for i := 0; i < b.N; i++ {
		run()
	}
}
