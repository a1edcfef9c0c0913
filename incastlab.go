// Package incastlab is a laboratory for studying incast traffic bursts in
// datacenter networks. It reproduces, end to end and in pure Go, the
// measurement and simulation study of "Understanding Incast Bursts in
// Modern Datacenters" (IMC 2024):
//
//   - a packet-level discrete-event network simulator (links, ECN-marking
//     switch queues with optional shared buffers, a dumbbell topology) with
//     a TCP-like transport and pluggable congestion control (DCTCP, Reno, a
//     Swift-like pacer, and the paper's Section 5.1 "guardrail");
//   - a Millisampler-style host measurement pipeline (1 ms samples, burst
//     detection at 50% of line rate, per-burst statistics) together with
//     calibrated stochastic models of the paper's five production services;
//   - experiment runners that regenerate every table and figure of the
//     paper plus a set of ablations, as CSV artifacts and text summaries;
//   - the Section 5 proposals as working components: an incast-degree
//     predictor built on the paper's stability observation, and a
//     receiver-driven wave scheduler that splits large incasts into a
//     series of healthy small ones.
//
// This package is a facade: it re-exports the stable public surface of the
// internal packages. Start with Quickstart-style usage:
//
//	result := incastlab.RunIncastSim(incastlab.SimConfig{Flows: 100})
//	fmt.Println(result.MeanBCT, result.MaxQueue, result.Timeouts)
//
// or regenerate the whole paper:
//
//	for _, r := range incastlab.AllExperiments(incastlab.Options{}) {
//	    fmt.Println(r.Summary())
//	    r.WriteFiles("out")
//	}
package incastlab

import (
	"incastlab/internal/app"
	"incastlab/internal/audit"
	"incastlab/internal/cc"
	"incastlab/internal/core"
	"incastlab/internal/millisampler"
	"incastlab/internal/netsim"
	"incastlab/internal/obs"
	"incastlab/internal/predict"
	"incastlab/internal/scenario"
	"incastlab/internal/schedule"
	"incastlab/internal/services"
	"incastlab/internal/sim"
	"incastlab/internal/stats"
	"incastlab/internal/sweep"
	"incastlab/internal/workload"
)

// Time is simulation time in nanoseconds.
type Time = sim.Time

// Convenient duration units in simulation time.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Simulation backends for SimConfig.Fidelity / Options.Fidelity: the
// packet-level discrete-event simulator (the default) or the flow-level
// fluid fast path.
const (
	FidelityPacket = core.FidelityPacket
	FidelityFlow   = core.FidelityFlow
)

// Flow-population representations for SimConfig.Aggregation /
// Options.Aggregation on the flow-level backend: the automatic policy
// (cohorts from the size threshold up), forced cohort aggregation, or the
// one-record-per-flow reference.
const (
	AggregationAuto    = core.AggregationAuto
	AggregationCohort  = core.AggregationCohort
	AggregationPerFlow = core.AggregationPerFlow
)

// Experiment API --------------------------------------------------------

// Options configures the experiment runners (seed, quick mode).
type Options = core.Options

// Result is a runnable experiment's output: CSV artifacts plus a text
// summary.
type Result = core.Result

// AllExperiments regenerates every table, figure, and ablation in
// presentation order.
func AllExperiments(opt Options) []Result { return core.All(opt) }

// Experiment registry ----------------------------------------------------

// Experiment is one registered experiment: its registry name, kind, the
// part of the paper it reproduces, and its runner. Every experiment
// self-registers, so the registry is the single source of truth for
// front ends (cmd/figures -list/-only drive off it).
type Experiment = core.Experiment

// ExperimentKind classifies a registered experiment.
type ExperimentKind = core.Kind

// Experiment kinds.
const (
	KindTable     = core.KindTable
	KindFigure    = core.KindFigure
	KindAblation  = core.KindAblation
	KindExtension = core.KindExtension
)

// Experiments returns the full registry in presentation order.
var Experiments = core.Experiments

// ExperimentNames returns the registered experiment names in presentation
// order.
var ExperimentNames = core.ExperimentNames

// LookupExperiment resolves a registered experiment by name.
var LookupExperiment = core.LookupExperiment

// RunExperiments runs experiments, overlapping them unless opt.Workers is
// 1, with opt.Workers (0 = GOMAXPROCS) bounding the simulations in flight
// across all of them. It calls emit on the calling goroutine, in input
// order, as soon as an experiment and every one before it have finished,
// with the experiment's own start-to-finish wall time.
var RunExperiments = core.RunExperiments

// TableResult is the generic table-backed experiment result: named CSV
// artifacts plus a rendered text summary. Every registered experiment's
// result embeds one.
type TableResult = core.TableResult

// Scenario API -----------------------------------------------------------

// Scenario is a declarative, JSON-encodable experiment specification:
// topology, workload, congestion control, transport tuning, and an
// optional sweep axis. It validates (Scenario.Validate) and compiles into
// packet-level simulations (RunScenario); the ten Ablation* experiments
// are themselves scenario specs run through the same path. See
// examples/scenarios/ for ready-to-run files.
type (
	Scenario          = scenario.Spec
	ScenarioTopology  = scenario.Topology
	ScenarioWorkload  = scenario.Workload
	ScenarioCC        = scenario.CC
	ScenarioTransport = scenario.Transport
	ScenarioSweep     = scenario.Sweep
	ScenarioValue     = scenario.Value
)

// LoadScenario reads and validates a scenario spec from a JSON file.
var LoadScenario = scenario.Load

// ParseScenario parses and validates a scenario spec from JSON text.
var ParseScenario = scenario.Parse

// AblationSpecs returns the declarative specs behind the ten Ablation*
// runners, in registry order.
var AblationSpecs = core.AblationSpecs

// CompileScenario validates spec and compiles it into simulation configs,
// returning the sweep table's label header, one label row per config, and
// the configs themselves, carrying opt's seed, checked mode, metrics and
// backend: the rows RunScenario runs. Every config passes
// SimConfig.Validate; the error for one that does not names its row.
func CompileScenario(opt Options, spec Scenario) ([]string, [][]string, []SimConfig, error) {
	return core.CompileScenario(opt, spec)
}

// RunScenario validates, compiles, and runs spec, rendering the sweep
// into a single-CSV TableResult.
func RunScenario(opt Options, spec Scenario) (*TableResult, error) {
	return core.RunScenario(opt, spec)
}

// ScenarioClos is the multi-rack leaf/spine block of a scenario topology.
type ScenarioClos = scenario.Clos

// Sweep-cache API: shard a scenario's rows across processes and memoize
// each row's rendered cells under a content address, so large studies
// resume incrementally and warm reruns are byte-identical to cold runs.
type (
	// SweepCache is the content-addressed row store (a directory).
	SweepCache = sweep.Cache
	// SweepShard selects the rows a process owns (row i iff i%Count==Index).
	SweepShard = core.Shard
	// SweepCacheStats reports hits/computed/skipped after a cached pass.
	SweepCacheStats = core.CacheStats
)

// OpenSweepCache creates (if needed) and opens the row cache rooted at dir.
var OpenSweepCache = sweep.Open

// SimCodeVersion is baked into every sweep-cache key; bumping it
// invalidates all cached rows.
const SimCodeVersion = core.SimCodeVersion

// RunScenarioCached is RunScenario backed by a sweep cache and an optional
// shard selector. The table is nil while rows owned by other shards are
// still missing; stats report progress either way.
func RunScenarioCached(opt Options, spec Scenario, cache *SweepCache, shard SweepShard) (*TableResult, SweepCacheStats, error) {
	return core.RunScenarioCached(opt, spec, cache, shard)
}

// Table1 returns the five-services registry (paper Table 1).
func Table1(opt Options) *core.Table1Result { return core.Table1(opt) }

// Fig1ExampleTrace generates the two-second example trace (paper Fig 1).
func Fig1ExampleTrace(opt Options) *core.Fig1Result { return core.Fig1ExampleTrace(opt) }

// Fig2And4BurstCharacterization runs the five-service measurement campaign
// (paper Figs 2 and 4).
func Fig2And4BurstCharacterization(opt Options) *core.Fig2And4Result {
	return core.Fig2And4BurstCharacterization(opt)
}

// Fig3Stability runs the 18-hour stability campaign (paper Fig 3).
func Fig3Stability(opt Options) *core.Fig3Result { return core.Fig3Stability(opt) }

// Fig5Modes runs the DCTCP operating-mode sweep (paper Fig 5).
func Fig5Modes(opt Options) *core.Fig5Result { return core.Fig5Modes(opt) }

// Fig6ShortBursts runs the 2 ms burst sweep (paper Fig 6).
func Fig6ShortBursts(opt Options) *core.Fig6Result { return core.Fig6ShortBursts(opt) }

// Fig7InFlight runs the per-flow in-flight skew experiment (paper Fig 7).
func Fig7InFlight(opt Options) *core.Fig7Result { return core.Fig7InFlight(opt) }

// CrossValidation runs the Millisampler pipeline over the packet
// simulator's receiver, checking the two methodologies against each other.
func CrossValidation(opt Options) *core.CrossValidationResult { return core.CrossValidation(opt) }

// Ablations (see DESIGN.md).
var (
	AblationG                 = core.AblationG
	AblationECNThreshold      = core.AblationECNThreshold
	AblationSharedBuffer      = core.AblationSharedBuffer
	AblationDelayedACKs       = core.AblationDelayedACKs
	AblationGuardrail         = core.AblationGuardrail
	AblationCCA               = core.AblationCCA
	AblationMinRTO            = core.AblationMinRTO
	AblationIdleRestart       = core.AblationIdleRestart
	AblationReceiverWindow    = core.AblationReceiverWindow
	AblationMarkingDiscipline = core.AblationMarkingDiscipline
)

// Simulation API --------------------------------------------------------

// SimConfig describes one packet-level incast simulation (defaults follow
// the paper's Section 4 setup).
type SimConfig = core.SimConfig

// SimResult is a simulation's aggregated outcome.
type SimResult = core.SimResult

// NotificationConfig enables explicit incast notification on a packet-level
// run: switch-side onset detection (single bottleneck detector, or
// coordinated per-leaf uplink detectors on a Clos when MinPorts > 0) plus a
// Pulser multiplicative-backoff reaction wrapped around every flow's
// congestion control. Zero fields take defaults sized for the paper's
// ~30 us fabrics; set SimConfig.Notification to enable.
type NotificationConfig = core.NotificationConfig

// RunIncastSim executes one repeated-burst incast simulation.
func RunIncastSim(cfg SimConfig) *SimResult { return core.RunIncastSim(cfg) }

// RunIncastSims executes independent simulations across a worker pool
// (workers == 0 uses GOMAXPROCS; 1 runs serially; negative counts are
// invalid — see ValidateWorkers). Results are returned in config order and
// are bit-identical to looping over RunIncastSim.
func RunIncastSims(workers int, cfgs []SimConfig) []*SimResult {
	return core.RunIncastSims(workers, cfgs)
}

// ValidateWorkers rejects invalid worker counts (negative values) with a
// clear error; front ends should call it on user-supplied -workers values
// before building experiments.
var ValidateWorkers = core.ValidateWorkers

// Observability -----------------------------------------------------------

// MetricsRegistry collects run telemetry (engine, queue, link, pool,
// transport, and congestion-control counters) from instrumented
// simulations. Attach one via Options.Metrics or SimConfig.Metrics; a nil
// registry disables all instrumentation. Merging is commutative, so
// snapshots are identical across serial and parallel runs, and
// instrumented simulation results are bit-identical to uninstrumented
// ones.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry creates an empty metrics registry.
var NewMetricsRegistry = obs.NewRegistry

// MetricsSnapshot is a registry's exported state: a stable, sorted,
// JSON-serializable view. Snapshot.Deterministic() strips wall-clock-domain
// metrics (wall_*, mem_*) for bit-for-bit comparisons across runs.
type MetricsSnapshot = obs.Snapshot

// ParseMetricsSnapshot parses and validates a snapshot previously written
// with MetricsSnapshot.WriteFile/WriteJSON.
var ParseMetricsSnapshot = obs.ParseSnapshot

// MetricsMergeMode selects how repeated gauge observations fold together.
type MetricsMergeMode = obs.MergeMode

// Gauge merge modes: sum accumulates, max/min keep the extreme.
const (
	MetricsMergeSum = obs.MergeSum
	MetricsMergeMax = obs.MergeMax
	MetricsMergeMin = obs.MergeMin
)

// Profiler serves net/http/pprof on a dedicated listener and periodically
// samples runtime memory statistics into a registry (mem_* max-gauges).
type Profiler = obs.Profiler

// StartProfiler starts a pprof server on addr; if reg is non-nil, memory
// statistics are sampled into it at the given interval.
var StartProfiler = obs.StartProfiler

// Invariant auditing -----------------------------------------------------

// AuditConfig tunes the runtime invariant auditor (internal/audit): sweep
// interval, violation cap, and end-state drain checks. Experiments enable
// auditing wholesale through Options.Audit / SimConfig.Audit; the explicit
// types are exported for callers embedding the auditor in their own engine
// runs.
type AuditConfig = audit.Config

// Auditor enforces simulation invariants (byte/packet conservation, queue
// bounds, clock monotonicity, cc protocol bounds, packet-pool hygiene) over
// one engine run.
type Auditor = audit.Auditor

// AuditViolation is one recorded invariant breach.
type AuditViolation = audit.Violation

// NewAuditor creates an auditor bound to an engine.
var NewAuditor = audit.New

// DiffConfig parameterizes the open-loop rackmodel/netsim differential
// cross-check.
type DiffConfig = audit.DiffConfig

// DiffResult carries both sides' curves and tolerance verdicts.
type DiffResult = audit.DiffResult

// DefaultDiffConfig returns the canonical cross-check trace and tolerances.
var DefaultDiffConfig = audit.DefaultDiffConfig

// RunDiff drives one open-loop offered-load trace through the analytic
// rack model and the packet simulator, and errors when the model
// disagrees with the packet simulator beyond the configured tolerances.
// The flow-level backend is checked closed-loop instead, against packet
// runs of the same incast through RunIncastSim.
var RunDiff = audit.RunDiff

// DumbbellConfig describes the simulated topology.
type DumbbellConfig = netsim.DumbbellConfig

// DefaultDumbbellConfig returns the paper's topology; the run puts one
// sender behind it per flow.
func DefaultDumbbellConfig() DumbbellConfig { return netsim.DefaultDumbbellConfig() }

// ClosConfig describes a multi-rack leaf/spine fabric with seeded ECMP;
// set SimConfig.Clos to run the incast over it instead of the dumbbell.
type ClosConfig = netsim.ClosConfig

// DefaultClosConfig returns a fabric with the paper's per-port parameters
// for the given shape (two spines, 10/100 Gbps, K=65).
func DefaultClosConfig(racks, hostsPerRack int) ClosConfig {
	return netsim.DefaultClosConfig(racks, hostsPerRack)
}

// Worker placement policies for SimConfig.Placement on a Clos fabric.
const (
	PlacementCrossRack = workload.PlacementCrossRack
	PlacementSameRack  = workload.PlacementSameRack
)

// Admitter decides when each flow of a burst is released; set
// SimConfig.Admitter to schedule a run's bursts (Wave is one).
type Admitter = workload.Admitter

// Congestion control -----------------------------------------------------

// CongestionControl is the pluggable congestion-control interface.
type CongestionControl = cc.Algorithm

// DCTCPConfig tunes DCTCP; NewDCTCP builds an instance.
type DCTCPConfig = cc.DCTCPConfig

// NewDCTCP builds a DCTCP instance.
func NewDCTCP(cfg DCTCPConfig) *cc.DCTCP { return cc.NewDCTCP(cfg) }

// DefaultDCTCPConfig returns the paper's DCTCP parameters (IW 10, g=1/16).
func DefaultDCTCPConfig() DCTCPConfig { return cc.DefaultDCTCPConfig() }

// NewReno builds the loss-based baseline.
func NewReno(initialWindow int) *cc.Reno { return cc.NewReno(initialWindow) }

// D2TCPConfig tunes the deadline-aware DCTCP variant.
type D2TCPConfig = cc.D2TCPConfig

// NewD2TCP builds a Deadline-Aware Datacenter TCP instance.
func NewD2TCP(cfg D2TCPConfig) *cc.D2TCP { return cc.NewD2TCP(cfg) }

// DefaultD2TCPConfig returns DCTCP parameters with a neutral deadline.
func DefaultD2TCPConfig() D2TCPConfig { return cc.DefaultD2TCPConfig() }

// SwiftConfig tunes the Swift-like delay-based pacer.
type SwiftConfig = cc.SwiftConfig

// NewSwift builds a Swift-like instance.
func NewSwift(cfg SwiftConfig) *cc.Swift { return cc.NewSwift(cfg) }

// DefaultSwiftConfig scales Swift parameters to a base RTT.
func DefaultSwiftConfig(baseRTT Time) SwiftConfig { return cc.DefaultSwiftConfig(baseRTT) }

// NewGuardrail wraps an algorithm with the Section 5.1 ramp-up clamp.
func NewGuardrail(inner CongestionControl, bdpBytes, ecnThresholdBytes int) *cc.Guardrail {
	return cc.NewGuardrail(inner, bdpBytes, ecnThresholdBytes)
}

// Measurement API --------------------------------------------------------

// ServiceProfile is a calibrated model of one production service.
type ServiceProfile = services.Profile

// Services returns the five services of Table 1.
func Services() []ServiceProfile { return services.All() }

// ServiceByName looks up a service profile.
func ServiceByName(name string) (ServiceProfile, bool) { return services.ByName(name) }

// GenConfig addresses one synthetic trace collection.
type GenConfig = services.GenConfig

// CollectConfig describes a measurement campaign; Collect runs it.
type CollectConfig = services.CollectConfig

// DefaultCollectConfig returns the paper's 20-host, 9-round campaign.
func DefaultCollectConfig() CollectConfig { return services.DefaultCollectConfig() }

// Collect generates the corpus of traces for one service.
func Collect(p ServiceProfile, cfg CollectConfig) []*MeasurementTrace {
	return services.Collect(p, cfg)
}

// MeasurementTrace is a Millisampler trace: per-millisecond host samples.
type MeasurementTrace = millisampler.Trace

// Burst is one detected burst with the paper's per-burst metrics.
type Burst = millisampler.Burst

// BurstReport aggregates burst statistics over a trace corpus.
type BurstReport = millisampler.Report

// DetectBursts extracts bursts at the paper's 50%-of-line-rate threshold.
func DetectBursts(t *MeasurementTrace) []Burst {
	return millisampler.Detect(t, millisampler.DefaultBurstThreshold)
}

// AnalyzeTraces builds the aggregate burst report for a corpus.
func AnalyzeTraces(traces []*MeasurementTrace) *BurstReport { return millisampler.Analyze(traces) }

// LoadTrace reads a trace archived with MeasurementTrace.Save.
func LoadTrace(path string) (*MeasurementTrace, error) { return millisampler.Load(path) }

// Section 5 components ---------------------------------------------------

// Predictor tracks a service's incast-degree distribution and predicts the
// scale of upcoming incasts (paper Section 3.3/5.1).
type Predictor = predict.Predictor

// PredictorConfig tunes a Predictor.
type PredictorConfig = predict.Config

// NewPredictor builds a Predictor.
func NewPredictor(cfg PredictorConfig) *Predictor { return predict.New(cfg) }

// DefaultPredictorConfig returns a 512-burst window, p99 prediction.
func DefaultPredictorConfig() PredictorConfig { return predict.DefaultConfig() }

// Wave is the receiver-driven wave scheduler (paper Section 5.2).
type Wave = schedule.Wave

// NewWave builds a Wave admitter with the given concurrency limit.
func NewWave(size int) *Wave { return schedule.NewWave(size) }

// Application API ---------------------------------------------------------

// PartitionAggregateConfig describes a closed-loop coordinator/worker
// fan-out application (the pattern that causes incast).
type PartitionAggregateConfig = app.PartitionAggregateConfig

// QueryRecord is one completed partition/aggregate query.
type QueryRecord = app.QueryRecord

// Summary is a descriptive-statistics bundle (mean and percentiles).
type Summary = stats.Summary

// DefaultPartitionAggregateConfig returns a fan-out with 20 KB responses
// and 1 ms think time.
func DefaultPartitionAggregateConfig() PartitionAggregateConfig {
	return app.DefaultPartitionAggregateConfig()
}

// PartitionAggregateResult is the outcome of RunPartitionAggregate.
type PartitionAggregateResult = core.PartitionAggregateResult

// RunPartitionAggregate builds the paper's dumbbell for a fan-in of
// workers, runs the closed-loop application under DCTCP, and summarizes
// the query completion times.
func RunPartitionAggregate(workers int, cfg PartitionAggregateConfig) *PartitionAggregateResult {
	return core.RunPartitionAggregate(sim.NewEngine(), workers, cfg)
}

// QueryTailLatency sweeps partition/aggregate fan-in at constant query
// volume — the extension experiment behind examples/partitionaggregate.
func QueryTailLatency(opt Options) *core.QueryTailResult { return core.QueryTailLatency(opt) }

// RackContention reproduces the Section 3.4 shared-buffer effect at packet
// level: a neighbor incast on the same rack turns a lossless incast into a
// timeout-bound one.
func RackContention(opt Options) *core.RackContentionResult { return core.RackContention(opt) }

// ModeBoundary sweeps the incast degree to locate the operating-mode
// boundaries the paper's arithmetic predicts (K+BDP and capacity+BDP).
func ModeBoundary(opt Options) *core.ModeBoundaryResult { return core.ModeBoundary(opt) }
