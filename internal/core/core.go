// Package core is incastlab's experiment engine: it regenerates every table
// and figure of "Understanding Incast Bursts in Modern Datacenters"
// (IMC 2024) from the library's substrates, plus the ablations DESIGN.md
// calls out. Each experiment returns a structured result that can render
// itself as CSV files (for plotting) and as human-readable text.
//
// Experiment index (see DESIGN.md for the full mapping):
//
//	Table1           – the five services
//	Fig1ExampleTrace – 2 s example trace of one aggregator host
//	Fig2And4         – burst frequency/duration/flows + queue/ECN/retx CDFs
//	Fig3Stability    – flow-count stability over hours and across hosts
//	Fig5Modes        – DCTCP operating modes (queue vs time)
//	Fig6ShortBursts  – 2 ms bursts at several incast degrees
//	Fig7InFlight     – per-flow in-flight skew and straggler ramp-up
//	Ablation*        – parameter and design-choice studies
package core

import (
	"fmt"
	"strings"

	"incastlab/internal/obs"
)

// Options configures every experiment runner.
type Options struct {
	// Seed drives all randomness; 0 means 1.
	Seed uint64
	// Quick shrinks corpus sizes and burst counts so the full suite runs
	// in seconds (used by tests); published numbers use Quick=false.
	Quick bool
	// Workers bounds the simulations in flight: 0 means GOMAXPROCS, 1
	// forces the serial path (useful for debugging). An experiment run on
	// its own fans its independent runs out up to this bound; under
	// RunExperiments the experiments overlap and the bound holds across
	// the whole run. Negative values are invalid; reject them with
	// ValidateWorkers before running. Results are identical either way —
	// every run is an isolated engine seeded from Seed, and results are
	// collected by index.
	Workers int
	// Audit attaches the internal/audit invariant auditor to every
	// packet-level simulation: byte/packet conservation, queue bounds,
	// clock monotonicity, congestion-window protocol bounds, and packet
	// -pool hygiene are checked throughout the run, and any violation
	// panics with a summary. Results are bit-identical to unaudited runs;
	// the cost is a modest slowdown.
	Audit bool
	// Metrics, when non-nil, collects run telemetry (engine, queue, link,
	// pool, transport, and congestion-control counters) from every
	// packet-level simulation the experiment spawns. Metrics are harvested
	// after each run from counters the simulation maintains anyway, so
	// instrumented results are bit-identical to uninstrumented ones, and
	// the registry's merge is commutative, so snapshots are identical
	// across serial and parallel schedules.
	Metrics *obs.Registry
	// Fidelity, when set to FidelityFlow, runs each simulation the
	// experiment spawns on the flow-level fluid backend where the
	// configuration supports it; runs that need packet-level-only features
	// (ICTCP, shared buffers, admission waves, ...) keep the packet
	// backend. Empty or FidelityPacket means packet-level everywhere.
	Fidelity string
	// Aggregation selects how flow-level runs represent the flow
	// population: AggregationPerFlow, AggregationCohort, or
	// AggregationAuto (also ""). It only applies to runs that actually
	// lower to the fluid backend and requires Fidelity == FidelityFlow
	// when set.
	Aggregation string

	// rows, when set by RunExperiments, is the row pool every runParallel
	// call of the run draws from; nil means each call makes its own.
	rows rowPool
}

// Validate rejects option values that would otherwise fail deep inside an
// experiment run.
func (o Options) Validate() error {
	if !KnownFidelity(o.Fidelity) {
		return fmt.Errorf("core: unknown fidelity %q (valid: %q, %q)",
			o.Fidelity, FidelityPacket, FidelityFlow)
	}
	if !KnownAggregation(o.Aggregation) {
		return fmt.Errorf("core: unknown aggregation %q (valid: %q, %q, %q)",
			o.Aggregation, AggregationAuto, AggregationCohort, AggregationPerFlow)
	}
	if o.Aggregation != "" && o.Fidelity != FidelityFlow {
		return fmt.Errorf("core: aggregation %q requires fidelity %q (the packet backend is per-packet by construction)",
			o.Aggregation, FidelityFlow)
	}
	return ValidateWorkers(o.Workers)
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// Result is implemented by every experiment result: it can write its CSV
// artifacts into a directory and summarize itself as text.
type Result interface {
	// Name returns the experiment identifier (e.g. "fig5").
	Name() string
	// WriteFiles writes the result's CSV artifacts under dir.
	WriteFiles(dir string) error
	// Summary renders a human-readable digest.
	Summary() string
}

// section formats a summary heading.
func section(title string) string {
	return fmt.Sprintf("%s\n%s\n", title, strings.Repeat("=", len(title)))
}
