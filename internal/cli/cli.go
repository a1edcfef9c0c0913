// Package cli factors the flag plumbing shared by incastlab's commands
// (cmd/figures, cmd/incastsim): worker-count validation, the optional
// metrics registry, and the optional pprof profiler, so each command
// declares the flags once and gets identical semantics.
package cli

import (
	"flag"
	"fmt"
	"os"
	"time"

	"incastlab/internal/core"
	"incastlab/internal/obs"
)

// Common holds the flag values every incastlab command shares.
type Common struct {
	// Workers bounds the goroutines per experiment sweep.
	Workers int
	// Audit runs every packet-level simulation in checked mode.
	Audit bool
	// MetricsPath is where the JSON metrics snapshot lands ("-" = stdout);
	// empty disables metrics collection unless PprofAddr is set.
	MetricsPath string
	// PprofAddr serves net/http/pprof when non-empty.
	PprofAddr string
	// Fidelity selects the simulation backend ("packet" or "flow"; empty
	// means packet-level).
	Fidelity string
	// Aggregation selects the fluid backend's flow representation
	// ("auto", "cohort", or "perflow"; empty means auto). Requires
	// -fidelity flow.
	Aggregation string

	metrics *obs.Registry
	prof    *obs.Profiler
}

// Register declares the shared flags on fs and returns the struct their
// values land in. Call Setup after fs.Parse.
func Register(fs *flag.FlagSet) *Common {
	c := &Common{}
	fs.IntVar(&c.Workers, "workers", 0, "simulations in flight at once, across overlapping experiments in figures (0 = GOMAXPROCS, 1 = serial)")
	fs.BoolVar(&c.Audit, "audit", false, "run simulations in checked mode: enforce invariants (conservation, queue bounds, cc protocol bounds) on every packet-level run")
	fs.StringVar(&c.MetricsPath, "metrics", "", "write a JSON metrics snapshot of all runs to this file (\"-\" for stdout)")
	fs.StringVar(&c.PprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) and sample memory statistics")
	fs.StringVar(&c.Fidelity, "fidelity", "", "simulation backend: \"packet\" (default, discrete-event) or \"flow\" (fluid fast path; rejects packet-level-only features)")
	fs.StringVar(&c.Aggregation, "aggregation", "", "fluid flow representation: \"auto\" (default; cohorts above the size threshold), \"cohort\", or \"perflow\"; requires -fidelity flow")
	return c
}

// Setup validates the parsed flag values and starts whatever machinery
// they request: the metrics registry (for -metrics or -pprof) and the
// pprof profiler. Call Close — usually deferred — afterwards.
func (c *Common) Setup() error {
	if err := core.ValidateWorkers(c.Workers); err != nil {
		return fmt.Errorf("-workers: %w", err)
	}
	if !core.KnownFidelity(c.Fidelity) {
		return fmt.Errorf("-fidelity: unknown backend %q (valid: %q, %q)",
			c.Fidelity, core.FidelityPacket, core.FidelityFlow)
	}
	if !core.KnownAggregation(c.Aggregation) {
		return fmt.Errorf("-aggregation: unknown level %q (valid: %q, %q, %q)",
			c.Aggregation, core.AggregationAuto, core.AggregationCohort, core.AggregationPerFlow)
	}
	if c.Aggregation != "" && c.Fidelity != core.FidelityFlow {
		return fmt.Errorf("-aggregation %q shapes the fluid backend's flow population; it requires -fidelity %q",
			c.Aggregation, core.FidelityFlow)
	}
	if c.MetricsPath != "" || c.PprofAddr != "" {
		c.metrics = obs.NewRegistry()
	}
	if c.PprofAddr != "" {
		prof, err := obs.StartProfiler(c.PprofAddr, c.metrics, time.Second)
		if err != nil {
			return fmt.Errorf("-pprof: %w", err)
		}
		c.prof = prof
		fmt.Fprintf(os.Stderr, "pprof: serving on http://%s/debug/pprof/\n", prof.Addr())
	}
	return nil
}

// Metrics returns the run telemetry registry — nil unless -metrics or
// -pprof asked for one (a nil registry disables instrumentation).
func (c *Common) Metrics() *obs.Registry { return c.metrics }

// Close stops the profiler if one is running. Idempotent.
func (c *Common) Close() {
	if c.prof != nil {
		c.prof.Stop()
	}
}

// WriteMetrics finishes the metrics pipeline: it stops the profiler first
// (so the final MemStats sample lands in the file) and writes the snapshot
// where -metrics pointed. No-op when -metrics was not given. printSummary
// additionally prints the human-readable metrics digest before writing.
func (c *Common) WriteMetrics(printSummary bool) error {
	if c.MetricsPath == "" {
		return nil
	}
	c.Close()
	snap := c.metrics.Snapshot()
	if printSummary {
		fmt.Println()
		fmt.Print(snap.Summary())
	}
	if err := snap.WriteFile(c.MetricsPath); err != nil {
		return fmt.Errorf("-metrics: %w", err)
	}
	if c.MetricsPath != "-" {
		fmt.Printf("metrics snapshot written to %s\n", c.MetricsPath)
	}
	return nil
}
