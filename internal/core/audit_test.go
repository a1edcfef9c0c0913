package core

import (
	"strings"
	"testing"

	"incastlab/internal/sim"
)

// TestAuditedSimMatchesUnaudited verifies the checked mode's core promise:
// attaching the invariant auditor changes nothing about the simulation.
func TestAuditedSimMatchesUnaudited(t *testing.T) {
	run := func(audited bool) *SimResult {
		return RunIncastSim(SimConfig{
			Flows: 30, BurstDuration: sim.Millisecond, Bursts: 3,
			Interval: 5 * sim.Millisecond, Seed: 42, Audit: audited,
		})
	}
	plain, audited := run(false), run(true)
	if plain.MeanBCT != audited.MeanBCT || plain.MaxBCT != audited.MaxBCT ||
		plain.MaxQueue != audited.MaxQueue || plain.Drops != audited.Drops ||
		plain.Marks != audited.Marks || plain.Timeouts != audited.Timeouts ||
		plain.SentPackets != audited.SentPackets {
		t.Fatalf("audit changed results:\nplain:   %+v\naudited: %+v", plain, audited)
	}
}

// TestAuditedExperiments runs the packet-level experiments in checked mode.
// Any invariant violation panics inside the runner, so passing means zero
// violations across every simulated figure, including the timeout-dominated
// Mode 3 runs and the shared-buffer rack experiment.
func TestAuditedExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("audited experiment sweep is not short")
	}
	opt := Options{Seed: 1, Quick: true, Audit: true}
	experiments := []struct {
		name string
		run  func()
	}{
		{"fig5", func() { Fig5Modes(opt) }},
		{"fig6", func() { Fig6ShortBursts(opt) }},
		{"fig7", func() { Fig7InFlight(opt) }},
		{"crossval", func() { CrossValidation(opt) }},
		{"rack_contention", func() { RackContention(opt) }},
	}
	for _, exp := range experiments {
		exp := exp
		t.Run(exp.name, func(t *testing.T) {
			t.Parallel()
			exp.run()
		})
	}
}

// TestValidateWorkers is the satellite table test: negative worker counts
// are rejected with a clear error everywhere they can enter, before any
// goroutine fan-out happens.
func TestValidateWorkers(t *testing.T) {
	cases := []struct {
		workers int
		wantErr bool
	}{
		{-100, true},
		{-1, true},
		{0, false},
		{1, false},
		{8, false},
		{1 << 20, false},
	}
	for _, c := range cases {
		err := ValidateWorkers(c.workers)
		if (err != nil) != c.wantErr {
			t.Errorf("ValidateWorkers(%d) = %v, wantErr=%v", c.workers, err, c.wantErr)
		}
		if err != nil && !strings.Contains(err.Error(), "workers must be >= 0") {
			t.Errorf("ValidateWorkers(%d) error %q lacks guidance", c.workers, err)
		}
		optErr := Options{Workers: c.workers}.Validate()
		if (optErr != nil) != c.wantErr {
			t.Errorf("Options{Workers: %d}.Validate() = %v, wantErr=%v", c.workers, optErr, c.wantErr)
		}
	}
}

// TestRunParallelRejectsNegativeWorkers pins the fail-fast behavior behind
// the front-end validation: internal misuse panics instead of silently
// reinterpreting a negative count as "all cores".
func TestRunParallelRejectsNegativeWorkers(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("runParallel(-2, ...) did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "workers must be >= 0") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	runParallel(Options{Workers: -2}, 3, func(i int) int { return i })
}
