package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// buildBinary compiles the incastsim binary once for the CLI exit-code
// tests below — they assert on observable process behavior (exit status
// and stderr), which in-process flag tests cannot reach past log.Fatalf.
var buildBinary = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "incastsim-cli")
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "incastsim")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		return "", &exec.Error{Name: "go build: " + string(out), Err: err}
	}
	return bin, nil
})

func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	bin, err := buildBinary()
	if err != nil {
		t.Fatalf("build incastsim: %v", err)
	}
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestCLIUnknownFidelity: a bogus -fidelity value must exit non-zero and
// the diagnostic must list the valid levels so the user can self-correct.
func TestCLIUnknownFidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips binary build")
	}
	out, err := runCLI(t, "-fidelity", "quantum", "-flows", "8")
	if err == nil {
		t.Fatalf("-fidelity quantum exited zero; output:\n%s", out)
	}
	for _, want := range []string{`"quantum"`, `"packet"`, `"flow"`} {
		if !strings.Contains(out, want) {
			t.Errorf("unknown-fidelity diagnostic %q does not mention %s", out, want)
		}
	}
}

// TestCLIFlowsMustBePositive: a non-positive -flows must exit non-zero
// with a one-line diagnostic naming the flag, the way a bad -sweep entry
// does, not a panic and its goroutine dump.
func TestCLIFlowsMustBePositive(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips binary build")
	}
	for _, flows := range []string{"0", "-5"} {
		out, err := runCLI(t, "-flows", flows, "-plot=false")
		if err == nil {
			t.Fatalf("-flows %s exited zero; output:\n%s", flows, out)
		}
		msg := strings.TrimSpace(out)
		if strings.Contains(msg, "\n") || strings.Contains(msg, "panic") || strings.Contains(msg, "goroutine") {
			t.Errorf("-flows %s: want a one-line diagnostic, got:\n%s", flows, out)
		}
		if !strings.Contains(msg, "-flows") {
			t.Errorf("-flows %s: diagnostic %q does not name the flag", flows, msg)
		}
	}
}

// TestCLIFlagRanges: each flag outside the range the scenario rulebook
// gives its setting exits 1, before any run, with a one-line diagnostic
// naming the flag: not a panic and its goroutine dump, and not a run with
// the value silently replaced or ignored.
func TestCLIFlagRanges(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips binary build")
	}
	for _, args := range [][]string{
		{"-duration", "-5"},
		{"-duration", "0"},
		{"-interval", "-5"},
		{"-bursts", "-1"},
		{"-bursts", "0"},
		{"-jitter", "-1"},
		{"-jitter", "250"},
		{"-queue", "-1"},
		{"-ecn", "-1"},
		{"-shared", "-1"},
		{"-contend", "-1"},
		{"-wave", "-3"},
		{"-g", "0"},
		{"-g", "5"},
		{"-g", "NaN"},
		{"-notify-backoff", "2"},
		{"-notify-backoff", "-0.5"},
	} {
		out, err := runCLI(t, append([]string{"-flows", "10", "-bursts", "2", "-notify", "-plot=false"}, args...)...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%s %s: want exit status 1, got %v; output:\n%s", args[0], args[1], err, out)
			continue
		}
		msg := strings.TrimSpace(out)
		if strings.Contains(msg, "\n") || strings.Contains(msg, "panic") || strings.Contains(msg, "goroutine") {
			t.Errorf("%s %s: want a one-line diagnostic, got:\n%s", args[0], args[1], out)
		}
		if !strings.Contains(msg, args[0]+" ") {
			t.Errorf("%s %s: diagnostic %q does not name the flag", args[0], args[1], msg)
		}
	}
}

// TestCLIUnboundedQueuePlot: -queue 0 is an unbounded queue to the packet
// backend, so the run completes and its plot scales to the run's peak.
func TestCLIUnboundedQueuePlot(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips binary build")
	}
	out, err := runCLI(t, "-flows", "10", "-bursts", "2", "-queue", "0")
	if err != nil {
		t.Fatalf("-queue 0 failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "Queue depth over the averaged burst") || !strings.Contains(out, "|#") {
		t.Errorf("-queue 0 printed no queue plot:\n%s", out)
	}
}

// TestCLIContendNeedsShared: rack contention lives in a shared buffer, so
// -contend without -shared must exit non-zero with a one-line diagnostic
// naming the shared buffer, not a panic and its goroutine dump.
func TestCLIContendNeedsShared(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips binary build")
	}
	out, err := runCLI(t, "-flows", "50", "-bursts", "2", "-contend", "700000", "-plot=false")
	if err == nil {
		t.Fatalf("-contend without -shared exited zero; output:\n%s", out)
	}
	msg := strings.TrimSpace(out)
	if strings.Contains(msg, "\n") || strings.Contains(msg, "panic") || strings.Contains(msg, "goroutine") {
		t.Errorf("want a one-line diagnostic, got:\n%s", out)
	}
	if !strings.Contains(msg, "shared buffer") {
		t.Errorf("diagnostic %q does not name the shared buffer", msg)
	}
}

// TestCLIFlowNeedsECNThreshold: the packet backend reads -ecn 0 as no
// marking, which a fluid queue cannot model, so -fidelity flow must exit
// non-zero with a one-line diagnostic naming the ECN threshold rather
// than run with some other threshold.
func TestCLIFlowNeedsECNThreshold(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips binary build")
	}
	out, err := runCLI(t, "-flows", "100", "-bursts", "2", "-ecn", "0", "-fidelity", "flow", "-plot=false")
	if err == nil {
		t.Fatalf("-ecn 0 -fidelity flow exited zero; output:\n%s", out)
	}
	msg := strings.TrimSpace(out)
	if strings.Contains(msg, "\n") || strings.Contains(msg, "panic") || strings.Contains(msg, "goroutine") {
		t.Errorf("want a one-line diagnostic, got:\n%s", out)
	}
	if !strings.Contains(msg, "ECN threshold") {
		t.Errorf("diagnostic %q does not name the ECN threshold", msg)
	}
}

// TestCLIFlowFidelityNotifyRejected: fidelity "flow" cannot model the
// notification path; the refusal must exit non-zero and name both knobs
// — the fidelity value and the notification feature — so the user knows
// which of the two to change.
func TestCLIFlowFidelityNotifyRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips binary build")
	}
	out, err := runCLI(t, "-fidelity", "flow", "-notify", "-flows", "8")
	if err == nil {
		t.Fatalf("-fidelity flow -notify exited zero; output:\n%s", out)
	}
	for _, want := range []string{"-fidelity flow", "notification", `"packet"`} {
		if !strings.Contains(out, want) {
			t.Errorf("flow+notify diagnostic %q does not mention %q", out, want)
		}
	}
}

// TestCLIUnknownAggregation: a bogus -aggregation level must exit
// non-zero and the diagnostic must list the valid levels so the user can
// self-correct, mirroring the -fidelity contract.
func TestCLIUnknownAggregation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips binary build")
	}
	out, err := runCLI(t, "-fidelity", "flow", "-aggregation", "bogus", "-flows", "8")
	if err == nil {
		t.Fatalf("-aggregation bogus exited zero; output:\n%s", out)
	}
	for _, want := range []string{`"bogus"`, `"auto"`, `"cohort"`, `"perflow"`} {
		if !strings.Contains(out, want) {
			t.Errorf("unknown-aggregation diagnostic %q does not mention %s", out, want)
		}
	}
}

// TestCLIAggregationNeedsFlowFidelity: -aggregation shapes the fluid
// backend's flow population; asking for it on the (default) packet
// backend must exit non-zero and point at the fidelity knob.
func TestCLIAggregationNeedsFlowFidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips binary build")
	}
	out, err := runCLI(t, "-aggregation", "cohort", "-flows", "8")
	if err == nil {
		t.Fatalf("-aggregation cohort without -fidelity flow exited zero; output:\n%s", out)
	}
	for _, want := range []string{`"cohort"`, "-fidelity", `"flow"`} {
		if !strings.Contains(out, want) {
			t.Errorf("aggregation-without-flow diagnostic %q does not mention %s", out, want)
		}
	}
}

// TestCLIFlowFidelityClosAccepted: since the fluid engine solves the
// whole queue network, -fidelity flow with a Clos scenario must run.
func TestCLIFlowFidelityClosAccepted(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips binary build")
	}
	outDir := t.TempDir()
	out, err := runCLI(t, "-scenario", "../../examples/scenarios/clos_crossrack.json",
		"-fidelity", "flow", "-quick", "-out", outDir)
	if err != nil {
		t.Fatalf("clos scenario at -fidelity flow failed: %v\n%s", err, out)
	}
	if _, err := os.Stat(filepath.Join(outDir, "clos_crossrack.csv")); err != nil {
		t.Errorf("no CSV written: %v", err)
	}
}
