package main

import (
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
