package audit_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"incastlab/internal/core"
	"incastlab/internal/netsim"
	"incastlab/internal/obs"
	"incastlab/internal/workload"
)

// The closed-loop differential gate. It is an external test package so it
// can import core: every side runs through core.RunIncastSim, the path
// every experiment and scenario takes, with no replica of its dispatch or
// measurement.

// gateSide is one backend of a gate row: a fidelity and, at fidelity flow,
// an aggregation level.
type gateSide struct{ name, fidelity, aggregation string }

var (
	packetSide = gateSide{"packet", core.FidelityPacket, ""}
	// flowSide is the automatic policy, per-flow at every gated degree.
	flowSide    = gateSide{"flow", core.FidelityFlow, ""}
	perflowSide = gateSide{"perflow", core.FidelityFlow, core.AggregationPerFlow}
	cohortSide  = gateSide{"cohort", core.FidelityFlow, core.AggregationCohort}
)

// run executes cfg on this side through RunIncastSim. A cohort side also
// reports its record count, read from the run's own flowsim_cohorts gauge.
// Only flow sides collect metrics: on the packet side they would switch
// off the pooled engine reuse that users run with.
func (s gateSide) run(cfg core.SimConfig) (res *core.SimResult, records int) {
	cfg.Fidelity, cfg.Aggregation = s.fidelity, s.aggregation
	if s.fidelity == core.FidelityFlow {
		cfg.Metrics = obs.NewRegistry()
	}
	res = core.RunIncastSim(cfg)
	for _, g := range cfg.Metrics.Snapshot().Gauges {
		if g.Name == "flowsim_cohorts" {
			records = int(g.Value)
		}
	}
	return res, records
}

// gateContract bounds how far side b may drift from the reference side a.
// Mode classification must match exactly. The BCT bounds are relative to
// side a; the peak-queue bound is absolute, in fractions of queue capacity.
type gateContract struct{ meanBCT, maxBCT, peakQueue float64 }

var (
	// packetFlowContract: the fluid engine has no per-packet serialization
	// jitter, and in timeout-dominated runs one RTO boundary moves whole
	// bursts, so BCTs drift by tens of percent. Both backends must still
	// agree whether the queue grazes K, rides near capacity, or overflows.
	packetFlowContract = gateContract{0.35, 0.50, 0.15}
	// perflowCohortContract is tighter: both sides are the same fluid
	// model, and cohorts give up only the sub-bucket jitter spread.
	perflowCohortContract = gateContract{0.15, 0.25, 0.10}
)

// gateRow is one gate point: a configuration, the reference side a, the
// side b under test, the contract between them, and the paper mode both
// must land in.
type gateRow struct {
	name     string
	cfg      core.SimConfig
	a, b     gateSide
	contract gateContract
	mode     string
	// dense marks the point where aggregation must pay: the cohort side
	// holds fewer than a quarter as many records as flows.
	dense bool
}

const (
	modeHealthy    = "1 (healthy)"
	modeDegenerate = "2 (degenerate)"
	modeTimeouts   = "3 (timeouts)"
)

// gateRows lists every gate point. The workload is the quick Fig-5 one:
// 15 ms bursts, 4 bursts with the first discarded, 250 ms spacing, seed 1.
// The fabric is ext_clos_crossrack's 8 racks of 501 hosts with ECMP seed 1.
// Each row name starts with the family its test runs.
func gateRows() []gateRow {
	dumbbell := func(n int) core.SimConfig { return core.SimConfig{Flows: n, Bursts: 4, Audit: true} }
	clos := func(n, aggregators int, placement string, audit bool) core.SimConfig {
		c := netsim.DefaultClosConfig(8, 501)
		c.ECMPSeed = 1
		return core.SimConfig{Flows: n, Bursts: 4, Audit: audit, Clos: &c,
			Aggregators: aggregators, Placement: placement}
	}
	crossRack := func(n int) core.SimConfig { return clos(n, 1, workload.PlacementCrossRack, true) }
	pf, pc := packetFlowContract, perflowCohortContract
	return []gateRow{
		{name: "packet-flow/dumbbell/n=80", cfg: dumbbell(80), a: packetSide, b: flowSide, contract: pf, mode: modeHealthy},
		{name: "packet-flow/dumbbell/n=500", cfg: dumbbell(500), a: packetSide, b: flowSide, contract: pf, mode: modeDegenerate},
		{name: "packet-flow/dumbbell/n=1400", cfg: dumbbell(1400), a: packetSide, b: flowSide, contract: pf, mode: modeTimeouts},
		{name: "packet-flow/clos-crossrack/n=80", cfg: crossRack(80), a: packetSide, b: flowSide, contract: pf, mode: modeHealthy},
		{name: "packet-flow/clos-crossrack/n=500", cfg: crossRack(500), a: packetSide, b: flowSide, contract: pf, mode: modeDegenerate},
		{name: "packet-flow/clos-samerack/n=80", cfg: clos(80, 1, workload.PlacementSameRack, false),
			a: packetSide, b: flowSide, contract: pf, mode: modeHealthy},
		{name: "packet-flow/clos-2agg/n=80", cfg: clos(80, 2, workload.PlacementCrossRack, false),
			a: packetSide, b: flowSide, contract: pf, mode: modeHealthy},
		{name: "perflow-cohort/dumbbell/n=80", cfg: dumbbell(80), a: perflowSide, b: cohortSide, contract: pc, mode: modeHealthy},
		{name: "perflow-cohort/dumbbell/n=500", cfg: dumbbell(500), a: perflowSide, b: cohortSide, contract: pc, mode: modeDegenerate},
		{name: "perflow-cohort/dumbbell/n=1400", cfg: dumbbell(1400), a: perflowSide, b: cohortSide, contract: pc, mode: modeTimeouts, dense: true},
		{name: "perflow-cohort/clos-crossrack/n=80", cfg: crossRack(80), a: perflowSide, b: cohortSide, contract: pc, mode: modeHealthy},
		{name: "perflow-cohort/clos-crossrack/n=500", cfg: crossRack(500), a: perflowSide, b: cohortSide, contract: pc, mode: modeDegenerate},
	}
}

// compare returns every way b breaches the row's contract against a. Each
// message names the row and the statistic.
func (row gateRow) compare(a, b *core.SimResult, records int) []string {
	var breaches []string
	breach := func(format string, args ...any) {
		breaches = append(breaches, row.name+": "+fmt.Sprintf(format, args...))
	}
	an, bn := row.a.name, row.b.name
	if a.Fidelity != row.a.fidelity || b.Fidelity != row.b.fidelity {
		breach("fidelity stamps %q / %q, want %q / %q", a.Fidelity, b.Fidelity, row.a.fidelity, row.b.fidelity)
	}
	if a.AlgName != b.AlgName || a.QueueCapacity != b.QueueCapacity {
		breach("alg/queue capacity: %s %q/%d vs %s %q/%d", an, a.AlgName, a.QueueCapacity, bn, b.AlgName, b.QueueCapacity)
	}
	if ma, mb := a.Mode(), b.Mode(); ma != mb || ma != row.mode {
		breach("mode: %s %q vs %s %q, want %q (timeouts %d/%d, fracBelowK %.3f/%.3f)",
			an, ma, bn, mb, row.mode, a.Timeouts, b.Timeouts, a.FracBelowK, b.FracBelowK)
	}
	relDiff := func(ref, x float64) float64 { return math.Abs(x-ref) / ref }
	if d := relDiff(float64(a.MeanBCT), float64(b.MeanBCT)); !(d <= row.contract.meanBCT) {
		breach("mean BCT: %s %v vs %s %v (rel diff %.3f > tol %.3f)", an, a.MeanBCT, bn, b.MeanBCT, d, row.contract.meanBCT)
	}
	if d := relDiff(float64(a.MaxBCT), float64(b.MaxBCT)); !(d <= row.contract.maxBCT) {
		breach("max BCT: %s %v vs %s %v (rel diff %.3f > tol %.3f)", an, a.MaxBCT, bn, b.MaxBCT, d, row.contract.maxBCT)
	}
	capPkts := float64(a.QueueCapacity)
	if d := math.Abs(a.MaxQueue-b.MaxQueue) / capPkts; !(d <= row.contract.peakQueue) {
		breach("peak queue: %s %.3f vs %s %.3f of capacity (diff %.3f > tol %.3f)",
			an, a.MaxQueue/capPkts, bn, b.MaxQueue/capPkts, d, row.contract.peakQueue)
	}
	if row.b == cohortSide {
		// Compression depends on the workload (a sparse fabric can put every
		// flow in its own class), but records never outnumber flows.
		flows := row.cfg.Flows * max(row.cfg.Aggregators, 1)
		if records <= 0 || records > flows || row.dense && records >= flows/4 {
			breach("%d cohort records for %d flows (dense point: %v)", records, flows, row.dense)
		}
	}
	return breaches
}

// runGate runs every row in the family named by prefix, both sides in
// checked mode where the row is audited: the packet invariant auditor and
// flowsim's per-step conservation checks.
func runGate(t *testing.T, prefix string) {
	ran := 0
	for _, row := range gateRows() {
		if !strings.HasPrefix(row.name, prefix) {
			continue
		}
		ran++
		t.Run(strings.TrimPrefix(row.name, prefix), func(t *testing.T) {
			a, _ := row.a.run(row.cfg)
			b, records := row.b.run(row.cfg)
			t.Logf("%s[%s meanBCT=%v maxBCT=%v peakQ=%.0f] %s[%s meanBCT=%v maxBCT=%v peakQ=%.0f] records=%d",
				row.a.name, a.Mode(), a.MeanBCT, a.MaxBCT, a.MaxQueue, row.b.name, b.Mode(), b.MeanBCT, b.MaxBCT, b.MaxQueue, records)
			for _, msg := range row.compare(a, b, records) {
				t.Error(msg)
			}
		})
	}
	if ran == 0 {
		t.Fatalf("no gate row in family %q", prefix)
	}
}

// TestIncastDifferentialGate holds the fluid solver to the packet
// simulator on the Fig-5 dumbbell, one point per paper mode.
func TestIncastDifferentialGate(t *testing.T) { runGate(t, "packet-flow/dumbbell/") }

// TestClosDifferentialGate holds the multi-queue fluid solver to the
// packet fabric at the ext_clos_crossrack points (Mode 1 and Mode 2).
func TestClosDifferentialGate(t *testing.T) { runGate(t, "packet-flow/clos-crossrack/") }

// TestClosDifferentialGateSameRack pins the placement control: same-rack
// workers never cross a spine, so the fluid side reduces to one queue and
// must still track the packet fabric.
func TestClosDifferentialGateSameRack(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	runGate(t, "packet-flow/clos-samerack/")
}

// TestClosDifferentialGateMultiAggregator runs two concurrent incasts over
// the fabric, aggregators at racks 0 and 1.
func TestClosDifferentialGateMultiAggregator(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	runGate(t, "packet-flow/clos-2agg/")
}

// TestCohortDifferentialGate holds cohort aggregation to one record per
// flow on the dumbbell and the Clos cross-rack points.
func TestCohortDifferentialGate(t *testing.T) { runGate(t, "perflow-cohort/") }

// detectsDivergence proves the comparator can fail: the named row's real
// pair, held to near-zero tolerances, must breach, and the message must
// name the point and the statistic.
func detectsDivergence(t *testing.T, name string) {
	for _, row := range gateRows() {
		if row.name != name {
			continue
		}
		row.cfg.Audit = false
		row.contract = gateContract{1e-12, 1e-12, 1e-12}
		a, _ := row.a.run(row.cfg)
		b, records := row.b.run(row.cfg)
		msg := strings.Join(row.compare(a, b, records), "\n")
		if msg == "" {
			t.Fatal("near-zero tolerances produced no breach")
		}
		for _, want := range []string{name, "mean BCT"} {
			if !strings.Contains(msg, want) {
				t.Errorf("breach report does not name %q:\n%s", want, msg)
			}
		}
		return
	}
	t.Fatalf("no gate row %q", name)
}

func TestIncastDiffDetectsDivergence(t *testing.T) {
	detectsDivergence(t, "packet-flow/dumbbell/n=80")
}

func TestClosDiffReportsBreaches(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	detectsDivergence(t, "packet-flow/clos-crossrack/n=80")
}

func TestCohortDiffReportsBreaches(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	detectsDivergence(t, "perflow-cohort/dumbbell/n=1400")
}
