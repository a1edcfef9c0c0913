package core

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"incastlab/internal/sim"
)

var quick = Options{Seed: 1, Quick: true}

func TestTable1(t *testing.T) {
	r := Table1(quick)
	if len(r.Services) != 5 {
		t.Fatalf("services = %d", len(r.Services))
	}
	if !strings.Contains(r.Summary(), "aggregator") {
		t.Fatal("summary missing services")
	}
}

func TestFig1ExampleTrace(t *testing.T) {
	r := Fig1ExampleTrace(Options{Seed: 1}) // full 2 s for stable stats
	// Paper: mean utilization 10.6%, bursty at line rate.
	if r.MeanUtilization < 0.04 || r.MeanUtilization > 0.30 {
		t.Fatalf("utilization = %v, want ~0.1", r.MeanUtilization)
	}
	if len(r.Bursts) < 20 {
		t.Fatalf("bursts = %d, want tens per 2s trace", len(r.Bursts))
	}
	incasts, big := 0, 0
	for _, b := range r.Bursts {
		if b.IsIncast() {
			incasts++
		}
		if b.PeakFlows >= 200 {
			big++
		}
	}
	if incasts*2 < len(r.Bursts) {
		t.Fatalf("only %d of %d bursts are incasts", incasts, len(r.Bursts))
	}
	// Paper Fig 1b: flow counts jump to 200 or more.
	if big == 0 {
		t.Fatal("no burst reached 200 flows")
	}
}

func TestFig2And4(t *testing.T) {
	r := Fig2And4BurstCharacterization(quick)
	if len(r.Reports) != 5 {
		t.Fatalf("reports = %d", len(r.Reports))
	}
	for _, sr := range r.Reports {
		if sr.Report.Bursts < 50 {
			t.Fatalf("%s: only %d bursts", sr.Service, sr.Report.Bursts)
		}
		if p99 := sr.Report.Flows.Quantile(0.99); p99 < 80 {
			t.Fatalf("%s: flows p99 = %v", sr.Service, p99)
		}
	}
}

func TestFig3StabilityAndVideoModes(t *testing.T) {
	r := Fig3Stability(quick)
	if len(r.Services) != 5 || len(r.RoundMeans) != 5 {
		t.Fatalf("shape: %d services, %d rows", len(r.Services), len(r.RoundMeans))
	}
	// Aggregator stays stable over rounds (Fig 3a).
	if s := r.StabilitySpread("aggregator"); s > 0.5 {
		t.Fatalf("aggregator spread = %v, want stable", s)
	}
	// Video's two operating modes make it the least stable service.
	if sv, sa := r.StabilitySpread("video"), r.StabilitySpread("messaging"); sv <= sa {
		t.Fatalf("video spread %v should exceed messaging %v (mode switching)", sv, sa)
	}
	// Hosts look alike (Fig 3b).
	var min, max float64
	for i, m := range r.HostMeans {
		if i == 0 || m < min {
			min = m
		}
		if i == 0 || m > max {
			max = m
		}
	}
	if (max-min)/max > 0.4 {
		t.Fatalf("host means %v..%v too spread", min, max)
	}
}

func TestFig5ModesShape(t *testing.T) {
	r := Fig5Modes(quick) // flows 80, 500, 1400
	byFlows := map[int]*SimResult{}
	for _, m := range r.Modes {
		byFlows[m.Flows] = m
	}

	m1 := byFlows[80]
	// Mode 1: healthy — queue parks near K, completion near the 15 ms
	// optimum, no timeouts.
	if m1.Timeouts != 0 {
		t.Fatalf("mode 1 timeouts = %d", m1.Timeouts)
	}
	if q := m1.BusyAvgQueue(); q < 30 || q > 130 {
		t.Fatalf("mode 1 busy queue = %v, want near K=65", q)
	}
	if m1.MeanBCT > 18*sim.Millisecond {
		t.Fatalf("mode 1 BCT = %v, want ~15ms", m1.MeanBCT)
	}

	m2 := byFlows[500]
	// Mode 2: degenerate point — queue stands at N - BDP (~475), still no
	// timeouts in the measured bursts, BCT near optimal.
	if m2.Timeouts != 0 || m2.Drops != 0 {
		t.Fatalf("mode 2 timeouts=%d drops=%d, want none", m2.Timeouts, m2.Drops)
	}
	if q := m2.BusyAvgQueue(); q < 400 || q > 550 {
		t.Fatalf("mode 2 busy queue = %v, want ~475 (N - BDP)", q)
	}
	if m2.MeanBCT > 18*sim.Millisecond {
		t.Fatalf("mode 2 BCT = %v, want ~15ms", m2.MeanBCT)
	}

	m3 := byFlows[1400]
	// Mode 3: timeouts — overflow drops every burst, completion bound by
	// the 200 ms minimum RTO.
	if m3.Timeouts == 0 || m3.Drops == 0 {
		t.Fatalf("mode 3 timeouts=%d drops=%d, want both > 0", m3.Timeouts, m3.Drops)
	}
	if m3.MeanBCT < 100*sim.Millisecond {
		t.Fatalf("mode 3 BCT = %v, want RTO-bound (~200ms)", m3.MeanBCT)
	}
	if m3.MaxQueue < float64(m3.QueueCapacity)-5 {
		t.Fatalf("mode 3 max queue = %v, want overflow at %d", m3.MaxQueue, m3.QueueCapacity)
	}

	// Mode labels agree.
	if mode(m1) != "1 (healthy)" || mode(m2) != "2 (degenerate)" || !strings.HasPrefix(mode(m3), "3") {
		t.Fatalf("modes misclassified: %s / %s / %s", mode(m1), mode(m2), mode(m3))
	}
}

func TestFig6ShortBurstsShape(t *testing.T) {
	r := Fig6ShortBursts(quick) // flows 50, 200
	if len(r.Runs) != 2 {
		t.Fatalf("runs = %d", len(r.Runs))
	}
	small, large := r.Runs[0], r.Runs[1]
	// Deeper incast, deeper spike.
	if large.MaxQueue <= small.MaxQueue {
		t.Fatalf("max queue should grow with flows: %v vs %v", small.MaxQueue, large.MaxQueue)
	}
	// 2 ms bursts complete fast and are spike-dominated: the maximum is
	// reached within the first 2 ms.
	for _, m := range r.Runs {
		if m.MeanBCT > 5*sim.Millisecond {
			t.Fatalf("%d flows: BCT = %v, want ~2ms", m.Flows, m.MeanBCT)
		}
		if m.SpikePackets < 0.8*m.AvgQueue.Max() {
			t.Fatalf("%d flows: spike %v not dominant vs averaged max %v",
				m.Flows, m.SpikePackets, m.AvgQueue.Max())
		}
	}
}

func TestFig7InFlightSkew(t *testing.T) {
	r := Fig7InFlight(quick)
	// Paper: p95/p100 transmit several times the median; the average
	// rises at the end of the burst as stragglers ramp.
	if r.MaxSkew < 1.5 {
		t.Fatalf("skew = %v, want > 1.5x", r.MaxSkew)
	}
	if r.RampRatio < 1.1 {
		t.Fatalf("ramp ratio = %v, want end-of-burst ramp-up", r.RampRatio)
	}
}

func TestAblationECNThresholdMonotone(t *testing.T) {
	r := AblationECNThreshold(quick)
	if len(r.Table().Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Table().Rows))
	}
	// Busy-queue depth should increase with K (column 1).
	prev := -1.0
	for _, row := range r.Table().Rows {
		v := parseFloat(t, row[1])
		if v <= prev {
			t.Fatalf("queue depth not increasing with K: %v", r.Table().Rows)
		}
		prev = v
	}
}

func TestAblationGuardrailShrinksSpike(t *testing.T) {
	r := AblationGuardrail(quick)
	// Rows come in groups of three per flow count: dctcp, guardrail, wave.
	byScheme := map[string][]string{}
	for _, row := range r.Table().Rows {
		if row[0] == "80" {
			byScheme[row[1]] = row
		}
	}
	base := parseFloat(t, byScheme["dctcp"][4]) // spike_pkts column
	guard := parseFloat(t, byScheme["dctcp+guardrail"][4])
	wave := parseFloat(t, byScheme["dctcp+wave64"][4])
	if guard >= base {
		t.Fatalf("guardrail spike %v >= dctcp %v", guard, base)
	}
	if wave > base*1.5 {
		t.Fatalf("wave spike %v much worse than dctcp %v", wave, base)
	}
}

func TestAblationCCAContrast(t *testing.T) {
	r := AblationCCA(quick)
	byName := map[string][]string{}
	for _, row := range r.Table().Rows {
		byName[row[0]] = row
	}
	renoMax := parseFloat(t, byName["reno"][2])
	dctcpMax := parseFloat(t, byName["dctcp"][2])
	// Reno ignores ECN and drives the queue far deeper than DCTCP.
	if renoMax <= 2*dctcpMax {
		t.Fatalf("reno max queue %v should dwarf dctcp %v", renoMax, dctcpMax)
	}
}

func TestAblationSharedBufferCausesTimeouts(t *testing.T) {
	if testing.Short() {
		t.Skip("two 1000-flow simulations")
	}
	r := AblationSharedBuffer(quick)
	dedicated, shared := r.Table().Rows[0], r.Table().Rows[1]
	if parseFloat(t, dedicated[5]) != 0 { // timeouts
		t.Fatalf("dedicated buffer should absorb 1000 flows: %v", dedicated)
	}
	if parseFloat(t, shared[5]) == 0 {
		t.Fatalf("contended shared buffer should cause timeouts: %v", shared)
	}
}

func TestAblationDelayedACKsDeepenQueue(t *testing.T) {
	r := AblationDelayedACKs(quick)
	imm := parseFloat(t, r.Table().Rows[0][2])     // queue_max
	delayed := parseFloat(t, r.Table().Rows[1][2]) // queue_max
	if delayed < imm {
		t.Fatalf("delayed ACKs max queue %v < immediate %v; coalescing should deepen bursts", delayed, imm)
	}
}

func TestAblationGRuns(t *testing.T) {
	r := AblationG(quick)
	if len(r.Table().Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Table().Rows))
	}
	for _, row := range r.Table().Rows {
		if parseFloat(t, row[5]) != 0 { // timeouts
			t.Fatalf("g sweep should stay in healthy mode: %v", row)
		}
	}
}

func TestResultsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	results := []Result{
		Table1(quick),
		Fig1ExampleTrace(quick),
		AblationG(quick),
	}
	for _, r := range results {
		if err := r.WriteFiles(dir); err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		if r.Summary() == "" {
			t.Fatalf("%s: empty summary", r.Name())
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 3 {
		t.Fatalf("expected CSV files, got %v", entries)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".csv" {
			t.Fatalf("unexpected artifact %s", e.Name())
		}
	}
}

func TestSimResultDeterminism(t *testing.T) {
	run := func() *SimResult {
		return RunIncastSim(SimConfig{
			Flows: 30, BurstDuration: sim.Millisecond, Bursts: 3,
			Interval: 5 * sim.Millisecond, Seed: 42,
		})
	}
	a, b := run(), run()
	if a.MeanBCT != b.MeanBCT || a.MaxQueue != b.MaxQueue || a.Drops != b.Drops {
		t.Fatal("identical configs diverged")
	}
	for i := range a.AvgQueue.Values {
		if a.AvgQueue.Values[i] != b.AvgQueue.Values[i] {
			t.Fatalf("queue trace diverged at %d", i)
		}
	}
}

func parseFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestCrossValidationRecoversWorkload(t *testing.T) {
	r := CrossValidation(quick)
	rep := r.Report
	// Millisampler must recover the configured burst cadence: 50/s, ~2 ms,
	// ~150 flows, all incasts.
	f := rep.BurstsPerSecond.Quantile(0.5)
	if f < 0.7*r.TrueBurstsPerSec || f > 1.3*r.TrueBurstsPerSec {
		t.Fatalf("measured frequency %v, truth %v", f, r.TrueBurstsPerSec)
	}
	d := rep.DurationMS.Quantile(0.5)
	if d < 1 || d > 4 {
		t.Fatalf("measured duration %v ms, truth 2 ms", d)
	}
	flows := rep.Flows.Quantile(0.5)
	if flows < 0.8*float64(r.TrueFlows) || flows > 1.05*float64(r.TrueFlows) {
		t.Fatalf("measured degree %v, truth %d", flows, r.TrueFlows)
	}
	if rep.IncastFraction() != 1 {
		t.Fatalf("incast fraction %v, want 1", rep.IncastFraction())
	}
	if err := r.WriteFiles(t.TempDir()); err != nil {
		t.Fatal(err)
	}
}

func TestAblationMinRTOBCTTracksRTO(t *testing.T) {
	if testing.Short() {
		t.Skip("three 1400-flow simulations")
	}
	r := AblationMinRTO(quick)
	if len(r.Table().Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Table().Rows))
	}
	// BCT (column 4) must increase with min RTO, roughly one-for-one.
	var prevRTO, prevBCT float64
	for i, row := range r.Table().Rows {
		rto := parseFloat(t, row[0])
		bct := parseFloat(t, row[4])
		if bct < rto {
			t.Fatalf("BCT %v ms below the %v ms min RTO", bct, rto)
		}
		if i > 0 && bct <= prevBCT {
			t.Fatalf("BCT not increasing with min RTO: %v", r.Table().Rows)
		}
		prevRTO, prevBCT = rto, bct
	}
	_ = prevRTO
}

func TestAblationIdleRestartIsNoOpDuringIncast(t *testing.T) {
	r := AblationIdleRestart(quick)
	persistent := parseFloat(t, r.Table().Rows[0][3]) // spike_pkts
	restart := parseFloat(t, r.Table().Rows[1][3])
	// RFC 2861/5681 restarts clamp to min(IW, cwnd); incast windows are
	// already below IW, so the straggler spike must be unchanged — the
	// negative result that motivates the sub-IW guardrail.
	if restart < 0.8*persistent || restart > 1.2*persistent {
		t.Fatalf("idle restart changed the spike (%v vs %v); expected a no-op during incast",
			restart, persistent)
	}
}

func TestRackContentionDegradesVictim(t *testing.T) {
	if testing.Short() {
		t.Skip("two multi-hundred-flow rack simulations")
	}
	r := RackContention(quick)
	if r.Solo.Drops != 0 || r.Solo.Timeouts != 0 {
		t.Fatalf("victim alone should be lossless: %+v", r.Solo)
	}
	if r.Contended.Drops == 0 || r.Contended.Timeouts == 0 {
		t.Fatalf("neighbor incast should cause loss: %+v", r.Contended)
	}
	if r.Contended.MeanBCT < 4*r.Solo.MeanBCT {
		t.Fatalf("contended BCT %v should dwarf solo %v", r.Contended.MeanBCT, r.Solo.MeanBCT)
	}
	if err := r.WriteFiles(t.TempDir()); err != nil {
		t.Fatal(err)
	}
}

func TestAblationReceiverWindowShape(t *testing.T) {
	r := AblationReceiverWindow(quick)
	rows := map[string][]string{}
	for _, row := range r.Table().Rows {
		rows[row[0]+"/"+row[1]] = row
	}
	// At 40 flows, ICTCP must cut Reno's queue excursions.
	renoMax := parseFloat(t, rows["40/reno"][3])
	ictcpMax := parseFloat(t, rows["40/reno+ictcp"][3])
	if ictcpMax >= renoMax {
		t.Fatalf("ictcp max queue %v >= reno %v at 40 flows", ictcpMax, renoMax)
	}
	// At 400 flows the 2-MSS floor pins ~2N packets: queue stays deep.
	deep := parseFloat(t, rows["400/reno+ictcp"][2]) // busy-avg
	if deep < 300 {
		t.Fatalf("ictcp busy queue %v at 400 flows; the window floor should pin ~2N packets", deep)
	}
}

func TestModeBoundaryClassification(t *testing.T) {
	r := ModeBoundary(quick) // flows 60, 95, 1420
	want := map[int]string{60: "1", 95: "2", 1420: "3"}
	for i, n := range r.Flows {
		if !strings.HasPrefix(r.Modes[i], want[n]) {
			t.Fatalf("%d flows classified %q, want mode %s*", n, r.Modes[i], want[n])
		}
	}
	if r.HealthyToDegenerate != 95 || r.DegenerateToTimeout != 1420 {
		t.Fatalf("boundaries = %d, %d (quick grid: want 95 and 1420)",
			r.HealthyToDegenerate, r.DegenerateToTimeout)
	}
}

// TestAllExperimentsQuick runs the entire experiment registry in quick
// mode and validates the Result contract: unique names, non-empty
// summaries, and CSV artifacts on disk.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	dir := t.TempDir()
	seen := map[string]bool{}
	for _, r := range All(quick) {
		name := r.Name()
		if name == "" || seen[name] {
			t.Fatalf("experiment name %q empty or duplicated", name)
		}
		seen[name] = true
		if r.Summary() == "" {
			t.Fatalf("%s: empty summary", name)
		}
		if err := r.WriteFiles(dir); err != nil {
			t.Fatalf("%s: WriteFiles: %v", name, err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < len(seen) {
		t.Fatalf("only %d artifacts for %d experiments", len(entries), len(seen))
	}
}

func TestAblationMarkingDisciplineDeepensQueue(t *testing.T) {
	r := AblationMarkingDiscipline(quick)
	inst := parseFloat(t, r.Table().Rows[0][3]) // queue_max
	ewma := parseFloat(t, r.Table().Rows[1][3])
	if ewma <= inst {
		t.Fatalf("EWMA marking max queue %v <= instantaneous %v; lagging feedback should deepen excursions",
			ewma, inst)
	}
}
