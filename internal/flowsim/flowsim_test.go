package flowsim

import (
	"math"
	"testing"

	"incastlab/internal/netsim"
	"incastlab/internal/sim"
	"incastlab/internal/workload"
)

// quickConfig is the quick Fig-5 workload of an n-flow incast: 15 ms
// bursts at the 10 Gbps line rate, four bursts, checked.
func quickConfig(n int, cc CCConfig) Config {
	segs := workload.BytesPerFlowFor(10*netsim.Gbps, 15*sim.Millisecond, n) / netsim.MSS
	return Config{
		SegmentsPerFlow: segs,
		Bursts:          4,
		CC:              cc,
		Check:           true,
	}
}

// dumbbell is the paper dumbbell's path set for n flows.
func dumbbell(t testing.TB, n int) *netsim.FluidPaths {
	t.Helper()
	net, err := netsim.DefaultDumbbellConfig().FluidPaths(n)
	if err != nil {
		t.Fatalf("dumbbell path set of %d flows: %v", n, err)
	}
	return net
}

// TestModeClassification pins the fluid engine to the packet simulator's
// quick Fig-5 operating points: the three paper modes must classify
// identically and the headline levels must land within the differential
// tolerances (the audit harness pins the same contract cross-backend).
func TestModeClassification(t *testing.T) {
	cases := []struct {
		n       int
		mode    string
		busyAvg float64 // netsim quick golden busy-average queue
		meanBCT float64 // netsim quick golden mean BCT, ms
		busyTol float64 // relative
		bctTol  float64 // relative
	}{
		{80, "1 (healthy)", 89.822, 15.799, 0.30, 0.30},
		{500, "2 (degenerate)", 466.7, 15.404, 0.30, 0.30},
		{1400, "3 (timeouts)", 1097.1, 268.9, 0.35, 0.35},
	}
	for _, tc := range cases {
		res, err := Run(quickConfig(tc.n, CCConfig{}), dumbbell(t, tc.n))
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		if got := res.Mode(); got != tc.mode {
			t.Errorf("n=%d: mode %q, want %q (timeouts=%d fracBelowK=%.3f)",
				tc.n, got, tc.mode, res.Timeouts, res.FracBelowK)
		}
		busyAvg := res.BusyAvgQueue()
		if busyAvg == 0 {
			t.Fatalf("n=%d: no busy samples", tc.n)
		}
		if rel := math.Abs(busyAvg-tc.busyAvg) / tc.busyAvg; rel > tc.busyTol {
			t.Errorf("n=%d: busy-average queue %.1f vs golden %.1f (rel %.2f > %.2f)",
				tc.n, busyAvg, tc.busyAvg, rel, tc.busyTol)
		}
		meanMS := float64(res.MeanBCT) / 1e6
		if rel := math.Abs(meanMS-tc.meanBCT) / tc.meanBCT; rel > tc.bctTol {
			t.Errorf("n=%d: mean BCT %.3f ms vs golden %.3f ms (rel %.2f > %.2f)",
				tc.n, meanMS, tc.meanBCT, rel, tc.bctTol)
		}
	}
}

// TestInvariantsAcrossLaws runs every reduced-form law with per-step
// checking enabled: queue bounds and volume conservation hold throughout,
// every burst completes, and the aggregate counters are sane.
func TestInvariantsAcrossLaws(t *testing.T) {
	laws := []struct {
		name string
		cc   CCConfig
	}{
		{"dctcp", CCConfig{}},
		{"reno", CCConfig{Kind: KindReno}},
		{"swift", CCConfig{Kind: KindSwift}},
		{"d2tcp", CCConfig{Kind: KindDCTCP, DeadlineFactor: 2}},
		{"guardrail", CCConfig{CapPkts: 3}},
	}
	for _, law := range laws {
		for _, n := range []int{40, 300, 1400} {
			res, err := Run(quickConfig(n, law.cc), dumbbell(t, n))
			if err != nil {
				t.Fatalf("%s n=%d: %v", law.name, n, err)
			}
			if res.MaxQueue > float64(res.QueueCapacity)+1e-6 {
				t.Errorf("%s n=%d: max queue %.1f beyond capacity %d", law.name, n, res.MaxQueue, res.QueueCapacity)
			}
			if len(res.Lifetime.BCTs) != 4 {
				t.Errorf("%s n=%d: %d BCTs, want 4", law.name, n, len(res.Lifetime.BCTs))
			}
			for _, b := range res.Lifetime.BCTs {
				if b <= 0 {
					t.Errorf("%s n=%d: non-positive BCT %v", law.name, n, b)
				}
			}
			if res.SentPackets < res.DeliveredPackets {
				t.Errorf("%s n=%d: sent %d < delivered %d", law.name, n, res.SentPackets, res.DeliveredPackets)
			}
			if res.Marks < 0 || res.Drops < 0 || res.Timeouts < 0 {
				t.Errorf("%s n=%d: negative counters %+v", law.name, n, res)
			}
			if res.CwndUpdates <= 0 {
				t.Errorf("%s n=%d: no controller updates recorded", law.name, n)
			}
		}
	}
}

// TestDeterminism pins that identical configurations reproduce identical
// results (the engine's only entropy is the seeded jitter RNG).
func TestDeterminism(t *testing.T) {
	run := func() *Result {
		res, err := Run(quickConfig(700, CCConfig{}), dumbbell(t, 700))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.MeanBCT != b.MeanBCT || a.MaxQueue != b.MaxQueue || a.Timeouts != b.Timeouts ||
		a.Marks != b.Marks || a.Steps != b.Steps || a.FracBelowK != b.FracBelowK {
		t.Errorf("repeat run diverged: %+v vs %+v", a, b)
	}
	for i := range a.AvgQueue.Values {
		if a.AvgQueue.Values[i] != b.AvgQueue.Values[i] {
			t.Fatalf("avg series diverged at sample %d", i)
		}
	}
}

func TestSeedChangesJitter(t *testing.T) {
	base := quickConfig(200, CCConfig{})
	other := base
	other.Seed = 7
	a, err := Run(base, dumbbell(t, 200))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(other, dumbbell(t, 200))
	if err != nil {
		t.Fatal(err)
	}
	if a.Steps == b.Steps && a.MeanBCT == b.MeanBCT && a.SpikePackets == b.SpikePackets {
		t.Error("different seeds produced byte-identical runs; jitter RNG not applied")
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		timeouts   int64
		fracBelowK float64
		want       string
	}{
		{1, 0.5, "3 (timeouts)"},
		{0, 0.05, "2 (degenerate)"},
		{0, 0.10, "1 (healthy)"},
		{0, 0.9, "1 (healthy)"},
	}
	for _, tc := range cases {
		if got := Classify(tc.timeouts, tc.fracBelowK); got != tc.want {
			t.Errorf("Classify(%d, %.2f) = %q, want %q", tc.timeouts, tc.fracBelowK, got, tc.want)
		}
	}
}

// TestEffectivePacketRate pins the x1500/1538 wire-overhead contract shared
// with internal/audit.
func TestEffectivePacketRate(t *testing.T) {
	got := EffectivePacketRate(10 * netsim.Gbps)
	want := 10e9 / 8 / float64(netsim.MTU+netsim.EthernetOverhead)
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("EffectivePacketRate(10G) = %.3f, want %.3f", got, want)
	}
}

func TestConfigValidation(t *testing.T) {
	none := dumbbell(t, 1)
	none.Counts[0] = 0
	if _, err := Run(Config{SegmentsPerFlow: 1}, none); err == nil {
		t.Error("zero flows accepted")
	}
	if _, err := Run(Config{SegmentsPerFlow: 0}, dumbbell(t, 1)); err == nil {
		t.Error("zero demand accepted")
	}
	if _, err := Run(Config{SegmentsPerFlow: 1, JitterMax: sim.Second, Interval: sim.Millisecond}, dumbbell(t, 1)); err == nil {
		t.Error("jitter beyond interval accepted")
	}
}

// TestStalledFlowsRecover pins the Mode-3 machinery: a deep incast stalls
// flows on RTOs but every burst still completes, and the measured BCTs
// reflect at least one RTO worth of stall.
func TestStalledFlowsRecover(t *testing.T) {
	res, err := Run(quickConfig(1400, CCConfig{}), dumbbell(t, 1400))
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeouts == 0 {
		t.Fatal("1400-flow incast should stall flows")
	}
	if res.MeanBCT < 200*sim.Millisecond {
		t.Errorf("mean BCT %v below MinRTO; stalls not reflected in completion times", res.MeanBCT)
	}
	if res.RetransmitPackets <= 0 {
		t.Error("timeout-mode run recorded no retransmitted volume")
	}
}
