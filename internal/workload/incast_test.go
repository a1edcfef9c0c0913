package workload

import (
	"testing"

	"incastlab/internal/cc"
	"incastlab/internal/netsim"
	"incastlab/internal/sim"
	"incastlab/internal/tcp"
)

func dctcpFactory(flow int) cc.Algorithm { return cc.NewDCTCP(cc.DefaultDCTCPConfig()) }

func TestBytesPerFlowFor(t *testing.T) {
	// 10 Gbps for 15 ms = 18.75 MB; across 100 flows = 187.5 KB, rounded
	// down to whole segments.
	got := BytesPerFlowFor(10*netsim.Gbps, 15*sim.Millisecond, 100)
	if got < 180_000 || got > 190_000 {
		t.Fatalf("bytes per flow = %d, want ~187500", got)
	}
	if got%netsim.MSS != 0 {
		t.Fatalf("demand %d not segment-aligned", got)
	}
	// Extreme degree still sends at least one segment.
	if got := BytesPerFlowFor(10*netsim.Gbps, sim.Millisecond, 1_000_000); got != netsim.MSS {
		t.Fatalf("minimum demand = %d, want 1 MSS", got)
	}
}

// smallConfig is a burst schedule for n flows: 1 ms of bottleneck demand
// every 3 ms, three bursts, 0-100 us jitter.
func smallConfig(n int) GroupConfig {
	return GroupConfig{
		BytesPerFlow: BytesPerFlowFor(10*netsim.Gbps, sim.Millisecond, n),
		Bursts:       3,
		Interval:     3 * sim.Millisecond,
		JitterMax:    100 * sim.Microsecond,
		Seed:         1,
	}
}

// dumbbellIncast connects n flows from the senders of an n-sender dumbbell
// to its receiver and schedules cfg's bursts over them.
func dumbbellIncast(eng *sim.Engine, n int, cfg GroupConfig) (*netsim.Dumbbell, *Flows) {
	net := netsim.NewDumbbell(eng, netsim.DefaultDumbbellConfig(), n, 1, nil)
	senders, receivers := Connect(eng, n,
		func(f int) *netsim.Host { return net.Senders[f] },
		func(int) *netsim.Host { return net.Receiver },
		dctcpFactory, tcp.DefaultSenderConfig(), tcp.DefaultReceiverConfig())
	return net, &Flows{Group: NewGroup(eng, senders, cfg), Receivers: receivers}
}

func runSmallIncast(t *testing.T, n int, cfg GroupConfig) (*netsim.Dumbbell, *Flows) {
	t.Helper()
	eng := sim.NewEngine()
	net, in := dumbbellIncast(eng, n, cfg)
	runToDone(t, eng, in.Group)
	return net, in
}

// runToDone runs eng for a simulated second, far past every burst these
// tests schedule, and fails unless g completed. A deadline rather than
// Run: a flow that a broken connection strands keeps its retransmission
// timer firing, so the engine would never run out of events.
func runToDone(t *testing.T, eng *sim.Engine, g *Group) {
	t.Helper()
	eng.RunUntil(sim.Second)
	if !g.Done() {
		t.Fatal("incast did not complete within a simulated second")
	}
}

func TestIncastCompletesAndConserves(t *testing.T) {
	cfg := smallConfig(20)
	_, in := runSmallIncast(t, 20, cfg)

	// Conservation: every receiver got exactly bursts * perflow bytes.
	for i, r := range in.Receivers {
		want := int64(cfg.Bursts) * cfg.BytesPerFlow
		if r.RcvNxt() != want {
			t.Fatalf("flow %d delivered %d bytes, want %d", i, r.RcvNxt(), want)
		}
	}
	for _, b := range in.Bursts() {
		if b.BCT <= 0 {
			t.Fatalf("burst %d has no completion: %+v", b.Index, b)
		}
		if b.End != b.Start+b.BCT {
			t.Fatalf("burst %d: inconsistent record %+v", b.Index, b)
		}
	}
}

// TestConnectSharesHostHubs: flows that share a host share its one hub, so
// 2N flows from N sender hosts to two receivers all complete and every
// receiver reaches its demand. A second hub on a host would replace the
// first through Host.Attach and strand the first hub's flows.
func TestConnectSharesHostHubs(t *testing.T) {
	const n = 10
	eng := sim.NewEngine()
	net := netsim.NewDumbbell(eng, netsim.DefaultDumbbellConfig(), n, 2, nil)
	senders, receivers := Connect(eng, 2*n,
		func(f int) *netsim.Host { return net.Senders[f%n] },
		func(f int) *netsim.Host { return net.Receivers[f/n] },
		dctcpFactory, tcp.DefaultSenderConfig(), tcp.DefaultReceiverConfig())
	cfg := smallConfig(2 * n)
	groups := []*Group{NewGroup(eng, senders[:n], cfg), NewGroup(eng, senders[n:], cfg)}
	eng.RunUntil(sim.Second)
	for g, grp := range groups {
		if !grp.Done() {
			t.Fatalf("group %d did not complete", g)
		}
	}
	want := int64(cfg.Bursts) * cfg.BytesPerFlow
	for f, r := range receivers {
		if r.Host() != net.Receivers[f/n] {
			t.Fatalf("flow %d received at %v, want receiver %d", f, r.Host().ID(), f/n)
		}
		if r.RcvNxt() != want {
			t.Fatalf("flow %d delivered %d bytes, want %d", f, r.RcvNxt(), want)
		}
	}
}

func TestIncastBCTNearTarget(t *testing.T) {
	// 20 flows, 1 ms of bottleneck demand: steady-state BCT should be near
	// 1 ms and surely below the 3 ms interval (no burst overlap).
	_, in := runSmallIncast(t, 20, smallConfig(20))
	for _, b := range in.Bursts()[1:] { // skip slow-start burst
		if b.BCT < 800*sim.Microsecond || b.BCT > 3*sim.Millisecond {
			t.Fatalf("burst %d BCT = %v, want ~1ms", b.Index, b.BCT)
		}
	}
}

func TestIncastDeterministicUnderSeed(t *testing.T) {
	run := func() []BurstRecord {
		eng := sim.NewEngine()
		_, in := dumbbellIncast(eng, 20, smallConfig(20))
		runToDone(t, eng, in.Group)
		return in.Bursts()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at burst %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestIncastSeedChangesJitter(t *testing.T) {
	run := func(seed uint64) sim.Time {
		eng := sim.NewEngine()
		cfg := smallConfig(20)
		cfg.Seed = seed
		_, in := dumbbellIncast(eng, 20, cfg)
		runToDone(t, eng, in.Group)
		return in.Bursts()[1].End
	}
	if run(1) == run(99) {
		t.Fatal("different seeds produced byte-identical schedules (suspicious)")
	}
}

func TestIncastECNActivity(t *testing.T) {
	// A 100-flow burst must push the queue past K and generate ECE echoes.
	cfg := smallConfig(100)
	cfg.Bursts = 2
	net, in := runSmallIncast(t, 100, cfg)
	if in.AggregateSenderStats().ECEAcks == 0 {
		t.Fatal("100-flow incast produced no ECE feedback")
	}
	if peak := net.BottleneckQueue().Stats().PeakPackets; peak <= 65 {
		t.Fatalf("peak queue %d did not exceed the ECN threshold", peak)
	}
}

func TestSampleInFlight(t *testing.T) {
	eng := sim.NewEngine()
	_, in := dumbbellIncast(eng, 20, smallConfig(20))
	tr := SampleInFlight(eng, in.Senders(), 0, 100*sim.Microsecond, 90)
	runToDone(t, eng, in.Group)

	var sawActive bool
	for _, s := range tr.Samples {
		if s.Active > 0 {
			sawActive = true
			if s.Max < s.P50 || s.P50 < s.P25 || s.Mean <= 0 {
				t.Fatalf("inconsistent sample: %+v", s)
			}
		} else if s.Mean != 0 || s.Max != 0 {
			t.Fatalf("idle sample should be zero: %+v", s)
		}
	}
	if !sawActive {
		t.Fatal("sampler never observed active flows")
	}
	if tr.MaxSkew(5) < 1 {
		t.Fatalf("skew = %v, want >= 1 when flows are active", tr.MaxSkew(5))
	}
}

// TestIncastConfigValidation: an incast without flows, demand, bursts or
// a burst interval panics when its Group is built.
func TestIncastConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	net := netsim.NewDumbbell(eng, netsim.DefaultDumbbellConfig(), 20, 1, nil)
	cases := []struct {
		name  string
		flows int
		mod   func(*GroupConfig)
	}{
		{"no flows", 0, func(*GroupConfig) {}},
		{"no demand", 20, func(c *GroupConfig) { c.BytesPerFlow = 0 }},
		{"no bursts", 20, func(c *GroupConfig) { c.Bursts = 0 }},
		{"no interval", 20, func(c *GroupConfig) { c.Interval = 0 }},
	}
	for _, tc := range cases {
		cfg := smallConfig(20)
		tc.mod(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			senders, _ := Connect(eng, tc.flows,
				func(f int) *netsim.Host { return net.Senders[f] },
				func(int) *netsim.Host { return net.Receiver },
				dctcpFactory, tcp.DefaultSenderConfig(), tcp.DefaultReceiverConfig())
			NewGroup(eng, senders, cfg)
		}()
	}
}

// countingAdmitter admits all flows immediately and records callbacks.
type countingAdmitter struct {
	begun    int
	done     int
	perBurst map[int]int
}

func (a *countingAdmitter) BeginBurst(ctx AdmitContext) {
	a.begun++
	for i := 0; i < ctx.Flows; i++ {
		ctx.Admit(i)
	}
}

func (a *countingAdmitter) FlowDone(burst, flow int) {
	a.done++
	if a.perBurst == nil {
		a.perBurst = make(map[int]int)
	}
	a.perBurst[burst]++
}

func TestAdmitterHooks(t *testing.T) {
	eng := sim.NewEngine()
	const flows = 20
	cfg := smallConfig(flows)
	adm := &countingAdmitter{}
	cfg.Admitter = adm
	_, in := dumbbellIncast(eng, flows, cfg)
	runToDone(t, eng, in.Group)
	if adm.begun != cfg.Bursts {
		t.Fatalf("BeginBurst calls = %d, want %d", adm.begun, cfg.Bursts)
	}
	if adm.done != cfg.Bursts*flows {
		t.Fatalf("FlowDone calls = %d, want %d", adm.done, cfg.Bursts*flows)
	}
	for b := 0; b < cfg.Bursts; b++ {
		if adm.perBurst[b] != flows {
			t.Fatalf("burst %d had %d completions", b, adm.perBurst[b])
		}
	}
}

// TestGroupBurstsCompleteInOrder: with non-overlapping bursts, completion
// times are strictly increasing.
func TestGroupBurstsCompleteInOrder(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallConfig(20)
	cfg.Bursts = 4
	_, in := dumbbellIncast(eng, 20, cfg)
	runToDone(t, eng, in.Group)
	prev := sim.Time(-1)
	for _, b := range in.Bursts() {
		if b.End <= prev {
			t.Fatalf("burst completions out of order: %+v", in.Bursts())
		}
		prev = b.End
	}
}
