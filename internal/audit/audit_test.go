package audit

import (
	"strings"
	"testing"

	"incastlab/internal/cc"
	"incastlab/internal/netsim"
	"incastlab/internal/sim"
	"incastlab/internal/tcp"
	"incastlab/internal/workload"
)

// dumbbellIncast connects flows DCTCP flows from the senders of a fresh
// dumbbell to its receiver and schedules cfg's bursts over them.
func dumbbellIncast(eng *sim.Engine, flows int, cfg workload.GroupConfig) (*netsim.Dumbbell, *workload.Group) {
	net := netsim.NewDumbbell(eng, netsim.DefaultDumbbellConfig(), flows, 1, nil)
	senders, _ := workload.Connect(eng, flows,
		func(f int) *netsim.Host { return net.Senders[f] },
		func(int) *netsim.Host { return net.Receiver },
		func(int) cc.Algorithm { return cc.NewDCTCP(cc.DefaultDCTCPConfig()) },
		tcp.DefaultSenderConfig(), tcp.DefaultReceiverConfig())
	return net, workload.NewGroup(eng, senders, cfg)
}

// runAuditedIncast drives a small incast workload end to end with a full
// -coverage auditor attached and returns the auditor.
func runAuditedIncast(t *testing.T, flows, bursts int) *Auditor {
	t.Helper()
	eng := sim.NewEngine()
	const interval = 10 * sim.Millisecond
	net, in := dumbbellIncast(eng, flows, workload.GroupConfig{
		BytesPerFlow: workload.BytesPerFlowFor(10*netsim.Gbps, 2*sim.Millisecond, flows),
		Bursts:       bursts,
		Interval:     interval,
		JitterMax:    100 * sim.Microsecond,
		Seed:         1,
	})

	a := New(eng, Config{RequireDrained: true})
	watchDumbbell(a, net)
	for _, s := range in.Senders() {
		a.WatchSender(s)
	}
	a.Start()

	eng.RunUntil(sim.Time(bursts)*interval + 5*sim.Second)
	if !in.Done() {
		t.Fatal("incast did not complete")
	}
	a.Finish()
	return a
}

func TestCleanIncastRunHasZeroViolations(t *testing.T) {
	a := runAuditedIncast(t, 20, 3)
	if err := a.Err(); err != nil {
		t.Fatalf("clean run produced violations:\n%v", err)
	}
	if a.Sweeps() < 10 {
		t.Errorf("expected many sweeps over a 30 ms run, got %d", a.Sweeps())
	}
	if a.EventsObserved() == 0 {
		t.Error("clock observer saw no events")
	}
}

func TestAuditedRunIsBitIdenticalToUnaudited(t *testing.T) {
	run := func(audit bool) netsim.QueueStats {
		eng := sim.NewEngine()
		net, in := dumbbellIncast(eng, 10, workload.GroupConfig{
			BytesPerFlow: workload.BytesPerFlowFor(10*netsim.Gbps, 1*sim.Millisecond, 10),
			Bursts:       2,
			Interval:     5 * sim.Millisecond,
			JitterMax:    100 * sim.Microsecond,
			Seed:         7,
		})
		var a *Auditor
		if audit {
			a = New(eng, Config{RequireDrained: true})
			watchDumbbell(a, net)
			for _, s := range in.Senders() {
				a.WatchSender(s)
			}
			a.Start()
		}
		eng.RunUntil(2*5*sim.Millisecond + 5*sim.Second)
		if !in.Done() {
			t.Fatal("incast did not complete")
		}
		if a != nil {
			a.Finish()
			if err := a.Err(); err != nil {
				t.Fatalf("audited run produced violations:\n%v", err)
			}
		}
		return net.BottleneckQueue().Stats()
	}
	if plain, audited := run(false), run(true); plain != audited {
		t.Fatalf("audit observer changed the simulation:\nplain:   %+v\naudited: %+v", plain, audited)
	}
}

func TestDetectsDoubleRelease(t *testing.T) {
	eng := sim.NewEngine()
	pool := netsim.NewPacketPool()
	a := New(eng, Config{})
	a.WatchPool(pool)

	p := pool.Get()
	pool.Put(p)
	pool.Put(p) // double release

	if a.Total() != 1 {
		t.Fatalf("violations = %d, want 1", a.Total())
	}
	if v := a.Violations()[0]; v.Rule != "pool" || !strings.Contains(v.Detail, "double release") {
		t.Fatalf("unexpected violation: %v", v)
	}
}

func TestDetectsUseAfterRelease(t *testing.T) {
	eng := sim.NewEngine()
	pool := netsim.NewPacketPool()
	sink := netsim.NewHost(eng, 0, "sink")
	q := netsim.NewQueue(netsim.QueueConfig{Name: "q"})
	_ = netsim.NewLink(eng, netsim.LinkConfig{
		Name: "l", BandwidthBps: netsim.Gbps, Queue: q, Dst: sink,
	})

	a := New(eng, Config{})
	a.WatchQueue(q)
	a.WatchPool(pool)
	a.Start()

	p := pool.Get()
	p.Dst = 0
	p.Len = 100
	q.Enqueue(0, p)
	pool.Put(p) // released while still queued

	a.Finish()
	found := false
	for _, v := range a.Violations() {
		if v.Rule == "pool" && strings.Contains(v.Detail, "referenced after release") {
			found = true
		}
	}
	if !found {
		t.Fatalf("use-after-release not detected; violations: %v", a.Violations())
	}
}

func TestDetectsConservationBreach(t *testing.T) {
	eng := sim.NewEngine()
	pool := netsim.NewPacketPool()
	sink := netsim.NewHost(eng, 0, "sink")
	sink.SetPool(pool)
	q := netsim.NewQueue(netsim.QueueConfig{Name: "q"})
	l := netsim.NewLink(eng, netsim.LinkConfig{
		Name: "l", BandwidthBps: netsim.Gbps, Queue: q, Dst: sink,
	})
	l.SetPool(pool)

	a := New(eng, Config{})
	a.WatchLink(l)
	a.WatchHost(sink)
	a.WatchPool(pool)
	a.SetClosedWorld(true)
	a.Start()

	// A pool packet that never enters the network: outstanding != residing.
	leaked := pool.Get()
	_ = leaked

	a.Finish()
	found := false
	for _, v := range a.Violations() {
		if v.Rule == "conservation" && strings.Contains(v.Detail, "outstanding") {
			found = true
		}
	}
	if !found {
		t.Fatalf("conservation breach not detected; violations: %v", a.Violations())
	}
}

// brokenAlg reports an out-of-bounds window and a negative pacing gap.
type brokenAlg struct{}

func (brokenAlg) Name() string        { return "broken" }
func (brokenAlg) OnAck(cc.Ack)        {}
func (brokenAlg) OnLoss(sim.Time)     {}
func (brokenAlg) OnTimeout(sim.Time)  {}
func (brokenAlg) Window() int         { return 0 }
func (brokenAlg) PacingGap() sim.Time { return -1 }

func TestDetectsProtocolBoundViolations(t *testing.T) {
	eng := sim.NewEngine()
	a := New(eng, Config{})
	a.WatchAlgorithm("broken", brokenAlg{})
	a.Finish()
	if a.Total() != 2 {
		t.Fatalf("violations = %d, want 2 (window + pacing gap); got: %v", a.Total(), a.Violations())
	}
	for _, v := range a.Violations() {
		if v.Rule != "cc" {
			t.Errorf("unexpected rule %q: %v", v.Rule, v)
		}
	}
}

func TestHealthyAlgorithmsPassBoundChecks(t *testing.T) {
	eng := sim.NewEngine()
	a := New(eng, Config{})
	baseRTT := 30 * sim.Microsecond
	dctcp := cc.NewDCTCP(cc.DefaultDCTCPConfig())
	a.WatchAlgorithm("reno", cc.NewReno(10*netsim.MSS))
	a.WatchAlgorithm("dctcp", cc.NewDCTCP(cc.DefaultDCTCPConfig()))
	a.WatchAlgorithm("swift", cc.NewSwift(cc.DefaultSwiftConfig(baseRTT)))
	a.WatchAlgorithm("guardrail", cc.NewGuardrail(dctcp, 40*netsim.MSS, 65*netsim.MTU))
	a.Finish()
	if err := a.Err(); err != nil {
		t.Fatalf("healthy algorithms flagged:\n%v", err)
	}
}

func TestDetectsDrainFailure(t *testing.T) {
	eng := sim.NewEngine()
	pool := netsim.NewPacketPool()
	q := netsim.NewQueue(netsim.QueueConfig{Name: "q"})
	a := New(eng, Config{RequireDrained: true})
	a.WatchQueue(q)
	a.WatchPool(pool)
	a.Start()

	p := pool.Get()
	p.Len = 100
	q.Enqueue(0, p)

	a.Finish()
	found := false
	for _, v := range a.Violations() {
		if v.Rule == "drained" {
			found = true
		}
	}
	if !found {
		t.Fatalf("undrained queue not detected; violations: %v", a.Violations())
	}
}

func TestViolationCapKeepsCounting(t *testing.T) {
	eng := sim.NewEngine()
	a := New(eng, Config{MaxViolations: 2})
	for i := 0; i < 5; i++ {
		a.violatef("cc", "synthetic %d", i)
	}
	if a.Total() != 5 {
		t.Fatalf("Total = %d, want 5", a.Total())
	}
	if len(a.Violations()) != 2 {
		t.Fatalf("recorded = %d, want 2", len(a.Violations()))
	}
	if err := a.Err(); err == nil || !strings.Contains(err.Error(), "and 3 more") {
		t.Fatalf("Err should mention the dropped violations, got: %v", err)
	}
}

// watchDumbbell registers the whole dumbbell with the auditor.
func watchDumbbell(a *Auditor, d *netsim.Dumbbell) {
	a.WatchNetwork(d.AllLinks(), append([]*netsim.Host{d.Receiver}, d.Senders...), d.Pool)
}
