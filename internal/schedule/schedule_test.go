package schedule

import (
	"testing"

	"incastlab/internal/cc"
	"incastlab/internal/netsim"
	"incastlab/internal/sim"
	"incastlab/internal/tcp"
	"incastlab/internal/workload"
)

// fakeCtx builds an AdmitContext whose Admit records the release order.
func fakeCtx(burst, flows int, released *[]int) workload.AdmitContext {
	return workload.AdmitContext{
		Burst: burst,
		Flows: flows,
		Admit: func(flow int) { *released = append(*released, flow) },
	}
}

func TestWaveReleasesInWaves(t *testing.T) {
	w := NewWave(3)
	var released []int
	w.BeginBurst(fakeCtx(0, 10, &released))
	if len(released) != 3 {
		t.Fatalf("initial wave = %v, want 3 flows", released)
	}
	if w.Pending(0) != 7 {
		t.Fatalf("pending = %d, want 7", w.Pending(0))
	}
	w.FlowDone(0, 0)
	if len(released) != 4 || released[3] != 3 {
		t.Fatalf("after one completion released = %v", released)
	}
	// Completing all releases everything exactly once.
	for f := 1; f < 10; f++ {
		w.FlowDone(0, f)
	}
	if len(released) != 10 {
		t.Fatalf("released %d flows, want 10", len(released))
	}
	seen := make(map[int]bool)
	for _, f := range released {
		if seen[f] {
			t.Fatalf("flow %d released twice", f)
		}
		seen[f] = true
	}
	if w.Pending(0) != 0 {
		t.Fatalf("pending = %d after drain", w.Pending(0))
	}
}

func TestWaveSmallerBurstThanWave(t *testing.T) {
	w := NewWave(100)
	var released []int
	w.BeginBurst(fakeCtx(0, 5, &released))
	if len(released) != 5 || w.Pending(0) != 0 {
		t.Fatalf("released = %v pending = %d", released, w.Pending(0))
	}
}

func TestWaveDuplicateFlowDoneIgnored(t *testing.T) {
	w := NewWave(1)
	var released []int
	w.BeginBurst(fakeCtx(0, 3, &released))
	w.FlowDone(0, 0)
	w.FlowDone(0, 0) // duplicate
	if len(released) != 2 {
		t.Fatalf("released = %v, duplicate FlowDone must not release twice", released)
	}
}

func TestWaveIndependentBursts(t *testing.T) {
	w := NewWave(2)
	var r0, r1 []int
	w.BeginBurst(fakeCtx(0, 4, &r0))
	w.BeginBurst(fakeCtx(1, 4, &r1))
	w.FlowDone(0, 0)
	if len(r0) != 3 || len(r1) != 2 {
		t.Fatalf("burst isolation broken: r0=%v r1=%v", r0, r1)
	}
}

func TestWaveValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWave(0) did not panic")
		}
	}()
	NewWave(0)
}

// TestWaveEndToEnd runs a full incast under wave scheduling and checks the
// Section 5.2 claim: concurrency stays bounded by W, the queue stays far
// below what the unscheduled incast builds, and everything completes.
func TestWaveEndToEnd(t *testing.T) {
	run := func(adm workload.Admitter) (peak int, bct sim.Time) {
		eng := sim.NewEngine()
		const flows = 120
		net := netsim.NewDumbbell(eng, netsim.DefaultDumbbellConfig(flows))
		senders, _ := workload.Connect(eng, flows,
			func(f int) *netsim.Host { return net.Senders[f] },
			func(int) *netsim.Host { return net.Receiver },
			func(int) cc.Algorithm { return cc.NewDCTCP(cc.DefaultDCTCPConfig()) },
			tcp.DefaultSenderConfig(), tcp.DefaultReceiverConfig())
		in := workload.NewGroup(eng, senders, workload.GroupConfig{
			BytesPerFlow: workload.BytesPerFlowFor(net.Config.HostLinkBps, sim.Millisecond, flows),
			Bursts:       3,
			Interval:     20 * sim.Millisecond,
			JitterMax:    100 * sim.Microsecond,
			Seed:         1,
			Admitter:     adm,
		})
		eng.RunUntil(5 * sim.Second)
		if !in.Done() {
			t.Fatal("incast did not complete")
		}
		return net.BottleneckQueue().Stats().PeakPackets, in.Bursts()[2].BCT
	}

	wavePeak, waveBCT := run(NewWave(20))
	plainPeak, _ := run(nil)

	if wavePeak >= plainPeak {
		t.Fatalf("wave peak queue %d >= unscheduled %d; scheduling should shrink the queue",
			wavePeak, plainPeak)
	}
	// The wave scheduler trades a little completion time for the smaller
	// queue; it must stay within the same order of magnitude.
	if waveBCT > 20*sim.Millisecond {
		t.Fatalf("wave BCT = %v, unreasonably slow", waveBCT)
	}
}
