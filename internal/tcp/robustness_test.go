package tcp

import (
	"testing"
	"testing/quick"

	"incastlab/internal/cc"
	"incastlab/internal/netsim"
	"incastlab/internal/sim"
)

// buildImpairedLoop wires sender -> impairment -> receiver with a clean
// reverse path, for loss-robustness tests.
func buildImpairedLoop(dropProb float64, extraDelay sim.Time, seed uint64,
	scfg SenderConfig) (*sim.Engine, *Sender, *Receiver) {
	eng := sim.NewEngine()
	sender := netsim.NewHost(eng, 1, "s")
	receiver := netsim.NewHost(eng, 2, "r")
	mk := func(dst netsim.Device) *netsim.Link {
		return netsim.NewLink(eng, netsim.LinkConfig{
			BandwidthBps: 10 * netsim.Gbps,
			PropDelay:    5 * sim.Microsecond,
			Queue:        netsim.NewQueue(netsim.QueueConfig{}),
			Dst:          dst,
		})
	}
	im := netsim.NewImpairment(eng, 3, receiver, netsim.ImpairmentConfig{
		DropProbability: dropProb,
		MaxExtraDelay:   extraDelay,
		Seed:            seed,
	})
	sender.SetUplink(mk(im))
	receiver.SetUplink(mk(sender))

	sHub := NewHub(sender)
	rHub := NewHub(receiver)
	snd := NewSender(eng, sHub, 1, receiver.ID(), cc.NewReno(10*netsim.MSS), scfg)
	rcv := NewReceiver(eng, rHub, 1, sender.ID(), DefaultReceiverConfig())
	return eng, snd, rcv
}

// TestReliabilityUnderRandomLoss: for arbitrary loss probabilities up to
// 30% and random reordering delay, the transport eventually delivers every
// byte exactly once — the core reliability invariant.
func TestReliabilityUnderRandomLoss(t *testing.T) {
	f := func(seed uint64, dropPct, delayUS uint8) bool {
		drop := float64(dropPct%31) / 100 // 0..0.30
		delay := sim.Time(delayUS%100) * sim.Microsecond
		scfg := DefaultSenderConfig()
		scfg.MinRTO = 5 * sim.Millisecond // keep the property test fast
		eng, snd, rcv := buildImpairedLoop(drop, delay, seed, scfg)
		const total = 40 * netsim.MSS
		snd.AddDemand(total)
		eng.RunUntil(20 * sim.Second)
		return snd.DemandMet() && rcv.RcvNxt() == total && snd.InFlight() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestHeavyLossEventuallyDelivers(t *testing.T) {
	scfg := DefaultSenderConfig()
	scfg.MinRTO = 5 * sim.Millisecond
	eng, snd, rcv := buildImpairedLoop(0.5, 0, 99, scfg)
	const total = 20 * netsim.MSS
	snd.AddDemand(total)
	eng.RunUntil(60 * sim.Second)
	if rcv.RcvNxt() != total {
		t.Fatalf("delivered %d of %d under 50%% loss", rcv.RcvNxt(), total)
	}
	if snd.Stats().RetransmitPackets == 0 {
		t.Fatal("50% loss without retransmissions is impossible")
	}
}

func TestReorderingDoesNotCorruptStream(t *testing.T) {
	// Pure reordering (no loss): spurious dup ACKs may trigger unnecessary
	// retransmissions, but the stream must stay correct.
	eng, snd, rcv := buildImpairedLoop(0, 50*sim.Microsecond, 5, DefaultSenderConfig())
	const total = 100 * netsim.MSS
	snd.AddDemand(total)
	eng.RunUntil(10 * sim.Second)
	if rcv.RcvNxt() != total {
		t.Fatalf("delivered %d of %d under reordering", rcv.RcvNxt(), total)
	}
}

func TestIdleRestartClampsWindow(t *testing.T) {
	eng := sim.NewEngine()
	d := netsim.NewDumbbell(eng, netsim.DefaultDumbbellConfig(), 1, 1, nil)
	sHub := NewHub(d.Senders[0])
	rHub := NewHub(d.Receiver)
	scfg := DefaultSenderConfig()
	scfg.RestartAfterIdle = true
	alg := cc.NewDCTCP(cc.DefaultDCTCPConfig())
	snd := NewSender(eng, sHub, 1, d.Receiver.ID(), alg, scfg)
	NewReceiver(eng, rHub, 1, d.Senders[0].ID(), DefaultReceiverConfig())

	// Grow the window well past the initial 10 MSS.
	snd.AddDemand(400 * netsim.MSS)
	eng.Run()
	grown := snd.Window()
	if grown <= 10*netsim.MSS {
		t.Fatalf("window did not grow: %d", grown)
	}

	// After an idle period longer than the RTO, new demand restarts.
	eng.RunUntil(eng.Now() + sim.Second)
	eng.At(eng.Now(), func() { snd.AddDemand(netsim.MSS) })
	eng.Run()
	if w := snd.Window(); w > 10*netsim.MSS+netsim.MSS {
		t.Fatalf("window after idle restart = %d, want <= ~10 MSS", w)
	}
}

func TestNoIdleRestartByDefault(t *testing.T) {
	// The paper's configuration: windows persist across idle gaps.
	eng := sim.NewEngine()
	d := netsim.NewDumbbell(eng, netsim.DefaultDumbbellConfig(), 1, 1, nil)
	sHub := NewHub(d.Senders[0])
	rHub := NewHub(d.Receiver)
	alg := cc.NewDCTCP(cc.DefaultDCTCPConfig())
	snd := NewSender(eng, sHub, 1, d.Receiver.ID(), alg, DefaultSenderConfig())
	NewReceiver(eng, rHub, 1, d.Senders[0].ID(), DefaultReceiverConfig())

	snd.AddDemand(400 * netsim.MSS)
	eng.Run()
	grown := snd.Window()
	eng.RunUntil(eng.Now() + sim.Second)
	eng.At(eng.Now(), func() { snd.AddDemand(netsim.MSS) })
	eng.Run()
	if w := snd.Window(); w < grown {
		t.Fatalf("window shrank across idle without RestartAfterIdle: %d -> %d", grown, w)
	}
}
