package tcp

import (
	"math/rand/v2"
	"testing"

	"incastlab/internal/cc"
	"incastlab/internal/netsim"
	"incastlab/internal/sim"
)

func TestAdvertisedWindowLimitsSender(t *testing.T) {
	eng, _, snd, rcv := buildLoopFor(t, cc.NewReno(100*netsim.MSS))
	rcv.SetAdvertisedWindow(2 * netsim.MSS)
	snd.AddDemand(50 * netsim.MSS)
	// Before any ACK returns, the sender is window-limited by cwnd only
	// (100 MSS) — it has not yet learned the peer's window — so cap the
	// first flight by checking after the first RTT.
	eng.RunUntil(5 * sim.Millisecond)
	// After the advertisement arrives, in-flight never exceeds 2 MSS.
	maxSeen := int64(0)
	for i := 0; i < 200; i++ {
		eng.RunUntil(eng.Now() + 50*sim.Microsecond)
		if f := snd.InFlight(); f > maxSeen && eng.Now() > 5*sim.Millisecond {
			maxSeen = f
		}
	}
	eng.Run()
	if maxSeen > 2*netsim.MSS {
		t.Fatalf("in-flight %d exceeded the 2-MSS advertised window", maxSeen)
	}
	if !snd.DemandMet() {
		t.Fatal("transfer stalled under flow control")
	}
}

// buildLoopFor is buildLoop with an explicit algorithm (helper for this
// file; buildLoop lives in tcp_test.go).
func buildLoopFor(t *testing.T, alg cc.Algorithm) (*sim.Engine, *netsim.Dumbbell, *Sender, *Receiver) {
	t.Helper()
	return buildLoop(t, alg, DefaultSenderConfig(), DefaultReceiverConfig())
}

func TestICTCPConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	mustPanic := func(name string, cfg ICTCPConfig) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		NewICTCP(eng, cfg)
	}
	base := DefaultICTCPConfig(10*netsim.Gbps, 30*sim.Microsecond)
	bad := base
	bad.LineRateBps = 0
	mustPanic("no rate", bad)
	bad = base
	bad.Gamma2 = bad.Gamma1
	mustPanic("gamma order", bad)
	bad = base
	bad.Headroom = 0
	mustPanic("headroom", bad)
}

// ictcpLoop builds an n-flow incast with Reno senders managed by an ICTCP
// receiver, returns after running demand through it.
func ictcpLoop(t *testing.T, n int, perFlow int64, useICTCP bool) (*netsim.Dumbbell, []*Sender) {
	t.Helper()
	eng := sim.NewEngine()
	net := netsim.DefaultDumbbellConfig(n)
	d := netsim.NewDumbbell(eng, net)
	rHub := NewHub(d.Receiver)
	var ctrl *ICTCP
	if useICTCP {
		ctrl = NewICTCP(eng, DefaultICTCPConfig(net.HostLinkBps, net.BaseRTT()))
	}
	senders := make([]*Sender, n)
	for i := 0; i < n; i++ {
		flow := netsim.FlowID(i + 1)
		sHub := NewHub(d.Senders[i])
		senders[i] = NewSender(eng, sHub, flow, d.Receiver.ID(),
			cc.NewReno(10*netsim.MSS), DefaultSenderConfig())
		rcv := NewReceiver(eng, rHub, flow, d.Senders[i].ID(), DefaultReceiverConfig())
		if ctrl != nil {
			ctrl.Manage(rcv)
		}
		senders[i].AddDemand(perFlow)
	}
	eng.RunUntil(30 * sim.Second)
	for i, s := range senders {
		if !s.DemandMet() {
			t.Fatalf("flow %d stalled (ictcp=%v)", i, useICTCP)
		}
	}
	return d, senders
}

func TestICTCPTamesModerateIncast(t *testing.T) {
	// 40 Reno flows, ~40 segments each: unmanaged Reno overruns the queue
	// and drops; ICTCP's receiver windows keep the incast lossless.
	const n, perFlow = 40, 200 * netsim.MSS
	plain, _ := ictcpLoop(t, n, perFlow, false)
	managed, _ := ictcpLoop(t, n, perFlow, true)

	plainDrops := plain.BottleneckQueue().Stats().DroppedPackets +
		plain.Uplink.Queue().Stats().DroppedPackets
	managedDrops := managed.BottleneckQueue().Stats().DroppedPackets +
		managed.Uplink.Queue().Stats().DroppedPackets
	if plainDrops == 0 {
		t.Fatal("baseline Reno incast should drop (otherwise the test is vacuous)")
	}
	if managedDrops >= plainDrops {
		t.Fatalf("ICTCP drops %d >= plain %d; receiver windows should help", managedDrops, plainDrops)
	}
	if managedPeak := managed.BottleneckQueue().Stats().PeakPackets; managedPeak > 400 {
		t.Fatalf("ICTCP peak queue %d, want a controlled queue", managedPeak)
	}
}

func TestICTCPMinWindowFloorAtScale(t *testing.T) {
	// The paper's point about O(50)-flow designs: at 400 flows, ICTCP's
	// 2-MSS floor pins >= 800 packets in flight, so the queue cannot be
	// kept small no matter what the controller does.
	const n = 400
	managed, _ := ictcpLoop(t, n, 6*netsim.MSS, true)
	peak := managed.BottleneckQueue().Stats().PeakPackets
	if peak < 400 {
		t.Fatalf("peak queue %d; the 2-MSS floor should force a deep queue at %d flows", peak, n)
	}
}

func TestICTCPWindowsRespondToDemand(t *testing.T) {
	// A single managed bulk flow should be granted window increases well
	// beyond the 2-MSS initial value.
	eng := sim.NewEngine()
	net := netsim.DefaultDumbbellConfig(1)
	d := netsim.NewDumbbell(eng, net)
	rHub := NewHub(d.Receiver)
	ctrl := NewICTCP(eng, DefaultICTCPConfig(net.HostLinkBps, net.BaseRTT()))
	sHub := NewHub(d.Senders[0])
	snd := NewSender(eng, sHub, 1, d.Receiver.ID(), cc.NewReno(10*netsim.MSS), DefaultSenderConfig())
	rcv := NewReceiver(eng, rHub, 1, d.Senders[0].ID(), DefaultReceiverConfig())
	ctrl.Manage(rcv)
	// Enough demand to stay busy well past the check point (43.8 MB is
	// ~35 ms at line rate).
	snd.AddDemand(30000 * netsim.MSS)
	eng.RunUntil(20 * sim.Millisecond)
	if w := ctrl.Window(0); w <= 4*netsim.MSS {
		t.Fatalf("window %d after sustained demand, want growth beyond 4 MSS", w)
	}
	if !snd.DemandMet() {
		eng.RunUntil(eng.Now() + sim.Second)
	}
	if !snd.DemandMet() {
		t.Fatal("bulk transfer under ICTCP stalled")
	}
}

// eagerICTCP is ICTCP's control slot as it ran before idle slots were
// counted: every slot walks every connection. It is the oracle that
// TestICTCPIdleSlotsMatchEagerSlots holds the controller to.
type eagerICTCP struct {
	cfg   ICTCPConfig
	conns []*ictcpConn
}

func (c *eagerICTCP) manage(r *Receiver) {
	conn := &ictcpConn{r: r, wnd: c.cfg.InitialWindow, lastRcv: r.RcvNxt()}
	r.SetAdvertisedWindow(conn.wnd)
	c.conns = append(c.conns, conn)
}

func (c *eagerICTCP) adjust() {
	slotSec := (2 * c.cfg.BaseRTT).Seconds()
	var totalBps float64
	for _, conn := range c.conns {
		delivered := conn.r.RcvNxt() - conn.lastRcv
		conn.lastRcv = conn.r.RcvNxt()
		conn.measured = float64(delivered)
		totalBps += float64(delivered) * 8 / slotSec
	}
	availBps := c.cfg.Headroom*float64(c.cfg.LineRateBps) - totalBps
	rttSec := c.cfg.BaseRTT.Seconds()

	byteRate := float64(c.cfg.LineRateBps) / 8
	for _, conn := range c.conns {
		measuredBps := conn.measured * 8 / slotSec
		turnaround := rttSec + float64(conn.wnd)/byteRate
		expectedBps := float64(conn.wnd) * 8 / turnaround
		if expectedBps <= 0 {
			continue
		}
		diff := (expectedBps - measuredBps) / expectedBps
		switch {
		case diff <= c.cfg.Gamma1:
			incBps := float64(netsim.MSS) * 8 / rttSec
			if availBps >= incBps {
				conn.wnd += netsim.MSS
				conn.r.SetAdvertisedWindow(conn.wnd)
				availBps -= incBps
			}
			conn.overCnt = 0
		case diff >= c.cfg.Gamma2:
			conn.overCnt++
			if conn.overCnt >= c.cfg.DecreaseAfter {
				conn.overCnt = 0
				if conn.wnd-netsim.MSS >= c.cfg.MinWindow {
					conn.wnd -= netsim.MSS
					conn.r.SetAdvertisedWindow(conn.wnd)
				}
			}
		default:
			conn.overCnt = 0
		}
	}
}

// TestICTCPIdleSlotsMatchEagerSlots runs the controller and the eager
// oracle side by side over twin receivers fed the same random per-slot
// deliveries: busy runs that grow windows above the floor, long idle runs,
// and connections managed in the middle of an idle run. After every slot
// each window must match the oracle's, and after every slot that did work
// each over-provisioned count must match too; after a counted slot, each
// count plus the slots still pending must. A Gamma2 above 1 makes an idle
// slot reset the counts instead, so the controller must not count it.
func TestICTCPIdleSlotsMatchEagerSlots(t *testing.T) {
	for _, tc := range []struct {
		name          string
		decreaseAfter int
		gamma2        float64
	}{
		{"decrease after 1", 1, 0.5},
		{"decrease after 3", 3, 0.5},
		{"decrease after 5", 5, 0.5},
		{"gamma2 above 1", 3, 1.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			rx := netsim.NewHost(eng, 0, "rx")
			tx := netsim.NewHost(eng, 1, "tx")
			rx.SetUplink(netsim.NewLink(eng, netsim.LinkConfig{
				BandwidthBps: 10 * netsim.Gbps, Queue: netsim.NewQueue(netsim.QueueConfig{}), Dst: tx}))
			hub := NewHub(rx)
			cfg := DefaultICTCPConfig(10*netsim.Gbps, 30*sim.Microsecond)
			cfg.DecreaseAfter = tc.decreaseAfter
			cfg.Gamma2 = tc.gamma2
			ctrl := NewICTCP(eng, cfg)
			oracle := &eagerICTCP{cfg: ctrl.cfg}

			// lazy[i] is managed by ctrl, eager[i] by the oracle.
			var lazy, eager []*Receiver
			manage := func() {
				flow := netsim.FlowID(2*len(lazy) + 1)
				lazy = append(lazy, NewReceiver(eng, hub, flow, tx.ID(), DefaultReceiverConfig()))
				eager = append(eager, NewReceiver(eng, hub, flow+1, tx.ID(), DefaultReceiverConfig()))
				ctrl.Manage(lazy[len(lazy)-1])
				oracle.manage(eager[len(eager)-1])
			}
			deliver := func(i int, bytes int64) {
				for _, r := range []*Receiver{lazy[i], eager[i]} {
					for left := bytes; left > 0; left -= netsim.MSS {
						r.HandlePacket(&netsim.Packet{Flow: r.flow, Seq: r.RcvNxt(), Len: int(min(left, netsim.MSS))})
					}
				}
			}
			for range 4 {
				manage()
			}

			rng := rand.New(rand.NewPCG(uint64(tc.decreaseAfter), 11))
			var idleAboveFloor, counted, managedMidIdle int
			busy, runLeft := true, 0
			for slot := 0; slot < 6000; slot++ {
				if runLeft == 0 {
					busy = !busy
					if busy {
						runLeft = 1 + rng.IntN(12)
					} else {
						runLeft = 1 + rng.IntN(120)
					}
				}
				runLeft--
				if busy {
					for i := range lazy {
						wnd := oracle.conns[i].wnd
						switch rng.IntN(5) {
						case 0: // nothing from this connection
						case 1:
							deliver(i, netsim.MSS)
						case 2, 3: // at least its window's worth: asks for more
							deliver(i, 2*wnd+rng.Int64N(wnd))
						default:
							deliver(i, rng.Int64N(3*wnd))
						}
					}
				} else {
					if !ctrl.floored {
						idleAboveFloor++
					}
					if len(lazy) < 16 && rng.IntN(20) == 0 {
						if ctrl.idle > 0 {
							managedMidIdle++
						}
						manage()
					}
				}

				ctrl.adjust()
				oracle.adjust()
				if ctrl.idle > 0 {
					counted++
				}
				for i, want := range oracle.conns {
					if got := ctrl.Window(i); got != want.wnd || lazy[i].advertisedWnd != eager[i].advertisedWnd {
						t.Fatalf("slot %d: connection %d window %d (advertised %d), eager %d (advertised %d)",
							slot, i, got, lazy[i].advertisedWnd, want.wnd, eager[i].advertisedWnd)
					}
					if ctrl.idle == 0 && ctrl.conns[i].overCnt != want.overCnt {
						t.Fatalf("slot %d: connection %d over-provisioned count %d, eager %d",
							slot, i, ctrl.conns[i].overCnt, want.overCnt)
					}
					if got := (ctrl.conns[i].overCnt + ctrl.idle) % cfg.DecreaseAfter; got != want.overCnt {
						t.Fatalf("slot %d: connection %d over-provisioned count %d with %d slots pending, eager %d",
							slot, i, ctrl.conns[i].overCnt, ctrl.idle, want.overCnt)
					}
				}
			}
			if tc.gamma2 > 1 {
				if counted != 0 {
					t.Fatalf("%d slots counted with Gamma2 = %v; an idle slot there resets the counts", counted, tc.gamma2)
				}
				return
			}
			if idleAboveFloor == 0 || counted == 0 || managedMidIdle == 0 {
				t.Fatalf("vacuous run: %d idle slots above the floor, %d counted slots, %d connections managed mid-idle",
					idleAboveFloor, counted, managedMidIdle)
			}
		})
	}
}
