package netsim

import (
	"math/rand/v2"
	"testing"

	"incastlab/internal/sim"
)

// portTap is a Device that records which port delivered the last packet.
type portTap struct {
	port int
	last *int
}

func (d portTap) ID() NodeID        { return NodeID(d.port) }
func (d portTap) Name() string      { return "tap" }
func (d portTap) Receive(p *Packet) { *d.last = d.port }

// TestSwitchMatchesMapReference drives a Switch and a map[NodeID] route
// table, the one its dense window replaced, with the same random routes
// (random order, gaps, destinations below the first route, re-routed
// destinations) and checks that a packet to every destination in and
// around the table leaves on the port the reference picks: its static
// route, else the ECMP group's ECMPIndex choice, else a no-route drop
// counted by NoRouteDrops.
func TestSwitchMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 7))
	for trial := 0; trial < 300; trial++ {
		eng := sim.NewEngine()
		last := -1
		ports := make([]*Link, 1+rng.IntN(8))
		for i := range ports {
			ports[i] = NewLink(eng, LinkConfig{
				BandwidthBps: 10 * Gbps,
				Queue:        NewQueue(QueueConfig{}),
				Dst:          portTap{port: i, last: &last},
			})
		}
		sw := NewSwitch(1<<20, "sw")
		ref := map[NodeID]int{}
		first := NodeID(rng.IntN(1 << 16))
		for range rng.IntN(48) {
			dst := first - 16 + NodeID(rng.IntN(96))
			port := rng.IntN(len(ports))
			sw.AddRoute(dst, ports[port])
			ref[dst] = port
		}
		// Half the switches fall back to an ECMP group over some ports.
		var group []int
		if trial%2 == 1 {
			group = rng.Perm(len(ports))[:1+rng.IntN(len(ports))]
			links := make([]*Link, len(group))
			for i, port := range group {
				links[i] = ports[port]
			}
			sw.SetECMPGroup(uint64(trial), links)
		}

		var drops int64
		for dst := first - 24; dst <= first+88; dst++ {
			p := &Packet{Flow: FlowID(rng.IntN(1 << 12)), Src: NodeID(rng.IntN(1 << 12)), Dst: dst}
			want, routed := ref[dst]
			switch {
			case routed:
			case len(group) > 0:
				want = group[ECMPIndex(uint64(trial), p.Flow, p.Src, dst, len(group))]
			default:
				want = -1
				drops++
			}
			last = -1
			sw.Receive(p)
			eng.Run()
			if last != want {
				t.Fatalf("trial %d: destination %d left on port %d, the map reference %d", trial, dst, last, want)
			}
		}
		if sw.NoRouteDrops() != drops {
			t.Fatalf("trial %d: %d no-route drops, the map reference %d", trial, sw.NoRouteDrops(), drops)
		}
	}
}
