package tcp

import (
	"math"
	"math/rand/v2"
	"testing"

	"incastlab/internal/netsim"
	"incastlab/internal/sim"
)

// checkHubAgainstMap registers flows[i] with handler i on a fresh Hub and
// on a map[FlowID]PacketHandler, the table the Hub's dense window
// replaced, then delivers one packet on every flow in and around the
// registered ones and checks that the same handler receives it, or none
// for an unknown flow. It also checks that the window stays at least half
// full, so it is never larger than the map it replaces.
func checkHubAgainstMap(t *testing.T, name string, flows []netsim.FlowID) *Hub {
	t.Helper()
	hub := NewHub(netsim.NewHost(sim.NewEngine(), 1, "h"))
	ref := map[netsim.FlowID]netsim.PacketHandler{}
	got := -1
	for i, f := range flows {
		handler := netsim.PacketHandlerFunc(func(*netsim.Packet) { got = i })
		hub.Register(f, handler)
		ref[f] = netsim.PacketHandlerFunc(func(*netsim.Packet) { got = i })
	}
	probes := []netsim.FlowID{math.MinInt32, -1, 0, 1, 1 << 20, math.MaxInt32}
	for _, f := range flows {
		for d := netsim.FlowID(-3); d <= 3; d++ {
			if int64(f)+int64(d) == int64(f+d) { // skip wrapped neighbours
				probes = append(probes, f+d)
			}
		}
	}
	for _, f := range probes {
		want := -1
		if h, ok := ref[f]; ok {
			h.HandlePacket(nil)
			want = got
		}
		got = -1
		hub.HandlePacket(&netsim.Packet{Flow: f})
		if got != want {
			t.Fatalf("%s: flow %d reached handler %d, the map reference %d (registered %v)",
				name, f, got, want, flows)
		}
	}
	if len(hub.window) > 2*hub.held {
		t.Fatalf("%s: window of %d slots holds %d handlers, less than half full",
			name, len(hub.window), hub.held)
	}
	return hub
}

// TestHubMatchesMapReference pins Hub demultiplexing to the map it
// replaced across the registration patterns the simulator produces and
// the ones it must survive: ascending flows (a dumbbell receiver),
// random orders, gaps, a flow below the first registered one, the app
// package's request flows at 1<<20 + w, re-registration (the last handler
// wins) and unknown flows (dropped).
func TestHubMatchesMapReference(t *testing.T) {
	seq := func(lo, n, stride int) []netsim.FlowID {
		out := make([]netsim.FlowID, n)
		for i := range out {
			out[i] = netsim.FlowID(lo + i*stride)
		}
		return out
	}
	const requestFlowBase = 1 << 20 // internal/app's request-flow offset
	cases := map[string][]netsim.FlowID{
		"ascending":         seq(1, 200, 1),
		"descending":        seq(200, 200, -1),
		"stride 2":          seq(1, 100, 2),
		"stride 3":          seq(5, 100, 3),
		"below first":       {10, 11, 12, 9, 8, 3, 13, 2, 1, 0, -4},
		"re-registration":   {5, 6, 5, 7, 6, requestFlowBase, requestFlowBase, 5},
		"app worker":        {8, requestFlowBase + 7},
		"app request first": {requestFlowBase + 7, 8},
		"int32 extremes":    {math.MaxInt32, math.MinInt32, math.MaxInt32 - 1, math.MinInt32 + 1},
	}
	for name, flows := range cases {
		checkHubAgainstMap(t, name, flows)
	}

	// A worker's hub keeps its response flow in a one-slot window and its
	// request flow in the map, instead of a window spanning 2^20 flows.
	hub := checkHubAgainstMap(t, "app worker", cases["app worker"])
	if len(hub.window) != 1 || len(hub.sparse) != 1 {
		t.Fatalf("app worker hub: window %d slots, map %d flows; want 1 and 1", len(hub.window), len(hub.sparse))
	}
	hub = checkHubAgainstMap(t, "ascending", cases["ascending"])
	if len(hub.window) != 200 || hub.sparse != nil {
		t.Fatalf("ascending hub: window %d slots, map %v; want 200 and no map", len(hub.window), hub.sparse)
	}

	rng := rand.New(rand.NewPCG(23, 5))
	for trial := 0; trial < 500; trial++ {
		base := rng.IntN(1 << 22)
		flows := make([]netsim.FlowID, 1+rng.IntN(60))
		for i := range flows {
			switch rng.IntN(10) {
			case 0: // far away, like a request flow
				flows[i] = netsim.FlowID(base + requestFlowBase + rng.IntN(64))
			case 1: // a repeat
				flows[i] = flows[rng.IntN(max(i, 1))]
			default: // near the base, below it or past it, with gaps
				flows[i] = netsim.FlowID(base - 16 + rng.IntN(96))
			}
		}
		checkHubAgainstMap(t, "random", flows)

		// The flows of one dense block, registered in random order.
		shuffled := make([]netsim.FlowID, 1+rng.IntN(100))
		for i, j := range rng.Perm(len(shuffled)) {
			shuffled[i] = netsim.FlowID(base + j)
		}
		checkHubAgainstMap(t, "shuffled", shuffled)
	}
}
