package netsim

import (
	"strings"
	"testing"

	"incastlab/internal/sim"
)

// TestDumbbellDefaultsGolden pins the dumbbell's derived constants exactly.
// BaseRTT and BDPBytes round serialization terms to the nearest unit
// (SerializationDelayNearest); these values feed DCTCP's cwnd floor and
// the ICTCP window sizing, so any drift would silently move Fig-5 mode
// boundaries. If this test fails, the rounding changed — check the quick
// CSV goldens before updating the numbers.
func TestDumbbellDefaultsGolden(t *testing.T) {
	cfg := DefaultDumbbellConfig()
	if got := cfg.BaseRTT(); got != 29993*sim.Nanosecond {
		t.Errorf("dumbbell BaseRTT = %v, want 29993ns", got)
	}
	if got := cfg.BDPBytes(); got != 37491 {
		t.Errorf("dumbbell BDPBytes = %d, want 37491", got)
	}
}

// TestClosDefaultsGolden pins the Clos fabric's derived constants: the
// cross-rack base RTT lands at the paper's ~30 us (two fabric hops at half
// the dumbbell's core propagation), the same-rack path is strictly
// shorter, and each BDP matches its path's RTT at the 10G host rate.
func TestClosDefaultsGolden(t *testing.T) {
	cfg := DefaultClosConfig(8, 501)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := cfg.BaseRTT(true); got != 30122*sim.Nanosecond {
		t.Errorf("cross-rack BaseRTT = %v, want 30122ns", got)
	}
	if got := cfg.BaseRTT(false); got != 20864*sim.Nanosecond {
		t.Errorf("same-rack BaseRTT = %v, want 20864ns", got)
	}
	if got := cfg.BDPBytes(true); got != 37653 {
		t.Errorf("cross-rack BDPBytes = %d, want 37653", got)
	}
	if got := cfg.BDPBytes(false); got != 26080 {
		t.Errorf("same-rack BDPBytes = %d, want 26080", got)
	}
	if got := cfg.Oversubscription(); got != 25.05 {
		t.Errorf("oversubscription = %v, want 25.05 (501x10G over 2x100G)", got)
	}
	// Path constants are per-hop properties; fabric width must not move
	// them.
	small := DefaultClosConfig(2, 4)
	if small.BaseRTT(true) != cfg.BaseRTT(true) || small.BDPBytes(true) != cfg.BDPBytes(true) {
		t.Error("Clos RTT/BDP depend on fabric width")
	}
}

func TestClosConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*ClosConfig)
		want   string
	}{
		{"one rack", func(c *ClosConfig) { c.Racks = 1 }, "at least 2 racks"},
		{"zero hosts", func(c *ClosConfig) { c.HostsPerRack = 0 }, "at least 1 host per rack"},
		{"zero spines", func(c *ClosConfig) { c.Spines = 0 }, "at least 1 spine"},
		{"zero host rate", func(c *ClosConfig) { c.HostLinkBps = 0 }, "link rates must be positive"},
		{"negative spine rate", func(c *ClosConfig) { c.SpineLinkBps = -1 }, "link rates must be positive"},
		// 97 x 172961 = 2^24+1 host slots; 17 x 241 = 2^12+1 uplinks.
		{"one host slot past the cap", func(c *ClosConfig) { c.Racks, c.HostsPerRack = 97, 172961 },
			"holds at most 16777216 hosts (got 97 racks x 172961 hosts/rack)"},
		{"one uplink past the cap", func(c *ClosConfig) { c.Racks, c.Spines = 17, 241 },
			"holds at most 4096 leaf-spine uplinks (got 17 racks x 241 spines)"},
		{"spines past any int", func(c *ClosConfig) { c.Spines = 1e15 }, "holds at most 4096 leaf-spine uplinks"},
	}
	for _, tc := range cases {
		cfg := DefaultClosConfig(2, 4)
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	// At the caps: 2^12 racks of 2^12 hosts under one spine is 2^24 host
	// slots and 2^12 uplinks.
	atCap := DefaultClosConfig(1<<12, 1<<12)
	atCap.Spines = 1
	if err := atCap.Validate(); err != nil {
		t.Errorf("a fabric at both caps: %v", err)
	}
}

// TestClosNodeIDs pins the ID scheme the workload layer builds on: hosts
// first (rack-major), then leaves, then spines.
func TestClosNodeIDs(t *testing.T) {
	cfg := DefaultClosConfig(3, 5)
	if cfg.Hosts() != 15 {
		t.Fatalf("Hosts() = %d, want 15", cfg.Hosts())
	}
	for r := 0; r < cfg.Racks; r++ {
		for s := 0; s < cfg.HostsPerRack; s++ {
			id := cfg.HostID(r, s)
			if want := NodeID(r*5 + s); id != want {
				t.Fatalf("HostID(%d,%d) = %d, want %d", r, s, id, want)
			}
			if got := cfg.RackOf(id); got != r {
				t.Fatalf("RackOf(%d) = %d, want %d", id, got, r)
			}
		}
	}
}

// TestClosWiring checks the constructed fabric's shape: per-host NIC and
// downlink ports, per-rack uplinks to every spine, per-(spine,rack)
// downlinks, and the shared-buffer binding on leaf downlink ports only.
func TestClosWiring(t *testing.T) {
	cfg := DefaultClosConfig(3, 4)
	cfg.SharedBufferBytes = 500_000
	c := NewClos(sim.NewEngine(), cfg, nil)

	if len(c.Hosts) != 12 || len(c.Leaves) != 3 || len(c.Spines) != 2 {
		t.Fatalf("fabric has %d hosts, %d leaves, %d spines", len(c.Hosts), len(c.Leaves), len(c.Spines))
	}
	// Links: per host one NIC uplink and one leaf downlink, per rack one
	// uplink per spine, per spine one downlink per rack.
	want := 2*12 + 3*2 + 2*3
	if got := len(c.AllLinks()); got != want {
		t.Fatalf("AllLinks() = %d links, want %d", got, want)
	}
	for r := 0; r < cfg.Racks; r++ {
		if c.Shared[r] == nil {
			t.Fatalf("rack %d has no shared buffer", r)
		}
		if got := len(c.Uplinks(r)); got != cfg.Spines {
			t.Fatalf("rack %d has %d uplinks, want %d", r, got, cfg.Spines)
		}
	}
	for id := NodeID(0); int(id) < cfg.Hosts(); id++ {
		q := c.DownlinkQueue(id)
		if q == nil {
			t.Fatalf("host %d has no downlink queue", id)
		}
		if q.SharedBuffer() != c.Shared[cfg.RackOf(id)] {
			t.Fatalf("host %d downlink not bound to its rack's shared buffer", id)
		}
	}
	// Without SharedBufferBytes the pools must be absent.
	plain := NewClos(sim.NewEngine(), DefaultClosConfig(2, 2), nil)
	for r, sb := range plain.Shared {
		if sb != nil {
			t.Fatalf("rack %d grew a shared buffer without SharedBufferBytes", r)
		}
	}
}

// TestClosCrossRackDelivery pushes one data packet across the fabric and
// back: host (1,0) -> leaf 1 -> spine -> leaf 0 -> host (0,0). Delivery
// proves the static routes and the ECMP fallback compose into a working
// path.
func TestClosCrossRackDelivery(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultClosConfig(2, 2)
	c := NewClos(eng, cfg, nil)

	src := cfg.HostID(1, 0)
	dst := cfg.HostID(0, 0)
	var rx int
	c.Hosts[dst].SetOnReceive(func(now sim.Time, p *Packet) {
		rx++
		if p.Src != src || p.Dst != dst {
			t.Errorf("delivered packet %v -> %v", p.Src, p.Dst)
		}
	})

	p := c.Pool.Get()
	p.Flow, p.Src, p.Dst, p.Len = 7, src, dst, MSS
	c.Hosts[src].Send(p)
	eng.Run()

	if rx != 1 {
		t.Fatalf("delivered %d packets, want 1", rx)
	}
	// The predicted uplink must be within the spine group.
	if idx := c.UplinkIndex(7, src, dst); idx < 0 || idx >= cfg.Spines {
		t.Fatalf("UplinkIndex = %d, want in [0,%d)", idx, cfg.Spines)
	}
}

// TestECMPIndexDeterministic pins the hash contract: pure in its inputs,
// uniform-ish across outputs, and seed-sensitive.
func TestECMPIndexDeterministic(t *testing.T) {
	const n = 4
	counts := make([]int, n)
	for f := FlowID(1); f <= 400; f++ {
		a := ECMPIndex(42, f, 1, 2, n)
		b := ECMPIndex(42, f, 1, 2, n)
		if a != b {
			t.Fatalf("flow %d: ECMPIndex not deterministic (%d vs %d)", f, a, b)
		}
		if a < 0 || a >= n {
			t.Fatalf("flow %d: index %d out of range", f, a)
		}
		counts[a]++
	}
	// 400 flows over 4 buckets: each bucket should see a reasonable share.
	for i, got := range counts {
		if got < 50 || got > 150 {
			t.Errorf("bucket %d got %d of 400 flows; hash is badly skewed", i, got)
		}
	}
}

// TestECMPSeedShiftsPlacement: different seeds must reshuffle flow
// placement (the scenario layer exposes ecmp_seed exactly so studies can
// sample collision patterns), while equal seeds reproduce it.
func TestECMPSeedShiftsPlacement(t *testing.T) {
	cfgA := DefaultClosConfig(4, 8)
	cfgA.ECMPSeed = 1
	cfgB := cfgA
	cfgB.ECMPSeed = 2
	a := NewClos(sim.NewEngine(), cfgA, nil)
	b := NewClos(sim.NewEngine(), cfgB, nil)
	a2 := NewClos(sim.NewEngine(), cfgA, nil)

	moved := 0
	for f := FlowID(1); f <= 64; f++ {
		src := cfgA.HostID(1+int(f)%3, int(f)%8)
		dst := cfgA.HostID(0, 0)
		if a.UplinkIndex(f, src, dst) != a2.UplinkIndex(f, src, dst) {
			t.Fatalf("flow %d: same seed placed the flow differently", f)
		}
		if a.UplinkIndex(f, src, dst) != b.UplinkIndex(f, src, dst) {
			moved++
		}
	}
	// With 2 spines an independent re-hash moves ~half the flows; zero
	// movement means the seed is ignored.
	if moved == 0 {
		t.Fatal("changing ECMPSeed moved no flows")
	}
}
