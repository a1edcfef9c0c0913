package workload

import (
	"fmt"
	"slices"
	"testing"

	"incastlab/internal/netsim"
)

// walkClosPlacement places a Clos incast one worker at a time, checking
// every slot as it goes: the reference CheckClosPlacement's closed form
// and ClosFlowEndpoints' unchecked fill must both reproduce.
func walkClosPlacement(cfg netsim.ClosConfig, workers, aggregators int, placement string) (srcs, dsts []netsim.NodeID, err error) {
	if placement == "" {
		placement = PlacementCrossRack // errors name the default
	}
	if aggregators <= 1 {
		if workers <= 0 {
			return nil, nil, fmt.Errorf("workload: clos incast needs at least one worker (got %d)", workers)
		}
		ids := make([]netsim.NodeID, workers)
		switch placement {
		case PlacementCrossRack, "":
			remote := cfg.Racks - 1
			if cap := remote * cfg.HostsPerRack; workers > cap {
				return nil, nil, fmt.Errorf(
					"workload: %d cross-rack workers exceed the %d hosts in racks 1..%d (%d racks x %d hosts/rack)",
					workers, cap, cfg.Racks-1, remote, cfg.HostsPerRack)
			}
			for i := range ids {
				ids[i] = cfg.HostID(1+i%remote, i/remote)
			}
		case PlacementSameRack:
			if cap := cfg.HostsPerRack - 1; workers > cap {
				return nil, nil, fmt.Errorf(
					"workload: %d same-rack workers exceed the %d free slots under the aggregator's leaf (%d hosts/rack)",
					workers, cap, cfg.HostsPerRack)
			}
			for i := range ids {
				ids[i] = cfg.HostID(0, i+1)
			}
		default:
			return nil, nil, fmt.Errorf("workload: unknown placement %q (want %q or %q)",
				placement, PlacementCrossRack, PlacementSameRack)
		}
		return ids, make([]netsim.NodeID, workers), nil
	}
	if aggregators > cfg.Racks {
		return nil, nil, fmt.Errorf(
			"workload: %d aggregators exceed the %d racks (one aggregator per rack, at slot 0)",
			aggregators, cfg.Racks)
	}
	if workers <= 0 {
		return nil, nil, fmt.Errorf("workload: clos incast needs at least one worker per aggregator (got %d)", workers)
	}
	next := make([]int, cfg.Racks)
	for r := 0; r < aggregators; r++ {
		next[r] = 1
	}
	for k := 0; k < aggregators; k++ {
		for i := 0; i < workers; i++ {
			var r int
			switch placement {
			case PlacementCrossRack, "":
				r = (k + 1 + i%(cfg.Racks-1)) % cfg.Racks
			case PlacementSameRack:
				r = k
			default:
				return nil, nil, fmt.Errorf("workload: unknown placement %q (want %q or %q)",
					placement, PlacementCrossRack, PlacementSameRack)
			}
			if next[r] >= cfg.HostsPerRack {
				return nil, nil, fmt.Errorf(
					"workload: rack %d full placing worker %d of aggregator %d (%d aggregators x %d workers, placement %q, %d hosts/rack)",
					r, i, k, aggregators, workers, placement, cfg.HostsPerRack)
			}
			srcs = append(srcs, cfg.HostID(r, next[r]))
			next[r]++
			dsts = append(dsts, cfg.HostID(k, 0))
		}
	}
	return srcs, dsts, nil
}

// TestCheckClosPlacementMatchesWalk pins CheckClosPlacement's closed-form
// rack-load arithmetic, ClosFlowEndpoints' fill, and ClosPlacement.Fill
// over arbitrary chunks to the slot-by-slot walk over every small
// geometry: the same flow count, the same error text (full rack included,
// naming the same worker), and the same endpoints.
func TestCheckClosPlacementMatchesWalk(t *testing.T) {
	var fits, fails int
	for racks := 2; racks <= 5; racks++ {
		for hpr := 1; hpr <= 6; hpr++ {
			cfg := netsim.DefaultClosConfig(racks, hpr)
			for aggs := 0; aggs <= racks+1; aggs++ {
				for workers := 0; workers <= 3*hpr+2; workers++ {
					for _, pl := range []string{"", PlacementCrossRack, PlacementSameRack, "same-row"} {
						name := fmt.Sprintf("racks=%d hpr=%d aggs=%d workers=%d placement=%q", racks, hpr, aggs, workers, pl)
						wantSrcs, wantDsts, wantErr := walkClosPlacement(cfg, workers, aggs, pl)
						n, err := CheckClosPlacement(cfg, workers, aggs, pl)
						srcs, dsts, epErr := ClosFlowEndpoints(cfg, workers, aggs, pl)
						if wantErr != nil {
							fails++
							if err == nil || err.Error() != wantErr.Error() {
								t.Fatalf("%s: CheckClosPlacement error %v, want %v", name, err, wantErr)
							}
							if epErr == nil || epErr.Error() != wantErr.Error() {
								t.Fatalf("%s: ClosFlowEndpoints error %v, want %v", name, epErr, wantErr)
							}
							continue
						}
						fits++
						if err != nil || epErr != nil {
							t.Fatalf("%s: errors %v / %v, want none", name, err, epErr)
						}
						if n != len(wantSrcs) {
							t.Fatalf("%s: %d flows, want %d", name, n, len(wantSrcs))
						}
						if !slices.Equal(srcs, wantSrcs) || !slices.Equal(dsts, wantDsts) {
							t.Fatalf("%s: endpoints differ from the walk", name)
						}
						place, err := NewClosPlacement(cfg, workers, aggs, pl)
						if err != nil || place.Flows() != n {
							t.Fatalf("%s: NewClosPlacement = %d flows, %v; want %d", name, place.Flows(), err, n)
						}
						if lo, bad := chunkedFillDiffers(place, wantSrcs, wantDsts); bad {
							t.Fatalf("%s: a chunk filled from flow %d differs from the walk", name, lo)
						}
					}
				}
			}
		}
	}
	if fits == 0 || fails == 0 {
		t.Fatalf("grid covered %d fitting and %d failing placements; want both", fits, fails)
	}
}

// chunkedFillDiffers fills pl's flows in chunks of 1, 2, 3 and 7 flows,
// then in chunks growing 1, 2, 3, ..., so chunk boundaries fall at every
// offset, inside an aggregator's workers and across them. It reports the
// first chunk whose endpoints differ from srcs and dsts.
func chunkedFillDiffers(pl ClosPlacement, srcs, dsts []netsim.NodeID) (int, bool) {
	n := len(srcs)
	gotSrcs, gotDsts := make([]netsim.NodeID, n), make([]netsim.NodeID, n)
	for _, size := range []int{1, 2, 3, 7, 0} {
		grow := size == 0
		for lo, k := 0, max(size, 1); lo < n; lo += k {
			if grow && lo > 0 {
				k++
			}
			hi := min(lo+k, n)
			pl.Fill(lo, gotSrcs[lo:hi], gotDsts[lo:hi])
			if !slices.Equal(gotSrcs[lo:hi], srcs[lo:hi]) || !slices.Equal(gotDsts[lo:hi], dsts[lo:hi]) {
				return lo, true
			}
		}
	}
	return 0, false
}

// TestCheckClosPlacementAllocs pins that counting a million-flow incast
// allocates nothing per flow.
func TestCheckClosPlacementAllocs(t *testing.T) {
	cfg := netsim.DefaultClosConfig(16, 65560)
	allocs := testing.AllocsPerRun(5, func() {
		if n, err := CheckClosPlacement(cfg, 65536, 16, PlacementCrossRack); err != nil || n != 1<<20 {
			t.Fatalf("CheckClosPlacement = %d, %v", n, err)
		}
	})
	if allocs > 1 {
		t.Errorf("CheckClosPlacement allocates %.0f objects, want at most 1 (the rack loads)", allocs)
	}
}
