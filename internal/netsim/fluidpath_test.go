package netsim_test

import (
	"fmt"
	"slices"
	"testing"

	"incastlab/internal/netsim"
	"incastlab/internal/sim"
	"incastlab/internal/workload"
)

// perFlowPaths routes every flow on its own, the way a per-flow builder
// does: the destination's leaf port for a same-rack flow; the source
// leaf's uplink to the spine ECMPIndex picks, that spine's port into the
// destination rack, then the leaf port for a cross-rack one. Queues are
// named as the packet topology names them and numbered in first-use
// order, so the result can be compared index for index.
func perFlowPaths(c netsim.ClosConfig, srcs, dsts []netsim.NodeID) (names []string, paths [][]int32, rtts []sim.Time) {
	index := map[string]int32{}
	queue := func(name string) int32 {
		j, ok := index[name]
		if !ok {
			j = int32(len(names))
			index[name] = j
			names = append(names, name)
		}
		return j
	}
	for i := range srcs {
		route := routeNames(c, i, srcs[i], dsts[i])
		// The destination's leaf port is numbered first, then the rest of
		// the route in order.
		down := queue(route[len(route)-1])
		var path []int32
		for _, name := range route[:len(route)-1] {
			path = append(path, queue(name))
		}
		paths = append(paths, append(path, down))
		rtts = append(rtts, c.BaseRTT(len(path) > 0))
	}
	return names, paths, rtts
}

// routeNames is flow i's route from src to dst as perFlowPaths spells
// it: the names of the queues it crosses, from the source outward.
func routeNames(c netsim.ClosConfig, i int, src, dst netsim.NodeID) []string {
	srcRack, dstRack := c.RackOf(src), c.RackOf(dst)
	down := fmt.Sprintf("leaf-%d-port-%d", dstRack, int(dst)-dstRack*c.HostsPerRack)
	if srcRack == dstRack {
		return []string{down}
	}
	s := netsim.ECMPIndex(c.ECMPSeed, netsim.FlowID(i+1), src, dst, c.Spines)
	return []string{fmt.Sprintf("leaf-%d-uplink-%d", srcRack, s), fmt.Sprintf("spine-%d-port-%d", s, dstRack), down}
}

// samePathSet fails the test unless q is p: the same queues, class paths,
// base RTTs, counts, stages and bottleneck, and every flow in the same
// class.
func samePathSet(t *testing.T, name string, p, q *netsim.FluidPaths) {
	t.Helper()
	if !slices.Equal(p.Queues, q.Queues) || !slices.Equal(p.BaseRTT, q.BaseRTT) || !slices.Equal(p.Counts, q.Counts) ||
		!slices.Equal(p.Stage, q.Stage) || p.Bottleneck != q.Bottleneck || !slices.EqualFunc(p.Paths, q.Paths, slices.Equal) {
		t.Fatalf("%s: the path sets differ", name)
	}
	pc, qc := make([]int32, p.Flows()), make([]int32, q.Flows())
	p.Classes(0, pc)
	q.Classes(0, qc)
	if i := slices.Compare(pc, qc); i != 0 {
		t.Fatalf("%s: the path sets put flows in different classes", name)
	}
}

// TestFluidPathsClassContract pins the class-native path set against
// per-flow routing for 1, 3 and 8 aggregators under both placements:
// every flow's class path and base RTT are its own route, queues appear
// in the same order, class IDs are dense in first-appearance order, each
// class counts its flows, no two classes share a path and base RTT, the
// bulk class walk agrees with ClassOf, and stages are numbered densely
// (one for a same-rack path set, three across the fabric). Built from the placement in
// chunks (FluidPathsFrom), the path set is the same.
func TestFluidPathsClassContract(t *testing.T) {
	c := netsim.DefaultClosConfig(8, 40)
	c.Spines = 4
	c.ECMPSeed = 7
	for _, placement := range []string{workload.PlacementCrossRack, workload.PlacementSameRack} {
		for _, aggs := range []int{1, 3, 8} {
			name := fmt.Sprintf("%s/%d aggregators", placement, aggs)
			srcs, dsts, err := workload.ClosFlowEndpoints(c, 30, aggs, placement)
			if err != nil {
				t.Fatalf("%s: endpoints: %v", name, err)
			}
			p, err := c.FluidPaths(srcs, dsts)
			if err != nil {
				t.Fatalf("%s: FluidPaths: %v", name, err)
			}
			names, paths, rtts := perFlowPaths(c, srcs, dsts)
			if len(p.Queues) != len(names) {
				t.Fatalf("%s: %d queues, want %d", name, len(p.Queues), len(names))
			}
			for j, q := range p.Queues {
				if q.Name != names[j] {
					t.Fatalf("%s: queue %d is %s, want %s", name, j, q.Name, names[j])
				}
			}
			if p.Flows() != len(srcs) {
				t.Fatalf("%s: classes count %d flows, want %d", name, p.Flows(), len(srcs))
			}
			classes := make([]int32, len(srcs))
			p.Classes(0, classes)
			counts := make([]int32, len(p.Paths))
			next := int32(0)
			for i := range srcs {
				cl := p.ClassOf(i)
				if cl != classes[i] {
					t.Fatalf("%s: flow %d: ClassOf says %d, the bulk walk %d", name, i, cl, classes[i])
				}
				if cl > next {
					t.Fatalf("%s: flow %d has class %d before class %d appeared", name, i, cl, next)
				}
				if cl == next {
					next++
				}
				if !slices.Equal(p.Paths[cl], paths[i]) || p.BaseRTT[cl] != rtts[i] {
					t.Fatalf("%s: flow %d class %d is %v at %v, want %v at %v",
						name, i, cl, p.Paths[cl], p.BaseRTT[cl], paths[i], rtts[i])
				}
				counts[cl]++
			}
			if int(next) != len(p.Paths) {
				t.Fatalf("%s: flows use %d of %d classes", name, next, len(p.Paths))
			}
			if !slices.Equal(counts, p.Counts) {
				t.Fatalf("%s: class counts %v, want %v", name, p.Counts, counts)
			}
			seen := map[string]int{}
			for cl, path := range p.Paths {
				key := fmt.Sprint(path, p.BaseRTT[cl])
				if other, dup := seen[key]; dup {
					t.Fatalf("%s: classes %d and %d share path %v at %v", name, other, cl, path, p.BaseRTT[cl])
				}
				seen[key] = cl
			}
			first := p.Paths[p.ClassOf(0)]
			if p.Bottleneck != int(first[len(first)-1]) {
				t.Errorf("%s: bottleneck %d is not flow 0's leaf port", name, p.Bottleneck)
			}
			stages := 3
			if placement == workload.PlacementSameRack {
				stages = 1 // the leaf downlinks alone
			}
			if got := p.Stages(); got != stages || slices.Max(p.Stage) != stages-1 || slices.Min(p.Stage) != 0 {
				t.Errorf("%s: stages %v (%d levels), want %d levels numbered from 0", name, p.Stage, got, stages)
			}

			pl, err := workload.NewClosPlacement(c, 30, aggs, placement)
			if err != nil {
				t.Fatalf("%s: placement: %v", name, err)
			}
			q, err := c.FluidPathsFrom(pl.Flows(), pl.Fill)
			if err != nil {
				t.Fatalf("%s: FluidPathsFrom: %v", name, err)
			}
			samePathSet(t, name, p, q)
		}
	}
}

// TestFluidPathsMillionFlowClasses pins the million-flow geometry of
// examples/scenarios/clos_million_flow_single.json: 16 aggregators each
// fanning in 65,536 cross-rack workers share 480 path classes (16
// destinations x 15 source racks x 2 spines) over 80 queues. The class
// counts tally ClassOf over every flow, every 61st flow's class path is
// its per-flow route, and the chunked build (256 chunks) gives the same
// path set.
func TestFluidPathsMillionFlowClasses(t *testing.T) {
	c := netsim.DefaultClosConfig(16, 65560)
	c.SpineLinkBps = 400 * netsim.Gbps
	srcs, dsts, err := workload.ClosFlowEndpoints(c, 65536, 16, workload.PlacementCrossRack)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.FluidPaths(srcs, dsts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Flows() != 1<<20 || len(p.Paths) != 480 || len(p.Queues) != 80 {
		t.Fatalf("million-flow path set: %d flows, %d classes, %d queues; want %d, 480, 80",
			p.Flows(), len(p.Paths), len(p.Queues), 1<<20)
	}
	classes := make([]int32, len(srcs))
	p.Classes(0, classes)
	counts := make([]int32, len(p.Paths))
	for i, cl := range classes {
		counts[cl]++
		if i%61 != 0 {
			continue
		}
		var got []string
		for _, j := range p.Paths[cl] {
			got = append(got, p.Queues[j].Name)
		}
		if want := routeNames(c, i, srcs[i], dsts[i]); !slices.Equal(got, want) {
			t.Fatalf("flow %d: class %d crosses %v, want %v", i, cl, got, want)
		}
	}
	if !slices.Equal(counts, p.Counts) {
		t.Fatalf("class counts %v, want the tally %v", p.Counts, counts)
	}
	pl, err := workload.NewClosPlacement(c, 65536, 16, workload.PlacementCrossRack)
	if err != nil {
		t.Fatal(err)
	}
	q, err := c.FluidPathsFrom(pl.Flows(), pl.Fill)
	if err != nil {
		t.Fatal(err)
	}
	samePathSet(t, "million", p, q)
}

// TestDumbbellFluidPaths pins the dumbbell's path set: one queue, its
// bottleneck, at the host line rate with the config's capacity and ECN
// threshold, crossed by one class of all the flows at the dumbbell's base
// RTT. Every flow shares the one class, so the build costs the same small
// number of allocations at any incast degree.
func TestDumbbellFluidPaths(t *testing.T) {
	c := netsim.DefaultDumbbellConfig()
	c.QueueCapacityPackets, c.ECNThresholdPackets = 400, 20
	p, err := c.FluidPaths(80)
	if err != nil {
		t.Fatal(err)
	}
	want := netsim.FluidQueue{Name: "bottleneck", RateBps: c.HostLinkBps, CapacityPackets: 400, ECNThresholdPackets: 20}
	if len(p.Queues) != 1 || p.Queues[0] != want || p.Bottleneck != 0 {
		t.Errorf("queues %+v, bottleneck %d; want the one queue %+v", p.Queues, p.Bottleneck, want)
	}
	if len(p.Paths) != 1 || !slices.Equal(p.Paths[0], []int32{0}) || !slices.Equal(p.Counts, []int32{80}) ||
		!slices.Equal(p.BaseRTT, []sim.Time{c.BaseRTT()}) || p.Flows() != 80 || p.ClassOf(79) != 0 {
		t.Errorf("paths %v, counts %v, base RTTs %v; want one class of 80 flows at %v", p.Paths, p.Counts, p.BaseRTT, c.BaseRTT())
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := c.FluidPaths(n); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, big := allocs(80), allocs(1400); small != big || big > 8 {
		t.Errorf("path set allocates %.0f objects at 80 senders and %.0f at 1,400; want the same small constant (<= 8)", small, big)
	}
	for _, bad := range []int{0, -1} {
		if _, err := c.FluidPaths(bad); err == nil {
			t.Errorf("%d senders accepted", bad)
		}
	}
}
