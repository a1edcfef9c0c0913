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
		src, dst := srcs[i], dsts[i]
		srcRack, dstRack := c.RackOf(src), c.RackOf(dst)
		down := queue(fmt.Sprintf("leaf-%d-port-%d", dstRack, int(dst)-dstRack*c.HostsPerRack))
		if srcRack == dstRack {
			paths = append(paths, []int32{down})
			rtts = append(rtts, c.BaseRTT(false))
			continue
		}
		s := netsim.ECMPIndex(c.ECMPSeed, netsim.FlowID(i+1), src, dst, c.Spines)
		up := queue(fmt.Sprintf("leaf-%d-uplink-%d", srcRack, s))
		sd := queue(fmt.Sprintf("spine-%d-port-%d", s, dstRack))
		paths = append(paths, []int32{up, sd, down})
		rtts = append(rtts, c.BaseRTT(true))
	}
	return names, paths, rtts
}

// TestFluidPathsClassContract pins the class-native path set against
// per-flow routing for 1, 3 and 8 aggregators under both placements:
// every flow's class path and base RTT are its own route, queues appear
// in the same order, class IDs are dense in first-appearance order, and
// no two classes share a path and base RTT.
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
			if len(p.Class) != len(srcs) {
				t.Fatalf("%s: %d class entries for %d flows", name, len(p.Class), len(srcs))
			}
			next := int32(0)
			for i, cl := range p.Class {
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
			}
			if int(next) != len(p.Paths) {
				t.Fatalf("%s: flows use %d of %d classes", name, next, len(p.Paths))
			}
			seen := map[string]int{}
			for cl, path := range p.Paths {
				key := fmt.Sprint(path, p.BaseRTT[cl])
				if other, dup := seen[key]; dup {
					t.Fatalf("%s: classes %d and %d share path %v at %v", name, other, cl, path, p.BaseRTT[cl])
				}
				seen[key] = cl
			}
			if p.Bottleneck != int(p.Paths[p.Class[0]][len(p.Paths[p.Class[0]])-1]) {
				t.Errorf("%s: bottleneck %d is not flow 0's leaf port", name, p.Bottleneck)
			}
		}
	}
}

// TestFluidPathsMillionFlowClasses pins the million-flow geometry of
// examples/scenarios/clos_million_flow_single.json: 16 aggregators each
// fanning in 65,536 cross-rack workers share 480 path classes (16
// destinations x 15 source racks x 2 spines) over 80 queues.
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
	if len(p.Class) != 1<<20 || len(p.Paths) != 480 || len(p.Queues) != 80 {
		t.Errorf("million-flow path set: %d flows, %d classes, %d queues; want %d, 480, 80",
			len(p.Class), len(p.Paths), len(p.Queues), 1<<20)
	}
}
