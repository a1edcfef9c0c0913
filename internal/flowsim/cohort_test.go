package flowsim

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"incastlab/internal/netsim"
	"incastlab/internal/sim"
	"incastlab/internal/workload"
)

// TestKnownAggregation pins the knob's vocabulary.
func TestKnownAggregation(t *testing.T) {
	for _, ok := range []string{"", AggregationAuto, AggregationCohort, AggregationPerFlow} {
		if !KnownAggregation(ok) {
			t.Errorf("KnownAggregation(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"flow", "cohorts", "none", "AUTO"} {
		if KnownAggregation(bad) {
			t.Errorf("KnownAggregation(%q) = true, want false", bad)
		}
	}
	cfg := quickConfig(8, CCConfig{})
	cfg.Aggregation = "bogus"
	if _, err := Run(cfg, dumbbell(t, 8)); err == nil {
		t.Fatalf("Run accepted aggregation %q", cfg.Aggregation)
	}
}

// TestCohortSingletonByteIdentity is the property test for the degenerate
// instance: forcing one flow per cohort (cohort aggregation with at least
// as many jitter buckets as flows) must reproduce the per-flow engine's
// Result byte for byte — same jitter draws, same iteration order, same
// IEEE operations (weight 1 multiplications are exact).
func TestCohortSingletonByteIdentity(t *testing.T) {
	for _, n := range []int{33, 80} {
		for _, cc := range []CCConfig{{}, {Kind: KindSwift}} {
			cfg := quickConfig(n, cc)
			cfg.Aggregation = AggregationPerFlow
			want, err := Run(cfg, dumbbell(t, n))
			if err != nil {
				t.Fatalf("perflow n=%d: %v", n, err)
			}
			cfg.Aggregation = AggregationCohort
			cfg.cohortBuckets = n // one flow per cohort
			got, err := Run(cfg, dumbbell(t, n))
			if err != nil {
				t.Fatalf("singleton cohorts n=%d: %v", n, err)
			}
			// The only allowed difference is the bookkeeping echo.
			if got.Cohorts != n || got.CohortSplits != 0 || got.PeakCohortWeight != 1 {
				t.Fatalf("singleton cohorts n=%d: got %d cohorts, %d splits, peak %v",
					n, got.Cohorts, got.CohortSplits, got.PeakCohortWeight)
			}
			// Both member lists are the identity on this one-class
			// dumbbell, but only the cohort run expands its own from the
			// path set, so compare the expansions and drop that source.
			gotRec, err := got.Final.FlowRecords()
			if err != nil {
				t.Fatalf("singleton cohorts n=%d: %v", n, err)
			}
			wantRec, err := want.Final.FlowRecords()
			if err != nil {
				t.Fatalf("perflow n=%d: %v", n, err)
			}
			if !slices.Equal(gotRec, wantRec) {
				t.Errorf("singleton cohorts n=%d: flow records %v, want %v", n, gotRec, wantRec)
			}
			got.Final.net = nil
			if !reflect.DeepEqual(got, want) {
				t.Errorf("singleton-cohort run diverged from perflow at n=%d kind=%v", n, cc.Kind)
			}
		}
	}
}

// TestCohortDefaultsAuto pins the auto threshold: small runs integrate
// per-flow (historical results bit-stable), large runs aggregate.
func TestCohortDefaultsAuto(t *testing.T) {
	small := quickConfig(80, CCConfig{})
	if err := small.fill(dumbbell(t, 80)); err != nil {
		t.Fatal(err)
	}
	if small.cohortEnabled() {
		t.Errorf("auto aggregation enabled cohorts at %d flows", small.flows)
	}
	big := quickConfig(80, CCConfig{})
	if err := big.fill(dumbbell(t, AutoCohortMinFlows)); err != nil {
		t.Fatal(err)
	}
	if !big.cohortEnabled() {
		t.Errorf("auto aggregation kept per-flow at %d flows", big.flows)
	}
}

// cohortVsPerFlow runs cfg over net both ways and returns (cohort,
// perflow).
func cohortVsPerFlow(t *testing.T, cfg Config, net *netsim.FluidPaths) (*Result, *Result) {
	t.Helper()
	cfg.Aggregation = AggregationCohort
	co, err := Run(cfg, net)
	if err != nil {
		t.Fatalf("cohort run: %v", err)
	}
	cfg.Aggregation = AggregationPerFlow
	pf, err := Run(cfg, net)
	if err != nil {
		t.Fatalf("perflow run: %v", err)
	}
	return co, pf
}

// TestCohortMatchesPerFlowModes pins cohort aggregation to the per-flow
// engine on the quick Fig-5 operating points: identical mode
// classification and close headline statistics, with tail drops (the 1400
// point) exercising the lazy exact split. The audit harness pins the same
// contract through the public runner; this is the direct engine-level
// regression for the partial-tail-drop and RTO-parking split triggers.
func TestCohortMatchesPerFlowModes(t *testing.T) {
	for _, n := range []int{80, 500, 1400} {
		co, pf := cohortVsPerFlow(t, quickConfig(n, CCConfig{}), dumbbell(t, n))
		coMode := Classify(co.Timeouts, co.FracBelowK)
		pfMode := Classify(pf.Timeouts, pf.FracBelowK)
		if coMode != pfMode {
			t.Errorf("n=%d: cohort mode %s != perflow mode %s", n, coMode, pfMode)
		}
		if co.Cohorts < defaultCohortBuckets {
			t.Errorf("n=%d: only %d cohorts (want >= %d buckets)", n, co.Cohorts, defaultCohortBuckets)
		}
		if co.PeakCohortWeight < float64(n/defaultCohortBuckets) {
			t.Errorf("n=%d: peak cohort weight %v below the bucket size %d",
				n, co.PeakCohortWeight, n/defaultCohortBuckets)
		}
		relDiff := func(a, b float64) float64 {
			if b == 0 {
				return math.Abs(a)
			}
			return math.Abs(a-b) / b
		}
		if d := relDiff(float64(co.MeanBCT), float64(pf.MeanBCT)); d > 0.15 {
			t.Errorf("n=%d: mean BCT diff %.3f (cohort %v vs perflow %v)", n, d, co.MeanBCT, pf.MeanBCT)
		}
		if d := relDiff(co.MaxQueue, pf.MaxQueue); d > 0.15 {
			t.Errorf("n=%d: max queue diff %.3f (cohort %v vs perflow %v)", n, d, co.MaxQueue, pf.MaxQueue)
		}
		if (co.Timeouts > 0) != (pf.Timeouts > 0) {
			t.Errorf("n=%d: timeout presence diverged (cohort %d vs perflow %d)", n, co.Timeouts, pf.Timeouts)
		}
		if n == 1400 {
			// Mode 3: drops must have forced exact splits, and the RTO
			// parking/backoff machinery must have run per sub-cohort.
			if co.CohortSplits == 0 {
				t.Errorf("n=1400: tail drops produced no cohort splits")
			}
			if co.Timeouts == 0 || co.Drops == 0 {
				t.Errorf("n=1400: cohort run lost the Mode-3 signature (timeouts %d drops %d)",
					co.Timeouts, co.Drops)
			}
		}
		t.Logf("n=%d: mode=%s cohorts=%d splits=%d peak=%v | BCT %v vs %v | maxQ %.1f vs %.1f | TO %d vs %d | frac %.3f vs %.3f",
			n, coMode, co.Cohorts, co.CohortSplits, co.PeakCohortWeight,
			co.MeanBCT, pf.MeanBCT, co.MaxQueue, pf.MaxQueue, co.Timeouts, pf.Timeouts,
			co.FracBelowK, pf.FracBelowK)
	}
}

// TestCohortNetworkMatchesPerFlow runs the general multi-queue integrator
// with cohort aggregation on a two-rack Clos incast and pins it to the
// per-flow network engine: same mode, close statistics. Path classes
// (per-spine ECMP choice) partition the cohorts here.
func TestCohortNetworkMatchesPerFlow(t *testing.T) {
	clos := netsim.DefaultClosConfig(2, 256)
	n := 300
	srcs := make([]netsim.NodeID, n)
	dsts := make([]netsim.NodeID, n)
	for i := range srcs {
		srcs[i] = netsim.NodeID(256 + i%250) // senders in rack 1
		dsts[i] = 0                          // aggregator in rack 0
	}
	net, err := clos.FluidPaths(srcs, dsts)
	if err != nil {
		t.Fatalf("FluidPaths: %v", err)
	}
	base := quickConfig(n, CCConfig{})
	run := func(agg string) *Result {
		cfg := base
		cfg.Aggregation = agg
		res, err := Run(cfg, net)
		if err != nil {
			t.Fatalf("Run(%s): %v", agg, err)
		}
		return res
	}
	co := run(AggregationCohort)
	pf := run(AggregationPerFlow)
	if pf.Cohorts != n || pf.PeakCohortWeight != 1 {
		t.Errorf("perflow network run reported %d cohorts peak %v", pf.Cohorts, pf.PeakCohortWeight)
	}
	coMode := Classify(co.Timeouts, co.FracBelowK)
	pfMode := Classify(pf.Timeouts, pf.FracBelowK)
	if coMode != pfMode {
		t.Errorf("cohort mode %s != perflow mode %s", coMode, pfMode)
	}
	if d := math.Abs(float64(co.MeanBCT)-float64(pf.MeanBCT)) / float64(pf.MeanBCT); d > 0.15 {
		t.Errorf("mean BCT diff %.3f (cohort %v vs perflow %v)", d, co.MeanBCT, pf.MeanBCT)
	}
	t.Logf("clos: mode=%s cohorts=%d splits=%d peak=%v | BCT %v vs %v | maxQ %.1f vs %.1f | TO %d vs %d",
		coMode, co.Cohorts, co.CohortSplits, co.PeakCohortWeight,
		co.MeanBCT, pf.MeanBCT, co.MaxQueue, pf.MaxQueue, co.Timeouts, pf.Timeouts)
}

// millionFlowNet builds the million-flow Clos workload: aggs aggregators
// spread round-robin across the racks, each fanning in perAgg flows from
// senders on the other racks — the multi-aggregator geometry whose
// per-downlink incast degree stays in the regime the paper studies while
// the total flow count crosses a million.
func millionFlowNet(t testing.TB, clos netsim.ClosConfig, aggs, perAgg int) (*netsim.FluidPaths, int) {
	t.Helper()
	n := aggs * perAgg
	srcs := make([]netsim.NodeID, 0, n)
	dsts := make([]netsim.NodeID, 0, n)
	hosts := clos.Hosts()
	for a := 0; a < aggs; a++ {
		// Round-robin aggregators across racks so no single rack's spine
		// ingress has to carry every aggregator's downlink demand.
		dst := clos.HostID(a%clos.Racks, (a/clos.Racks)%clos.HostsPerRack)
		dstRack := clos.RackOf(dst)
		// Senders cycle over the other racks' hosts.
		src := (dstRack + 1) * clos.HostsPerRack % hosts
		for f := 0; f < perAgg; f++ {
			for clos.RackOf(netsim.NodeID(src)) == dstRack || netsim.NodeID(src) == dst {
				src = (src + 1) % hosts
			}
			srcs = append(srcs, netsim.NodeID(src))
			dsts = append(dsts, dst)
			src = (src + 1) % hosts
		}
	}
	net, err := clos.FluidPaths(srcs, dsts)
	if err != nil {
		t.Fatalf("FluidPaths: %v", err)
	}
	return net, n
}

// TestCohortMillionFlowSmoke is the headline scale check: a million-flow
// multi-aggregator Clos incast integrates in ONE run — impossible
// per-flow, where the release schedule alone would blow the release-key
// packing limit — and conserves volume (Check is on).
func TestCohortMillionFlowSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("million-flow smoke is not a -short test")
	}
	clos := netsim.DefaultClosConfig(8, 4096)
	// 64 aggregators per rack pull 640 Gbps of downlink demand through the
	// rack's spine ingress: 2x400G keeps the fabric non-oversubscribed so
	// each aggregator's downlink port stays the bottleneck under study.
	clos.SpineLinkBps = 400 * netsim.Gbps
	const aggs, perAgg = 512, 2048 // 1,048,576 flows
	net, n := millionFlowNet(t, clos, aggs, perAgg)
	segs := workload.BytesPerFlowFor(clos.HostLinkBps, 15*sim.Millisecond, perAgg) / netsim.MSS
	if segs < 1 {
		segs = 1
	}
	cfg := Config{
		SegmentsPerFlow: segs,
		Bursts:          2,
		// Perfectly synchronized release livelocks this fluid model: every
		// straggler retries on the identical deterministic RTO schedule and
		// re-collides forever. Real senders desynchronize; the jitter spread
		// is the workload's model of that.
		JitterMax: 5 * sim.Millisecond,
		Check:     true,
	}
	res, err := Run(cfg, net)
	if err != nil {
		t.Fatalf("million-flow run: %v", err)
	}
	if res.Flows != n || res.Cohorts < defaultCohortBuckets {
		t.Fatalf("million-flow run: flows %d cohorts %d", res.Flows, res.Cohorts)
	}
	t.Logf("1M flows: mode=%s cohorts=%d splits=%d peak=%v steps=%d meanBCT=%v",
		Classify(res.Timeouts, res.FracBelowK), res.Cohorts, res.CohortSplits,
		res.PeakCohortWeight, res.Steps, res.MeanBCT)
}

// TestPerFlowReleasePackingLimit pins that per-flow integration still
// refuses flow counts past the release-key packing limit — with an error,
// not a panic — and that the check up front names the aggregation knob.
// The cohort path is the supported way to exceed it.
func TestPerFlowReleasePackingLimit(t *testing.T) {
	cfg := quickConfig(8, CCConfig{})
	if _, err := buildReleases(cfg, MaxPerFlowFlows+1); err == nil {
		t.Fatalf("buildReleases accepted %d per-flow units", MaxPerFlowFlows+1)
	}
	if _, err := buildReleases(cfg, 4); err != nil {
		t.Fatalf("buildReleases rejected 4 units: %v", err)
	}
	err := CheckAggregation(AggregationPerFlow, MaxPerFlowFlows+1)
	if err == nil || !strings.Contains(err.Error(), "aggregation") {
		t.Fatalf("CheckAggregation(perflow, %d) = %v, want an error naming aggregation", MaxPerFlowFlows+1, err)
	}
	for _, agg := range []string{"", AggregationAuto, AggregationCohort} {
		if err := CheckAggregation(agg, MaxPerFlowFlows+1); err != nil {
			t.Errorf("CheckAggregation(%q, %d) = %v", agg, MaxPerFlowFlows+1, err)
		}
	}
	if err := CheckAggregation(AggregationPerFlow, MaxPerFlowFlows); err != nil {
		t.Errorf("CheckAggregation(perflow, %d) = %v", MaxPerFlowFlows, err)
	}
	big := quickConfig(MaxPerFlowFlows+1, CCConfig{})
	big.SegmentsPerFlow = 1
	big.Aggregation = AggregationPerFlow
	if _, err := Run(big, dumbbell(t, MaxPerFlowFlows+1)); err == nil || !strings.Contains(err.Error(), "aggregation") {
		t.Errorf("Run of %d per-flow flows = %v, want an error naming aggregation", MaxPerFlowFlows+1, err)
	}
}

// TestBuildReleasesOrder pins the release schedule to a comparison sort
// of the packed (start, unit) keys — the order dropTailQueue's victim walk
// relies on — across jitter ceilings that need zero to six radix digits,
// and unit counts from one to thousands.
func TestBuildReleasesOrder(t *testing.T) {
	for _, jitter := range []sim.Time{0, 1, 255, 256, 100 * sim.Microsecond, 100 * sim.Millisecond, 1 << 40} {
		for _, units := range []int{1, 7, 1000, 5000} {
			cfg := quickConfig(units, CCConfig{})
			cfg.Bursts = 3
			cfg.Interval = 2 << 40
			cfg.JitterMax = jitter
			cfg.Seed = 3
			got, err := buildReleases(cfg, units)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(cfg.Seed)))
			var want []release
			keys := make([]uint64, units)
			for b := 0; b < cfg.Bursts; b++ {
				start := sim.Time(b) * cfg.Interval
				for i := range keys {
					j := sim.Time(rng.Int63n(int64(cfg.JitterMax) + 1))
					keys[i] = uint64(start+j)<<unitBits | uint64(i)
				}
				slices.Sort(keys)
				for _, k := range keys {
					want = append(want, release{at: sim.Time(k >> unitBits), flow: int32(k & (1<<unitBits - 1))})
				}
			}
			if !slices.Equal(got, want) {
				t.Errorf("jitter %v, %d units: release order differs from the sorted keys", jitter, units)
			}
		}
	}
}

// refPlan is classPlan's plan: record r owns the member IDs
// perm[off[r] : off[r]+cnt[r]].
type refPlan struct {
	perm, off, cnt []int32
}

// classPlan is the reference the plan built from class counts replaced:
// it groups flows by class through a member permutation and splits each
// class into at most `buckets` near-equal contiguous jitter buckets.
// classOf[i] is flow i's class; nClasses is the ID count. Members of a
// class keep ascending flow-ID order, and cohorts are emitted class by
// class.
func classPlan(classOf []int32, nClasses, buckets int) refPlan {
	n := len(classOf)
	size := make([]int32, nClasses)
	for _, c := range classOf {
		size[c]++
	}
	// Class start offsets into perm, then fill members in flow order.
	start := make([]int32, nClasses)
	var acc int32
	for c, s := range size {
		start[c] = acc
		acc += s
	}
	p := refPlan{perm: make([]int32, n)}
	fill := append([]int32(nil), start...)
	for i, c := range classOf {
		p.perm[fill[c]] = int32(i)
		fill[c]++
	}
	for c := 0; c < nClasses; c++ {
		s := int(size[c])
		if s == 0 {
			continue
		}
		b := buckets
		if b > s {
			b = s
		}
		base, rem := s/b, s%b
		off := start[c]
		for k := 0; k < b; k++ {
			cnt := base
			if k < rem {
				cnt++
			}
			p.off = append(p.off, off)
			p.cnt = append(p.cnt, int32(cnt))
			off += int32(cnt)
		}
	}
	return p
}

// classSeq spells a class sequence for FuzzClassPlan: class IDs as
// big-endian uint16 pairs.
func classSeq(ids ...int) []byte {
	seq := make([]byte, 0, 2*len(ids))
	for _, id := range ids {
		seq = append(seq, byte(id>>8), byte(id))
	}
	return seq
}

// FuzzClassPlan pins the plan built from class counts (countsPlan) and
// the on-demand member list (classMembers) to the reference classPlan:
// for any class sequence and bucket count, the same record spans in the
// same order, each record's class that of its members, and the member
// list equal to the reference permutation. Flow i's class is the
// (i mod len)-th uint16 of seq, modulo classes, over n flows (at most
// 2^20). The seeds are one class, many singleton classes, and the
// million-flow shape: 2^20 flows over 480 classes, 32 buckets.
func FuzzClassPlan(f *testing.F) {
	f.Add(classSeq(0), uint16(1), uint32(1000), uint8(32))
	singletons := make([]int, 300)
	for i := range singletons {
		singletons[i] = i
	}
	f.Add(classSeq(singletons...), uint16(300), uint32(300), uint8(32))
	million := make([]int, 480)
	for i := range million {
		million[i] = i * 7 % 480 // a permutation: 7 is prime to 480
	}
	f.Add(classSeq(million...), uint16(480), uint32(1<<20), uint8(defaultCohortBuckets))
	f.Fuzz(func(t *testing.T, seq []byte, classes uint16, n uint32, buckets uint8) {
		n %= 1<<20 + 1
		if len(seq) < 2 || classes == 0 || n == 0 || buckets == 0 {
			return
		}
		classOf := make([]int32, n)
		for i := range classOf {
			j := 2 * (i % (len(seq) / 2))
			classOf[i] = int32((uint16(seq[j])<<8 | uint16(seq[j+1])) % classes)
		}
		want := classPlan(classOf, int(classes), int(buckets))
		net := &netsim.FluidPaths{Paths: make([][]int32, classes)}
		net.SetClasses(classOf)
		got := countsPlan(net.Counts, int(buckets))
		if !slices.Equal(got.off, want.off) || !slices.Equal(got.cnt, want.cnt) {
			t.Fatalf("spans differ from the reference: %d records, want %d", len(got.off), len(want.off))
		}
		for r, c := range got.class {
			if want := classOf[want.perm[want.off[r]]]; c != want {
				t.Fatalf("record %d: class %d, want %d", r, c, want)
			}
		}
		members, err := classMembers(net)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(members, want.perm) {
			t.Fatal("member list differs from the reference permutation")
		}
	})
}
