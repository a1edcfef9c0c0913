package flowsim

import (
	"fmt"

	"incastlab/internal/netsim"
)

// Cohort aggregation: the incast workloads this package exists for are
// massively symmetric — hundreds to thousands of flows sharing one CC law,
// one demand size, one base RTT, and (per ECMP spine choice) one ordered
// queue path. Integrating each such equivalence class as ONE weighted
// record makes step cost proportional to the number of distinct behaviors
// instead of the number of flows, which is what turns "million-flow" from
// a sharded grid into a single run.
//
// A cohort is a contiguous span of member flow IDs plus the per-member
// fluid state every member shares (unsent demand, backlog, window,
// controller). Aggregate quantities — queue arrivals, sent/dropped volume,
// timeout counters — scale by the member count; per-member quantities
// (window headroom, the duplicate-ACK test, RTO backoff) never do. Members
// of one class are split into jitter buckets at formation (each bucket
// draws one start jitter per burst, approximating the per-flow jitter
// spread), and cohorts split lazily and exactly at runtime when a tail
// drop bites only part of a cohort — the single event that can make
// members diverge, since every other reaction (marking, round closes, RTO
// parking, completion) applies to all members identically.
//
// The "perflow" aggregation level is the degenerate instance: every flow
// its own cohort, weight 1, through the SAME code path. Multiplications by
// a weight of 1.0 are IEEE-exact and the iteration and RNG-draw orders are
// identical, so a per-flow run and a run of one-member cohorts are byte for
// byte the same (TestCohortSingletonByteIdentity pins it).

// Aggregation levels for Config.Aggregation.
const (
	// AggregationAuto (or empty) picks cohorts for large incasts and
	// per-flow integration below AutoCohortMinFlows, where exactness is
	// cheap and the historical per-flow results stay bit-stable.
	AggregationAuto = "auto"
	// AggregationCohort forces cohort aggregation regardless of size.
	AggregationCohort = "cohort"
	// AggregationPerFlow forces one flow per cohort (the exact engine).
	AggregationPerFlow = "perflow"
)

// MaxPerFlowFlows is the largest incast the per-flow representation can
// hold: the release schedule packs each record's index into unitBits of a
// sort key, so a run carries fewer than 2^20 records. Cohort aggregation
// is the way past it.
const MaxPerFlowFlows = 1<<unitBits - 1

// CheckAggregation reports whether the aggregation level can represent an
// incast of the given number of flows; the error names the knob.
func CheckAggregation(aggregation string, flows int) error {
	if !KnownAggregation(aggregation) {
		return fmt.Errorf("flowsim: unknown aggregation %q (valid: %q, %q, %q)",
			aggregation, AggregationAuto, AggregationCohort, AggregationPerFlow)
	}
	if aggregation == AggregationPerFlow && flows > MaxPerFlowFlows {
		return fmt.Errorf("flowsim: aggregation %q holds at most %d flows, not %d (use aggregation %q or %q)",
			AggregationPerFlow, MaxPerFlowFlows, flows, AggregationCohort, AggregationAuto)
	}
	return nil
}

// AutoCohortMinFlows is the incast degree at which "auto" switches from
// per-flow to cohort integration. Below it the per-flow engine is already
// fast and its results are pinned by goldens; above it symmetry pays.
const AutoCohortMinFlows = 4096

// KnownAggregation reports whether name selects an aggregation level
// ("" means auto).
func KnownAggregation(name string) bool {
	switch name {
	case "", AggregationAuto, AggregationCohort, AggregationPerFlow:
		return true
	}
	return false
}

// cohortEnabled resolves the knob against the incast degree.
func (c *Config) cohortEnabled() bool {
	switch c.Aggregation {
	case AggregationCohort:
		return true
	case AggregationPerFlow:
		return false
	default:
		return c.Flows >= AutoCohortMinFlows
	}
}

// defaultCohortBuckets is the number of start-jitter buckets each
// equivalence class is split into at formation. Each bucket draws one
// uniform jitter per burst, so a class's release ramp is approximated in
// this many quanta — plenty for the mode taxonomy, whose discriminants
// (standing queue vs K, timeout onset) integrate over whole bursts.
const defaultCohortBuckets = 32

// cohortPlan maps cohorts to their member flows: cohort c owns the member
// IDs perm[off[c] : off[c]+cnt[c]]. Splits carve contiguous sub-spans, so
// the permutation is built once. For per-flow runs the plan is the
// identity: perm[i] = i, one member each.
type cohortPlan struct {
	perm []int32
	off  []int32
	cnt  []int32
}

func (p *cohortPlan) cohorts() int { return len(p.off) }

// singletonPlan is the per-flow identity plan.
func singletonPlan(n int) cohortPlan {
	p := cohortPlan{
		perm: make([]int32, n),
		off:  make([]int32, n),
		cnt:  make([]int32, n),
	}
	for i := range p.perm {
		p.perm[i] = int32(i)
		p.off[i] = int32(i)
		p.cnt[i] = 1
	}
	return p
}

// classPlan groups flows by equivalence class and splits each class into
// at most `buckets` near-equal contiguous jitter buckets. classOf[i] is
// flow i's class ID (dense, assigned in first-appearance order, which
// keeps cohort order deterministic); nClasses is the ID count. Members of
// a class keep ascending flow-ID order, and cohorts are emitted class by
// class, so forcing buckets >= class size degenerates to the identity
// plan exactly.
func classPlan(classOf []int32, nClasses, buckets int) cohortPlan {
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
	var nCohorts int
	for _, s := range size {
		nCohorts += min(int(s), buckets)
	}
	p := cohortPlan{
		perm: make([]int32, n),
		off:  make([]int32, 0, nCohorts),
		cnt:  make([]int32, 0, nCohorts),
	}
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

// buildPlan resolves the aggregation knob into a plan: the identity for
// per-flow runs, else net's path classes (the only behavioral
// discriminant, since the workload fields are uniform across flows) split
// into jitter buckets. Within a class the workload layer already
// guarantees one CC law, one demand and one release schedule.
// cfg.cohortBuckets, a test-only knob, overrides the bucket count.
func buildPlan(cfg *Config, net *netsim.FluidPaths) cohortPlan {
	if !cfg.cohortEnabled() {
		return singletonPlan(cfg.Flows)
	}
	buckets := cfg.cohortBuckets
	if buckets <= 0 {
		buckets = defaultCohortBuckets
	}
	return classPlan(net.Class, len(net.Paths), buckets)
}
