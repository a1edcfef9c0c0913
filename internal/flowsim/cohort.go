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
// A cohort is a contiguous span of the member list (the flows ordered
// class by class, which only the end-state expansion ever builds) plus
// the per-member fluid state every member shares (unsent demand, backlog,
// window, controller state; the law's constants are the run's).
// Aggregate quantities — queue arrivals, sent/dropped volume, timeout
// counters — scale by the member count; per-member quantities (window
// headroom, the duplicate-ACK test, RTO backoff) never do. Members
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
		return c.flows >= AutoCohortMinFlows
	}
}

// defaultCohortBuckets is the number of start-jitter buckets each
// equivalence class is split into at formation. Each bucket draws one
// uniform jitter per burst, so a class's release ramp is approximated in
// this many quanta — plenty for the mode taxonomy, whose discriminants
// (standing queue vs K, timeout onset) integrate over whole bursts.
const defaultCohortBuckets = 32

// cohortPlan lays the records over the member list: record r stands for
// the cnt[r] flows at positions off[r] : off[r]+cnt[r] of it, all on path
// class class[r]. Splits carve contiguous sub-spans, so the list itself is
// never needed during a run; EndState.Members expands it on demand. For
// per-flow runs the plan is the identity (record i is flow i, one member
// each) and so is the member list; for cohort runs the member list holds
// the flows class by class, ascending within each (classMembers).
type cohortPlan struct {
	off, cnt, class []int32
}

func (p *cohortPlan) cohorts() int { return len(p.off) }

// singletonPlan is the per-flow identity plan; class[i] is flow i's class.
func singletonPlan(class []int32) cohortPlan {
	p := cohortPlan{
		off:   make([]int32, len(class)),
		cnt:   make([]int32, len(class)),
		class: class,
	}
	for i := range p.off {
		p.off[i] = int32(i)
		p.cnt[i] = 1
	}
	return p
}

// countsPlan splits each class, class by class, into at most `buckets`
// near-equal contiguous jitter buckets; counts[c] is class c's flow
// count. Emitting cohorts in class order keeps their order deterministic,
// and forcing buckets >= class size gives one record per member.
func countsPlan(counts []int32, buckets int) cohortPlan {
	var nCohorts int
	for _, s := range counts {
		nCohorts += min(int(s), buckets)
	}
	p := cohortPlan{
		off:   make([]int32, 0, nCohorts),
		cnt:   make([]int32, 0, nCohorts),
		class: make([]int32, 0, nCohorts),
	}
	var off int32
	for c, size := range counts {
		s := int(size)
		if s == 0 {
			continue
		}
		b := min(buckets, s)
		base, rem := s/b, s%b
		for k := 0; k < b; k++ {
			cnt := base
			if k < rem {
				cnt++
			}
			p.off = append(p.off, off)
			p.cnt = append(p.cnt, int32(cnt))
			p.class = append(p.class, int32(c))
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
// cfg.cohortBuckets, a test-only knob, overrides the bucket count. A
// per-flow plan resolves every flow's class and rejects one outside the
// path set; a cohort plan needs only the class counts.
func buildPlan(cfg *Config, net *netsim.FluidPaths) (cohortPlan, error) {
	if !cfg.cohortEnabled() {
		class := make([]int32, cfg.flows)
		net.Classes(0, class)
		for i, c := range class {
			if err := checkClass(net, i, c); err != nil {
				return cohortPlan{}, err
			}
		}
		return singletonPlan(class), nil
	}
	buckets := cfg.cohortBuckets
	if buckets <= 0 {
		buckets = defaultCohortBuckets
	}
	return countsPlan(net.Counts, buckets), nil
}

// checkClass rejects flow i's class c unless net has it.
func checkClass(net *netsim.FluidPaths, i int, c int32) error {
	if c < 0 || int(c) >= len(net.Paths) {
		return fmt.Errorf("flowsim: flow %d has path class %d outside the %d classes", i, c, len(net.Paths))
	}
	return nil
}

// classMembers expands a cohort run's member list: net's flows class by
// class, ascending within each class, the order countsPlan lays records
// over. It walks every flow's class once and rejects a class outside the
// path set or one holding more flows than its count.
func classMembers(net *netsim.FluidPaths) ([]int32, error) {
	next := make([]int32, len(net.Counts)) // class c's next free position
	end := make([]int32, len(net.Counts))  // one past class c's last
	var acc int32
	for c, k := range net.Counts {
		next[c] = acc
		acc += k
		end[c] = acc
	}
	class := make([]int32, net.Flows())
	net.Classes(0, class)
	members := make([]int32, len(class))
	for i, c := range class {
		if err := checkClass(net, i, c); err != nil {
			return nil, err
		}
		if next[c] == end[c] {
			return nil, fmt.Errorf("flowsim: path class %d holds more than its %d flows (flow %d)", c, net.Counts[c], i)
		}
		members[next[c]] = int32(i)
		next[c]++
	}
	return members, nil
}
