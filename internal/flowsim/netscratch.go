package flowsim

import "sync"

// netScratch recycles the multi-queue engine's per-run backing arrays
// through a process-wide sync.Pool, the same pattern internal/core's
// simResources applies to the packet engine: consecutive sweep points
// need exactly the same substrate, and rebuilding it cold is where a
// fluid sweep burns most of its allocation budget.
//
// Correctness: results are independent of pool warmth. Every reused
// slice is re-lengthened and cleared (or fully overwritten) before the
// integrator reads it, and nothing the engine returns aliases pooled
// memory — Result copies the sample series, BCTs, and per-record end
// state into fresh slices. Each acquired bundle is owned by exactly one
// goroutine until released, so parallel sweeps stay race-free.
type netScratch struct {
	// Per-queue state and step scratch.
	qs      []netQueue
	byStage [][]int32
	stageQ  []int32

	// Per-record state (grows past its initial length on cohort splits;
	// the grown capacity is what makes reuse pay).
	flows []flowState
	hot   []netFlow
	paths [][]int32
	hops  []hopState

	// Tail-drop victim index (CSR offsets and entries) and the per-release
	// live counts that filter it.
	vicOff  []int32
	vic     []victim
	relLive []int32

	// Run-loop lists: the active records and the wake heap.
	activeList []int32
	wakes      wakeHeap
}

var netScratchPool = sync.Pool{New: func() any { return new(netScratch) }}

// grown returns buf re-lengthened to n with every element zeroed,
// reusing its capacity when it suffices.
func grown[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// emptied returns buf cut to length zero with room for at least n
// elements, reusing its capacity when it suffices.
func emptied[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, 0, n)
	}
	return buf[:0]
}

// attach populates the engine's arrays from the recycled bundle and
// remembers it for release. The per-release counts are sized to
// e.releases, so the release schedule must be in place first.
func (e *netEngine) attach(sc *netScratch, nq, stages, m int, hops int32) {
	e.scratch = sc
	e.qs = grown(sc.qs, nq)
	e.byStage = grown(sc.byStage, stages)
	e.stageQ = grown(sc.stageQ, nq)
	e.flows = grown(sc.flows, m)
	e.hot = grown(sc.hot, m)
	e.paths = grown(sc.paths, m)
	e.hops = grown(sc.hops, int(hops))
	e.vicOff = grown(sc.vicOff, nq+1)
	e.vic = sc.vic
	e.relLive = grown(sc.relLive, len(e.releases))
	e.activeList = emptied(sc.activeList, m)
	e.wakes = emptied(sc.wakes, m)
}

// release hands the (possibly split-grown) backing arrays back to the
// pool. Only call it once the run's Result has been assembled — nothing
// may alias the arrays afterwards.
func (e *netEngine) release() {
	sc := e.scratch
	if sc == nil {
		return
	}
	e.scratch = nil
	sc.qs, sc.byStage, sc.stageQ = e.qs, e.byStage, e.stageQ
	sc.flows, sc.hot, sc.hops = e.flows, e.hot, e.hops
	// Drop the shared path headers so the pool does not pin a finished
	// run's FluidPaths backing until the bundle's next use.
	clear(e.paths)
	sc.paths = e.paths
	sc.vicOff, sc.vic, sc.relLive = e.vicOff, e.vic, e.relLive
	sc.activeList, sc.wakes = e.activeList, e.wakes
	netScratchPool.Put(sc)
}
