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
// memory — Result copies the sample series, BCTs, and per-flow end
// state into fresh slices. Each acquired bundle is owned by exactly one
// goroutine until released, so parallel sweeps stay race-free.
type netScratch struct {
	// Per-queue state and step scratch.
	q, drain, capQ, kQ, q0, delay, served, sFrac, arrTotal, markNow, passFrac []float64
	transit                                                                   []bool
	byStage                                                                   [][]int32
	stageQ                                                                    []int32

	// Per-record state (grows past its initial length on cohort splits;
	// the grown capacity is what makes reuse pay).
	flows         []flowState
	hot           []netFlow
	off, lineNext []int32
	baseSec       []float64
	paths         [][]int32

	// Per-flow-hop flat arrays.
	bk, mk, arrH, arrMkH []float64

	// Tail-drop victim index (CSR offsets and entries).
	vicOff []int32
	vic    []victim

	// Run-loop lists.
	activeList []int32
	stalled    []stallEntry
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

// attach populates the engine's arrays from the recycled bundle and
// remembers it for release.
func (e *netEngine) attach(sc *netScratch, nq, stages, m int, hops int32) {
	e.scratch = sc
	e.q = grown(sc.q, nq)
	e.drain = grown(sc.drain, nq)
	e.capQ = grown(sc.capQ, nq)
	e.kQ = grown(sc.kQ, nq)
	e.q0 = grown(sc.q0, nq)
	e.delay = grown(sc.delay, nq)
	e.served = grown(sc.served, nq)
	e.sFrac = grown(sc.sFrac, nq)
	e.arrTotal = grown(sc.arrTotal, nq)
	e.markNow = grown(sc.markNow, nq)
	e.passFrac = grown(sc.passFrac, nq)
	e.transit = grown(sc.transit, nq)
	e.byStage = grown(sc.byStage, stages)
	e.stageQ = grown(sc.stageQ, nq)
	e.flows = grown(sc.flows, m)
	e.hot = grown(sc.hot, m)
	e.off = grown(sc.off, m)
	e.lineNext = grown(sc.lineNext, m)
	e.baseSec = grown(sc.baseSec, m)
	e.paths = grown(sc.paths, m)
	e.bk = grown(sc.bk, int(hops))
	e.mk = grown(sc.mk, int(hops))
	e.arrH = grown(sc.arrH, int(hops))
	e.arrMkH = grown(sc.arrMkH, int(hops))
	e.vicOff = grown(sc.vicOff, nq+1)
	e.vic = sc.vic
	e.activeList = grown(sc.activeList, 0)
	e.stalled = grown(sc.stalled, 0)
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
	sc.q, sc.drain, sc.capQ, sc.kQ = e.q, e.drain, e.capQ, e.kQ
	sc.q0, sc.delay, sc.served, sc.sFrac = e.q0, e.delay, e.served, e.sFrac
	sc.arrTotal, sc.markNow, sc.passFrac = e.arrTotal, e.markNow, e.passFrac
	sc.transit = e.transit
	sc.byStage, sc.stageQ = e.byStage, e.stageQ
	sc.flows, sc.hot = e.flows, e.hot
	sc.off, sc.lineNext, sc.baseSec = e.off, e.lineNext, e.baseSec
	// Drop the shared path headers so the pool does not pin a finished
	// run's FluidPaths backing until the bundle's next use.
	clear(e.paths)
	sc.paths = e.paths
	sc.bk, sc.mk, sc.arrH, sc.arrMkH = e.bk, e.mk, e.arrH, e.arrMkH
	sc.vicOff, sc.vic = e.vicOff, e.vic
	sc.activeList, sc.stalled = e.activeList, e.stalled
	netScratchPool.Put(sc)
}
