// Package schedule implements the paper's Section 5.2 proposal: "divide, or
// schedule, a large incast into a series of smaller incasts where only a
// manageable number of flows are active at once. With fewer flows, each
// would operate in a healthier CWND regime."
//
// Wave is a receiver-driven admitter for a workload.Group: each burst's
// flows are released in waves of at most W concurrent flows; when a flow
// finishes its burst demand, the next queued flow is released. Wave
// composes with any congestion-control algorithm — per the paper it is an
// enhancement to TCP rather than a replacement.
package schedule

import (
	"incastlab/internal/workload"
)

// Wave admits at most Size flows of each burst concurrently.
type Wave struct {
	// Size is the per-wave concurrency limit W.
	Size int

	bursts map[int]*burstState
}

type burstState struct {
	admit    func(flow int)
	queue    []int // flows not yet admitted
	inFlight int
	done     map[int]bool
}

// NewWave creates a Wave admitter with the given concurrency limit.
func NewWave(size int) *Wave {
	if size <= 0 {
		panic("schedule: wave size must be positive")
	}
	return &Wave{Size: size, bursts: make(map[int]*burstState)}
}

// BeginBurst implements workload.Admitter: release the first wave and
// queue the rest.
func (w *Wave) BeginBurst(ctx workload.AdmitContext) {
	st := &burstState{admit: ctx.Admit, done: make(map[int]bool)}
	w.bursts[ctx.Burst] = st
	for i := 0; i < ctx.Flows; i++ {
		if st.inFlight < w.Size {
			st.inFlight++
			st.admit(i)
		} else {
			st.queue = append(st.queue, i)
		}
	}
}

// FlowDone implements workload.Admitter: a finished flow frees a slot for
// the next queued flow of the same burst.
func (w *Wave) FlowDone(burst, flow int) {
	st, ok := w.bursts[burst]
	if !ok || st.done[flow] {
		return
	}
	st.done[flow] = true
	st.inFlight--
	if len(st.queue) > 0 {
		next := st.queue[0]
		st.queue = st.queue[1:]
		st.inFlight++
		st.admit(next)
	}
	if len(st.queue) == 0 && st.inFlight == 0 {
		delete(w.bursts, burst) // burst fully drained; free the state
	}
}

// Pending returns how many flows of the burst are still waiting for a
// slot; useful for tests and instrumentation.
func (w *Wave) Pending(burst int) int {
	if st, ok := w.bursts[burst]; ok {
		return len(st.queue)
	}
	return 0
}

var _ workload.Admitter = (*Wave)(nil)
