package flowsim

import "incastlab/internal/sim"

// stallEntry is one wake-heap entry: a record parked on an RTO, its wake
// deadline, and the parking's sequence number. The deadline always equals
// the record's hot stallT: a record re-armed before its wake is processed
// has every entry updated.
type stallEntry struct {
	rec int32
	at  sim.Time
	seq int64
}

// before reports whether a wakes before b in (deadline, parking sequence)
// order, a total order since every parking gets its own sequence number.
func (a *stallEntry) before(b *stallEntry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// wakeHeap is a binary min-heap of stall entries, with the typed sift-up
// and sift-down that internal/sim's calendar-queue heaps use.
type wakeHeap []stallEntry

// push adds s to the heap.
func (h *wakeHeap) push(s stallEntry) {
	*h = append(*h, s)
	h.up(len(*h) - 1)
}

// pop removes the earliest entry and leaves it in the slot the heap just
// gave up, one past its new end, so successive pops collect the removed
// entries behind the heap in its own backing array.
func (h *wakeHeap) pop() {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	*h = old[:n]
	if n > 0 {
		h.down(0)
	}
}

// init establishes the heap order over arbitrary contents.
func (h wakeHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// up moves the entry at j toward the root until its parent wakes first.
func (h wakeHeap) up(j int) {
	s := h[j]
	for j > 0 {
		i := (j - 1) / 2
		if !s.before(&h[i]) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = s
}

// down moves the entry at i toward the leaves until no child wakes before
// it.
func (h wakeHeap) down(i int) {
	n := len(h)
	s := h[i]
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].before(&h[j]) {
			j = j2
		}
		if !h[j].before(&s) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = s
}
