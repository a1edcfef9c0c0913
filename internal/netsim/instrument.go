package netsim

import (
	"incastlab/internal/sim"
	"incastlab/internal/stats"
)

// SamplePeriodically schedules n callbacks at fixed intervals starting at
// start. The callback receives the sample index; it runs inside the event
// loop so it can read any simulation state consistently.
func SamplePeriodically(eng *sim.Engine, start, interval sim.Time, n int, fn func(i int)) {
	if interval <= 0 {
		panic("netsim: sampling interval must be positive")
	}
	// One closure serves every sample: the events fire in scheduling order
	// (strictly increasing timestamps), so a running counter recovers the
	// sample index without capturing it n times.
	next := 0
	body := func() {
		fn(next)
		next++
	}
	for i := 0; i < n; i++ {
		eng.Schedule(start+sim.Time(i)*interval, body)
	}
}

// QueueWatermarkSeries records the queue's high watermark (in packets) over
// each interval, mimicking the per-minute watermark counters production ToRs
// export. Each sample i covers (start+i*interval, start+(i+1)*interval].
func QueueWatermarkSeries(eng *sim.Engine, q *Queue, start, interval sim.Time, n int) *stats.Series {
	s := stats.NewSeries(int64(start), int64(interval), n)
	// Reset the watermark at the window start, then harvest at each
	// interval end. As in SamplePeriodically, one closure plus a counter
	// replaces a capture per sample.
	eng.Schedule(start, func() { q.TakeWatermark() })
	next := 0
	harvest := func() {
		s.Values[next] = float64(q.TakeWatermark())
		next++
	}
	for i := 0; i < n; i++ {
		eng.Schedule(start+sim.Time(i+1)*interval, harvest)
	}
	return s
}

// HostIngressRecorder taps a host's delivered packets into per-interval
// totals: bytes, ECN-marked (CE) bytes, retransmitted bytes, and the set of
// distinct flows seen per interval. This is the NIC-side view Millisampler
// samples in production.
type HostIngressRecorder struct {
	// Bytes, CEBytes, RetxBytes are per-interval IP byte totals.
	Bytes, CEBytes, RetxBytes *stats.Series
	// Flows is the count of distinct flows observed in each interval.
	Flows *stats.Series

	perInterval []map[FlowID]struct{}
}

// NewHostIngressRecorder attaches a recorder to h covering n intervals of
// the given width starting at start. It replaces any previous OnReceive tap.
func NewHostIngressRecorder(h *Host, start, interval sim.Time, n int) *HostIngressRecorder {
	r := &HostIngressRecorder{
		Bytes:       stats.NewSeries(int64(start), int64(interval), n),
		CEBytes:     stats.NewSeries(int64(start), int64(interval), n),
		RetxBytes:   stats.NewSeries(int64(start), int64(interval), n),
		Flows:       stats.NewSeries(int64(start), int64(interval), n),
		perInterval: make([]map[FlowID]struct{}, n),
	}
	h.SetOnReceive(func(now sim.Time, p *Packet) {
		if p.IsAck {
			return
		}
		i := r.Bytes.Index(int64(now))
		if i < 0 {
			return
		}
		b := float64(p.IPBytes())
		r.Bytes.Values[i] += b
		if p.CE {
			r.CEBytes.Values[i] += b
		}
		if p.Retransmit {
			r.RetxBytes.Values[i] += b
		}
		m := r.perInterval[i]
		if m == nil {
			m = make(map[FlowID]struct{})
			r.perInterval[i] = m
		}
		if _, ok := m[p.Flow]; !ok {
			m[p.Flow] = struct{}{}
			r.Flows.Values[i]++
		}
	})
	return r
}
