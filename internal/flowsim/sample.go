package flowsim

import "incastlab/internal/sim"

// sampler reproduces the packet simulator's per-burst queue sampling on
// top of fluid steps: sample times lie on a fixed grid relative to each
// measured burst's start, and values are linearly interpolated between
// step boundaries (exact for the piecewise-linear fluid queue) and fed to
// the run's Window. Because the sample window never exceeds the burst
// interval, a single cursor (burst m, sample idx) advances monotonically
// with time.
type sampler struct {
	win      Window
	burstGap sim.Time // burst start-to-start spacing
	first    int      // first measured burst index

	m, idx int // cursor: measured-burst offset and sample index
	prevT  sim.Time
	prevQ  float64
}

// newSampler samples cfg's measured bursts at a bottleneck marking from
// k packets.
func newSampler(cfg Config, k int) sampler {
	return sampler{
		win:      NewWindow(cfg.Bursts, cfg.SampleWindow, cfg.SampleInterval, k),
		burstGap: cfg.Interval,
		first:    FirstMeasured(cfg.Bursts),
	}
}

func (s *sampler) measuredStart() sim.Time { return sim.Time(s.first) * s.burstGap }

// advance records every grid sample in (prevT, now], interpolating the
// queue linearly between the previous and current step boundary.
func (s *sampler) advance(now sim.Time, q float64) {
	for s.m < s.win.measured {
		t := sim.Time(s.first+s.m)*s.burstGap + sim.Time(s.idx)*s.win.interval
		if t > now {
			break
		}
		v := q
		if now > s.prevT && t >= s.prevT {
			v = s.prevQ + (q-s.prevQ)*float64(t-s.prevT)/float64(now-s.prevT)
		}
		s.win.Add(s.idx, max(v, 0))
		s.idx++
		if s.idx >= s.win.Samples() {
			s.idx = 0
			s.m++
		}
	}
	s.prevT, s.prevQ = now, q
}
