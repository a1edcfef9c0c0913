package flowsim

import "incastlab/internal/sim"

// sampler reproduces the packet simulator's per-burst queue sampling on
// top of fluid steps: sample times lie on a fixed grid relative to each
// measured burst's start, and values are linearly interpolated between
// step boundaries (exact for the piecewise-linear fluid queue). Because
// the sample window never exceeds the burst interval, a single cursor
// (burst m, sample idx) advances monotonically with time.
type sampler struct {
	interval sim.Time // sample spacing
	burstGap sim.Time // burst start-to-start spacing
	perBurst int      // samples per burst window
	first    int      // first measured burst index
	measured int      // number of measured bursts
	k        float64  // ECN threshold, for FracBelowK accounting

	avg          []float64 // element-wise sums across bursts
	busy, belowK int
	maxQ         float64

	m, idx int // cursor: measured-burst offset and sample index
	prevT  sim.Time
	prevQ  float64
}

// busyFloor is the minimum interpolated depth that counts as a busy
// sample: the packet simulator samples whole packets, so fluid slivers
// below half a packet must not register as busy below-K observations.
const busyFloor = 0.5

// newSampler samples cfg's measured bursts (from burst first on) and
// counts busy samples below k, the bottleneck's ECN threshold.
func newSampler(cfg Config, first int, k float64) sampler {
	perBurst := int(cfg.SampleWindow / cfg.SampleInterval)
	if perBurst < 1 {
		perBurst = 1
	}
	return sampler{
		interval: cfg.SampleInterval,
		burstGap: cfg.Interval,
		perBurst: perBurst,
		first:    first,
		measured: cfg.Bursts - first,
		k:        k,
		avg:      make([]float64, perBurst),
	}
}

func (s *sampler) measuredStart() sim.Time { return sim.Time(s.first) * s.burstGap }

// advance records every grid sample in (prevT, now], interpolating the
// queue linearly between the previous and current step boundary.
func (s *sampler) advance(now sim.Time, q float64) {
	for s.m < s.measured {
		b := s.first + s.m
		t := sim.Time(b)*s.burstGap + sim.Time(s.idx)*s.interval
		if t > now {
			break
		}
		v := q
		if now > s.prevT && t >= s.prevT {
			v = s.prevQ + (q-s.prevQ)*float64(t-s.prevT)/float64(now-s.prevT)
		}
		if v < 0 {
			v = 0
		}
		s.avg[s.idx] += v
		if v > s.maxQ {
			s.maxQ = v
		}
		if v >= busyFloor {
			s.busy++
			if v < s.k {
				s.belowK++
			}
		}
		s.idx++
		if s.idx >= s.perBurst {
			s.idx = 0
			s.m++
		}
	}
	s.prevT, s.prevQ = now, q
}
