package flowsim

import (
	"math"

	"incastlab/internal/sim"
)

// Kind selects a reduced-form congestion-control law. Each is the fluid
// counterpart of an internal/cc implementation: instead of reacting to
// individual ACKs, the law updates once per RTT-long round from the round's
// aggregate mark fraction and delay sample.
type Kind int

const (
	// KindDCTCP is the ECN-proportional law: alpha is an EWMA of the
	// per-round mark fraction, a marked round shrinks the window once by
	// penalty(alpha) = alpha^d/2 (d = 1 for plain DCTCP, deadline-corrected
	// for D2TCP), and growth is scaled by the unmarked fraction.
	KindDCTCP Kind = iota
	// KindReno ignores marks entirely: slow start, additive increase, and
	// loss/timeout reactions only.
	KindReno
	// KindSwift is the delay-based law: additive increase while the round
	// RTT is below target, multiplicative decrease proportional to the
	// excess otherwise, with a fractional (sub-packet) window floor.
	KindSwift
)

// CCConfig parameterizes a reduced-form controller. All windows are in
// packets (one packet = one MSS of payload occupying one MTU queue slot);
// zero values take the documented defaults.
type CCConfig struct {
	// Kind selects the law.
	Kind Kind
	// Name labels results (e.g. "dctcp", "dctcp+guardrail", "d2tcp").
	Name string
	// InitialWindowPkts is the starting window (default 10, the Linux IW).
	InitialWindowPkts float64
	// G is the DCTCP alpha EWMA gain (default 1/16).
	G float64
	// InitialAlpha is the starting congestion estimate (default 1).
	InitialAlpha float64
	// DeadlineFactor is the D2TCP imminence exponent d in penalty =
	// alpha^d/2, clamped to [0.5, 2]; 0 means neutral (1, plain DCTCP).
	DeadlineFactor float64
	// CapPkts clamps the effective window (the Guardrail proposal);
	// 0 means no clamp.
	CapPkts float64
	// TargetDelay is the Swift delay target (default 1.5x base RTT).
	TargetDelay sim.Time
	// AIPkts is the Swift additive increase per round (default 1).
	AIPkts float64
	// Beta is the Swift maximum fractional decrease per round (default 0.8).
	Beta float64
	// MinWindowPkts is the Swift fractional floor (default 0.01 packets,
	// matching cc.SwiftConfig's MSS/100).
	MinWindowPkts float64
}

// law is a run's reduced-form congestion-control law: the kind and the
// constants every controller of the run shares, stored once per run. One
// struct with a kind switch keeps the per-step hot path free of interface
// dispatch.
type law struct {
	kind Kind

	// DCTCP family: the alpha EWMA gain and the deadline exponent.
	g    float64
	dexp float64

	// Guardrail clamp (0 = none).
	capPkts float64

	// Swift.
	targetSec float64
	aiPkts    float64
	beta      float64
	minW      float64
}

// controller is one record's reduced-form congestion state under the
// run's law, which every method takes.
type controller struct {
	// w is the internal window in packets; window() applies floors/caps.
	w        float64
	ssthresh float64
	// alpha is the DCTCP family's congestion estimate.
	alpha   float64
	updates int64
}

func (cfg *CCConfig) fill(baseRTT sim.Time) {
	if cfg.InitialWindowPkts <= 0 {
		cfg.InitialWindowPkts = 10
	}
	if cfg.G <= 0 || cfg.G > 1 {
		cfg.G = 1.0 / 16.0
	}
	if cfg.InitialAlpha <= 0 || cfg.InitialAlpha > 1 {
		cfg.InitialAlpha = 1
	}
	if cfg.DeadlineFactor == 0 {
		cfg.DeadlineFactor = 1
	}
	if cfg.DeadlineFactor < 0.5 {
		cfg.DeadlineFactor = 0.5
	}
	if cfg.DeadlineFactor > 2 {
		cfg.DeadlineFactor = 2
	}
	if cfg.TargetDelay <= 0 {
		cfg.TargetDelay = baseRTT + baseRTT/2
	}
	if cfg.AIPkts <= 0 {
		cfg.AIPkts = 1
	}
	if cfg.Beta <= 0 || cfg.Beta >= 1 {
		cfg.Beta = 0.8
	}
	if cfg.MinWindowPkts <= 0 {
		cfg.MinWindowPkts = 0.01
	}
	if cfg.Name == "" {
		switch cfg.Kind {
		case KindReno:
			cfg.Name = "reno"
		case KindSwift:
			cfg.Name = "swift"
		default:
			cfg.Name = "dctcp"
		}
	}
}

func newLaw(cfg CCConfig) law {
	return law{
		kind:      cfg.Kind,
		g:         cfg.G,
		dexp:      cfg.DeadlineFactor,
		capPkts:   cfg.CapPkts,
		targetSec: float64(cfg.TargetDelay) / 1e9,
		aiPkts:    cfg.AIPkts,
		beta:      cfg.Beta,
		minW:      cfg.MinWindowPkts,
	}
}

func newController(cfg CCConfig) controller {
	return controller{
		w:        cfg.InitialWindowPkts,
		ssthresh: math.Inf(1),
		alpha:    cfg.InitialAlpha,
	}
}

// window returns the effective window in packets: window-based laws floor
// at one packet, Swift floors at its fractional minimum, and the Guardrail
// cap clamps everything.
func (c *controller) window(l *law) float64 {
	w := c.w
	if l.kind == KindSwift {
		if w < l.minW {
			w = l.minW
		}
	} else if w < 1 {
		w = 1
	}
	if l.capPkts > 0 && w > l.capPkts {
		w = l.capPkts
	}
	return w
}

// onMarkCut applies the at-most-once-per-round proportional decrease when a
// round first sees marked deliveries. Only the DCTCP family reacts to
// marks; Reno and Swift ignore ECN.
func (c *controller) onMarkCut(l *law) {
	if l.kind != KindDCTCP {
		return
	}
	c.w *= 1 - math.Pow(c.alpha, l.dexp)/2
	if c.w < 1 {
		c.w = 1
	}
	c.ssthresh = c.w
	c.updates++
}

// timeBasedRounds reports whether the law closes rounds on elapsed RTT
// (Swift's per-RTT AI/MD) instead of on delivered volume (the DCTCP
// family's one-window-of-data observation rounds).
func (l *law) timeBasedRounds() bool { return l.kind == KindSwift }

// onRoundEnd closes one observation round. delivered and marked are the
// round's delivered and ECN-marked volumes in packets; rttSec is the
// current RTT. Growth mirrors the packet implementations, which grow per
// unmarked ACK: the unmarked delivered volume drives slow start
// byte-for-byte and congestion avoidance at 1/w — so a round that only
// dribbled a fraction of a packet (e.g. the below-threshold drain tail of
// a burst, split across all flows) grows windows by that fraction, not by
// a full doubling.
func (c *controller) onRoundEnd(l *law, delivered, marked, rttSec float64) {
	switch l.kind {
	case KindSwift:
		if rttSec < l.targetSec {
			c.w += l.aiPkts
		} else {
			excess := (rttSec - l.targetSec) / rttSec
			factor := 1 - l.beta*excess
			if factor < 0.3 {
				factor = 0.3
			}
			c.w *= factor
		}
		if c.w < l.minW {
			c.w = l.minW
		}
	default:
		if delivered <= 0 {
			return
		}
		if marked > delivered {
			marked = delivered
		}
		if l.kind == KindDCTCP {
			c.alpha = (1-l.g)*c.alpha + l.g*(marked/delivered)
		}
		unmarked := delivered - marked
		if l.kind == KindReno {
			unmarked = delivered // Reno ignores marks
		}
		if unmarked > 0 {
			if c.w < c.ssthresh {
				c.w += unmarked
				if c.w > c.ssthresh {
					c.w = c.ssthresh
				}
			} else {
				c.w += unmarked / c.w
			}
		}
	}
	if l.capPkts > 0 && c.w > l.capPkts {
		c.w = l.capPkts
	}
	c.updates++
}

// onLoss is the fast-retransmit reaction: halve.
func (c *controller) onLoss(l *law) {
	if l.kind == KindSwift {
		c.w *= 0.5
		if c.w < l.minW {
			c.w = l.minW
		}
	} else {
		c.w /= 2
		if c.w < 1 {
			c.w = 1
		}
		c.ssthresh = c.w
	}
	c.updates++
}

// onTimeout collapses to the minimum window and restarts slow start.
func (c *controller) onTimeout(l *law) {
	if l.kind == KindSwift {
		c.w = l.minW
	} else {
		c.ssthresh = c.w / 2
		if c.ssthresh < 1 {
			c.ssthresh = 1
		}
		c.w = 1
	}
	c.updates++
}
