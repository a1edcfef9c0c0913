package core

import (
	"incastlab/internal/cc"
	"incastlab/internal/netsim"
	"incastlab/internal/sim"
)

// NotificationConfig enables the explicit incast-notification mechanism on
// a packet-level run: a switch-side detector (netsim.IncastDetector) on the
// bottleneck — or, on a Clos fabric with MinPorts > 0, coordinated per-leaf
// uplink detectors — plus a Pulser reaction (cc.Pulser) wrapped around
// every flow's congestion-control algorithm. Zero fields take defaults.
type NotificationConfig struct {
	// Detector thresholds; see netsim.IncastDetectorConfig.
	Window        sim.Time
	SlopePackets  int
	BurstArrivals int
	Cooldown      sim.Time

	// Backoff is the sender's multiplicative reaction factor in (0, 1);
	// HoldAcks is how long the backoff holds before releasing. See
	// cc.PulserConfig.
	Backoff  float64
	HoldAcks int

	// MinPorts > 0 selects distributed in-fabric detection on a Clos:
	// every leaf coordinates detectors across its spine-facing uplink
	// ports and declares incast when MinPorts of them trip within
	// CoordWindow, notifying every same-rack flow seen within FlowHorizon.
	// Zero (or a dumbbell topology) uses a single detector on the
	// bottleneck queue.
	MinPorts    int
	CoordWindow sim.Time
	FlowHorizon sim.Time
}

func (n *NotificationConfig) detector() netsim.IncastDetectorConfig {
	return netsim.IncastDetectorConfig{
		Window:        n.Window,
		SlopePackets:  n.SlopePackets,
		BurstArrivals: n.BurstArrivals,
		Cooldown:      n.Cooldown,
	}
}

// pulsed wraps alg so every flow's algorithm carries the Pulser reaction.
func (n *NotificationConfig) pulsed(alg func(flow int) cc.Algorithm) func(flow int) cc.Algorithm {
	pulser := cc.PulserConfig{Backoff: n.Backoff, HoldAcks: n.HoldAcks}
	return func(flow int) cc.Algorithm { return cc.NewPulser(alg(flow), pulser) }
}

// detectorReadout reads a run's switch-side detection state for the
// measurement probe: the cumulative firing count (windowed in the result)
// and the time of the first firing (zero until one happens — onset
// detection latency when the workload's first burst starts at t=0).
type detectorReadout func() (fired int64, first sim.Time)

// attachDetector installs one switch-side detector on queue q, whose
// switch sw notifies every recent flow over its own routes, and returns
// its readout.
func attachDetector(sw *netsim.Switch, q *netsim.Queue, pool *netsim.PacketPool, nc *NotificationConfig) detectorReadout {
	d, _ := netsim.AttachIncastNotification(sw, q, pool, nc.detector())
	return func() (int64, sim.Time) {
		st := d.Stats()
		if st.Fired == 0 {
			return 0, 0
		}
		return st.Fired, st.FirstFired
	}
}

// attachLeafDetection installs distributed detection on a Clos fabric:
// every leaf coordinates detectors on its spine-facing uplinks. The
// readout sums the leaves' firings and takes the earliest first firing.
func attachLeafDetection(net *netsim.Clos, nc *NotificationConfig) detectorReadout {
	coords := netsim.AttachClosIncastDetection(net, netsim.ClosDetectorConfig{
		Detector:    nc.detector(),
		MinPorts:    nc.MinPorts,
		CoordWindow: nc.CoordWindow,
		FlowHorizon: nc.FlowHorizon,
	})
	return func() (fired int64, first sim.Time) {
		for _, l := range coords {
			st := l.Stats()
			fired += st.LeafFirings
			if st.LeafFirings > 0 && (first == 0 || st.FirstFired < first) {
				first = st.FirstFired
			}
		}
		return fired, first
	}
}
