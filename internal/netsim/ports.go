package netsim

import "incastlab/internal/sim"

// PortConfig is the per-port settings the dumbbell and the Clos fabric
// share: the host link, the bound and ECN marking of every switch port
// queue, and the ToR shared buffer that host-facing ports pool into. Both
// topology configs embed it, so both builders, and both fidelities' path
// sets, build their ports from one place.
type PortConfig struct {
	// HostLinkBps is the host-ToR line rate (default 10 Gbps).
	HostLinkBps int64
	// HostPropDelay is the one-way host-ToR propagation delay.
	HostPropDelay sim.Time
	// QueueCapacityPackets and QueueCapacityBytes bound every switch port
	// queue (defaults: 1333 packets / 2 MB, the paper's deep queue).
	QueueCapacityPackets int
	QueueCapacityBytes   int
	// ECNThresholdPackets is the switch marking threshold K (default 65).
	ECNThresholdPackets int
	// ECNAverageWeight, when positive, switches marking to a RED-style
	// EWMA of occupancy (ablation only; the paper marks instantaneously).
	ECNAverageWeight float64
	// SharedBufferBytes, if positive, pools a ToR's host-facing port
	// queues into a shared memory of this size with DT factor
	// SharedBufferAlpha (0 means 1).
	SharedBufferBytes int
	SharedBufferAlpha float64
}

// DefaultPortConfig returns the paper's per-port parameters: 10 Gbps host
// links, 2 MB (1333-packet) port queues, ECN threshold 65 packets, no
// shared-buffer contention.
func DefaultPortConfig() PortConfig {
	return PortConfig{
		HostLinkBps:          10 * Gbps,
		HostPropDelay:        4570 * sim.Nanosecond,
		QueueCapacityPackets: 1333,
		QueueCapacityBytes:   2 * 1000 * 1000,
		ECNThresholdPackets:  65,
	}
}

// BDPBytes returns the bandwidth-delay product of a host link over a path
// of base RTT rtt, rounded to the nearest byte.
func (p PortConfig) BDPBytes(rtt sim.Time) int {
	return int((int64(rtt)*p.HostLinkBps + 4_000_000_000) / 8_000_000_000)
}

// sharedBuffer returns a fresh ToR shared buffer, or nil when none is
// configured.
func (p PortConfig) sharedBuffer() *SharedBuffer {
	if p.SharedBufferBytes <= 0 {
		return nil
	}
	alpha := p.SharedBufferAlpha
	if alpha <= 0 {
		alpha = 1
	}
	return NewSharedBuffer(p.SharedBufferBytes, alpha)
}

// queue returns a switch port queue named name that draws on shared, the
// port's ToR shared buffer (nil for none).
func (p PortConfig) queue(name string, shared *SharedBuffer) *Queue {
	return NewQueue(QueueConfig{
		Name:                name,
		CapacityBytes:       p.QueueCapacityBytes,
		CapacityPackets:     p.QueueCapacityPackets,
		ECNThresholdPackets: p.ECNThresholdPackets,
		ECNAverageWeight:    p.ECNAverageWeight,
		Shared:              shared,
	})
}

// fluidQueue returns the fluid backend's view of the switch port named
// name on a link of rateBps.
func (p PortConfig) fluidQueue(name string, rateBps int64) FluidQueue {
	return FluidQueue{
		Name:                name,
		RateBps:             rateBps,
		CapacityPackets:     p.QueueCapacityPackets,
		ECNThresholdPackets: p.ECNThresholdPackets,
	}
}
