package netsim

import (
	"fmt"

	"incastlab/internal/sim"
)

// ClosConfig describes a two-tier leaf/spine fabric: Racks leaf switches
// with HostsPerRack hosts each, every leaf uplinked to every one of Spines
// spine switches. Cross-rack traffic hashes over the spine uplinks with
// deterministic seeded ECMP; each leaf's downlink ports can pool their
// packet memory in a per-ToR shared buffer. This is the environment the
// paper measures — aggregators and workers spread across racks behind a
// datacenter fabric — generalizing the single-bottleneck dumbbell of
// Section 4.
type ClosConfig struct {
	// PortConfig is the host links and every switch port; the shared
	// buffer, when configured, is per leaf and pools its downlink ports.
	PortConfig
	// Racks is the number of leaf (ToR) switches; at least 2.
	Racks int
	// HostsPerRack is the number of hosts under each leaf.
	HostsPerRack int
	// Spines is the number of spine switches every leaf uplinks to
	// (default 2).
	Spines int
	// SpineLinkBps is the per-uplink leaf-spine line rate (default
	// 100 Gbps). Rack oversubscription is
	// HostsPerRack*HostLinkBps / (Spines*SpineLinkBps).
	SpineLinkBps int64
	// SpinePropDelay is the one-way leaf-spine propagation delay. The
	// default keeps the cross-rack base RTT at the paper's ~30 us.
	SpinePropDelay sim.Time
	// ECMPSeed drives the flow-hash that places cross-rack flows on spine
	// uplinks. Same seed, same paths; different seeds reshuffle placement.
	ECMPSeed uint64
}

// DefaultClosConfig returns a fabric with the paper's per-port parameters
// (DefaultPortConfig), two spines at 100 Gbps per uplink, and a
// cross-rack base RTT of ~30 us (the leaf-spine propagation is half the
// dumbbell's core so the two fabric hops sum to the same path delay).
func DefaultClosConfig(racks, hostsPerRack int) ClosConfig {
	return ClosConfig{
		PortConfig:     DefaultPortConfig(),
		Racks:          racks,
		HostsPerRack:   hostsPerRack,
		Spines:         2,
		SpineLinkBps:   100 * Gbps,
		SpinePropDelay: 2250 * sim.Nanosecond,
	}
}

// Hosts returns the total host count.
func (c ClosConfig) Hosts() int { return c.Racks * c.HostsPerRack }

// RackOf returns the rack index of a host node ID.
func (c ClosConfig) RackOf(id NodeID) int { return int(id) / c.HostsPerRack }

// HostID returns the node ID of host slot within rack.
func (c ClosConfig) HostID(rack, slot int) NodeID {
	return NodeID(rack*c.HostsPerRack + slot)
}

// Oversubscription returns the rack uplink oversubscription factor:
// offered host bandwidth over aggregate uplink bandwidth.
func (c ClosConfig) Oversubscription() float64 {
	return float64(c.HostsPerRack) * float64(c.HostLinkBps) /
		(float64(c.Spines) * float64(c.SpineLinkBps))
}

// BaseRTT returns the no-queue round-trip time for a full-size data packet
// and its ACK between two hosts: across the fabric (crossRack true; host
// NIC, leaf uplink, spine downlink, leaf downlink) or under one leaf
// (crossRack false; host NIC, leaf downlink). Serialization terms round to
// the nearest nanosecond, matching DumbbellConfig.BaseRTT.
func (c ClosConfig) BaseRTT(crossRack bool) sim.Time {
	dataWire := MTU + EthernetOverhead
	ackWire := HeaderBytes + EthernetOverhead
	var rtt sim.Time
	// Host NIC out, leaf downlink in — both directions, data and ACK.
	rtt += 2 * SerializationDelayNearest(dataWire, c.HostLinkBps)
	rtt += 2 * SerializationDelayNearest(ackWire, c.HostLinkBps)
	rtt += 2 * 2 * c.HostPropDelay
	if crossRack {
		// Leaf->spine and spine->leaf, both directions.
		rtt += 2 * SerializationDelayNearest(dataWire, c.SpineLinkBps)
		rtt += 2 * SerializationDelayNearest(ackWire, c.SpineLinkBps)
		rtt += 2 * 2 * c.SpinePropDelay
	}
	return rtt
}

// BDPBytes returns the bandwidth-delay product of a host downlink over the
// cross-rack or the same-rack path, rounded to the nearest byte.
func (c ClosConfig) BDPBytes(crossRack bool) int { return c.PortConfig.BDPBytes(c.BaseRTT(crossRack)) }

// maxClosHosts bounds a fabric's host slots (Racks x HostsPerRack) at 16
// times the million-flow example's and maxClosUplinks its leaf-spine
// uplinks (Racks x Spines), so its tables stay buildable whatever a spec
// asks for: the fluid path set's class table, 1+Racks*Spines slots for
// each of up to Racks aggregators, stays at most 2^24+2^12 entries.
const maxClosHosts, maxClosUplinks = 1 << 24, 1 << 12

// Validate rejects configurations the builder would panic on, with
// actionable errors for the scenario layer.
func (c ClosConfig) Validate() error {
	if c.Racks < 2 {
		return fmt.Errorf("netsim: a Clos fabric needs at least 2 racks (got %d); use the dumbbell for one", c.Racks)
	}
	if c.HostsPerRack < 1 {
		return fmt.Errorf("netsim: a Clos fabric needs at least 1 host per rack (got %d)", c.HostsPerRack)
	}
	if c.HostsPerRack > maxClosHosts/c.Racks {
		return fmt.Errorf("netsim: a Clos fabric holds at most %d hosts (got %d racks x %d hosts/rack)",
			maxClosHosts, c.Racks, c.HostsPerRack)
	}
	if c.Spines < 1 {
		return fmt.Errorf("netsim: a Clos fabric needs at least 1 spine (got %d)", c.Spines)
	}
	if c.Spines > maxClosUplinks/c.Racks {
		return fmt.Errorf("netsim: a Clos fabric holds at most %d leaf-spine uplinks (got %d racks x %d spines)",
			maxClosUplinks, c.Racks, c.Spines)
	}
	if c.HostLinkBps <= 0 || c.SpineLinkBps <= 0 {
		return fmt.Errorf("netsim: Clos link rates must be positive (host %d bps, spine %d bps)",
			c.HostLinkBps, c.SpineLinkBps)
	}
	return nil
}

// Clos is the constructed fabric.
//
// Node IDs: host slot s of rack r is r*HostsPerRack+s (so hosts occupy
// 0..Racks*HostsPerRack-1), leaf r is Hosts()+r, spine s is
// Hosts()+Racks+s.
type Clos struct {
	Config ClosConfig
	Eng    *sim.Engine
	// Hosts is indexed by NodeID.
	Hosts  []*Host
	Leaves []*Switch
	Spines []*Switch
	// Shared holds each leaf's downlink buffer pool; entries are nil when
	// SharedBufferBytes is zero.
	Shared []*SharedBuffer
	// Pool recycles packets across the whole fabric.
	Pool *PacketPool

	// downlinks[id] is the leaf->host port serving host id.
	downlinks []*Link
	// uplinks[rack][spine] is the leaf->spine port.
	uplinks [][]*Link
	// spineDown[spine][rack] is the spine->leaf port.
	spineDown [][]*Link

	// links retains every link for audit enumeration.
	links []*Link
}

// Downlink returns the leaf port link serving host id — the per-host
// bottleneck an incast study samples.
func (c *Clos) Downlink(id NodeID) *Link { return c.downlinks[id] }

// DownlinkQueue returns host id's leaf port queue.
func (c *Clos) DownlinkQueue(id NodeID) *Queue { return c.downlinks[id].Queue() }

// Uplinks returns rack's leaf->spine ports, indexed by spine.
func (c *Clos) Uplinks(rack int) []*Link { return c.uplinks[rack] }

// SpineDownlink returns the spine->leaf port from spine s toward rack r —
// where ECMP hash collisions become visible as queueing in a cross-rack
// incast.
func (c *Clos) SpineDownlink(s, r int) *Link { return c.spineDown[s][r] }

// AllLinks returns every link in the fabric.
func (c *Clos) AllLinks() []*Link { return c.links }

// UplinkIndex predicts which spine uplink a cross-rack flow's data path
// takes out of its source leaf — the same hash Switch.Receive applies — so
// tests and collision analyses can enumerate path assignments without
// running traffic.
func (c *Clos) UplinkIndex(flow FlowID, src, dst NodeID) int {
	return ECMPIndex(c.Config.ECMPSeed, flow, src, dst, c.Config.Spines)
}

// NewClos wires up the fabric on eng. A nil pool gets a fresh one; an
// injected pool lets sweep runners carry a warm free list across runs.
func NewClos(eng *sim.Engine, cfg ClosConfig, pool *PacketPool) *Clos {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if pool == nil {
		pool = NewPacketPool()
	}
	n := cfg.Hosts()
	c := &Clos{
		Config:    cfg,
		Eng:       eng,
		Pool:      pool,
		Hosts:     make([]*Host, n),
		Leaves:    make([]*Switch, cfg.Racks),
		Spines:    make([]*Switch, cfg.Spines),
		Shared:    make([]*SharedBuffer, cfg.Racks),
		downlinks: make([]*Link, n),
		uplinks:   make([][]*Link, cfg.Racks),
	}

	newLink := func(lc LinkConfig) *Link {
		l := NewLink(eng, lc)
		l.SetPool(c.Pool)
		c.links = append(c.links, l)
		return l
	}
	for s := 0; s < cfg.Spines; s++ {
		sw := NewSwitch(NodeID(n+cfg.Racks+s), fmt.Sprintf("spine-%d", s))
		sw.SetPool(c.Pool)
		c.Spines[s] = sw
	}

	for r := 0; r < cfg.Racks; r++ {
		leaf := NewSwitch(NodeID(n+r), fmt.Sprintf("leaf-%d", r))
		leaf.SetPool(c.Pool)
		c.Leaves[r] = leaf
		c.Shared[r] = cfg.sharedBuffer()

		// Hosts under this leaf: NIC uplink (unbounded, as in the
		// dumbbell: host-side drops would mask the ToR behavior under
		// study) and the leaf downlink port, pooled in the per-ToR shared
		// buffer when one is configured.
		for s := 0; s < cfg.HostsPerRack; s++ {
			id := cfg.HostID(r, s)
			h := NewHost(eng, id, fmt.Sprintf("host-%d-%d", r, s))
			h.SetPool(c.Pool)
			h.SetUplink(newLink(LinkConfig{
				Name:         fmt.Sprintf("host-%d-%d->leaf-%d", r, s, r),
				BandwidthBps: cfg.HostLinkBps,
				PropDelay:    cfg.HostPropDelay,
				Queue:        NewQueue(QueueConfig{Name: fmt.Sprintf("host-%d-%d-nic", r, s)}),
				Dst:          leaf,
			}))
			down := newLink(LinkConfig{
				Name:         fmt.Sprintf("leaf-%d->host-%d-%d", r, r, s),
				BandwidthBps: cfg.HostLinkBps,
				PropDelay:    cfg.HostPropDelay,
				Queue:        cfg.queue(fmt.Sprintf("leaf-%d-port-%d", r, s), c.Shared[r]),
				Dst:          h,
			})
			leaf.AddRoute(id, down)
			c.Hosts[id] = h
			c.downlinks[id] = down
		}

		// Uplinks to every spine; cross-rack destinations (no static route
		// on the leaf) hash over them.
		ups := make([]*Link, cfg.Spines)
		for s := 0; s < cfg.Spines; s++ {
			up := newLink(LinkConfig{
				Name:         fmt.Sprintf("leaf-%d->spine-%d", r, s),
				BandwidthBps: cfg.SpineLinkBps,
				PropDelay:    cfg.SpinePropDelay,
				Queue:        cfg.queue(fmt.Sprintf("leaf-%d-uplink-%d", r, s), nil),
				Dst:          c.Spines[s],
			})
			ups[s] = up
		}
		c.uplinks[r] = ups
		leaf.SetECMPGroup(cfg.ECMPSeed, ups)
	}

	// Spine downlinks: one port per (spine, rack), routing every host of
	// that rack.
	c.spineDown = make([][]*Link, cfg.Spines)
	for s, sw := range c.Spines {
		c.spineDown[s] = make([]*Link, cfg.Racks)
		for r := 0; r < cfg.Racks; r++ {
			down := newLink(LinkConfig{
				Name:         fmt.Sprintf("spine-%d->leaf-%d", s, r),
				BandwidthBps: cfg.SpineLinkBps,
				PropDelay:    cfg.SpinePropDelay,
				Queue:        cfg.queue(fmt.Sprintf("spine-%d-port-%d", s, r), nil),
				Dst:          c.Leaves[r],
			})
			for slot := 0; slot < cfg.HostsPerRack; slot++ {
				sw.AddRoute(cfg.HostID(r, slot), down)
			}
			c.spineDown[s][r] = down
		}
	}
	return c
}
