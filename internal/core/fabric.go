package core

import (
	"strconv"

	"incastlab/internal/audit"
	"incastlab/internal/cc"
	"incastlab/internal/netsim"
	"incastlab/internal/obs"
	"incastlab/internal/sim"
	"incastlab/internal/workload"
)

// fabric is one packet-level incast topology as RunIncastSim's packet
// runner sees it, built once per run by newFabric: the runner builds,
// probes, audits and harvests through it alone, so the dumbbell and the
// Clos share one run sequence.
type fabric struct {
	// flows are the incast's senders, receivers and bursts.
	flows *workload.Flows
	// aggregator receives through ports[0], the bottleneck port under
	// study; the other ports are harvested beside it.
	aggregator *netsim.Host
	ports      []fabricPort
	pool       *netsim.PacketPool
	// watch registers every link, every host and the packet pool with an
	// auditor; notify installs switch-side incast detection.
	watch  func(*audit.Auditor)
	notify func(*NotificationConfig) detectorReadout
}

// fabricPort is one harvested port: its metric label and its link.
type fabricPort struct {
	label string
	link  *netsim.Link
}

// spinePort labels the port through which spine s feeds the aggregator's
// rack, where ECMP collisions appear as queueing.
func spinePort(s int) string { return "spine-" + strconv.Itoa(s) + "-in" }

// newFabric builds the run's topology, then the incast's flows over its
// hosts, every flow's algorithm wrapped in the Pulser reaction when
// notification is on. On the dumbbell the bottleneck is the receiver
// ToR's downlink and the inter-ToR uplink is harvested beside it. On a
// Clos it is aggregator 0's leaf downlink, beside every spine's downlink
// into that rack; detection is per-leaf coordinated when MinPorts > 0,
// otherwise one detector on the bottleneck notifying via its leaf, whose
// ECMP fallback routes cross-rack.
func newFabric(eng *sim.Engine, cfg *SimConfig, pool *netsim.PacketPool) *fabric {
	var f *fabric
	n := cfg.Flows
	var src, dst func(flow int) *netsim.Host
	if cfg.Clos == nil {
		net := netsim.NewDumbbell(eng, cfg.Net, n, 1, pool)
		src = func(i int) *netsim.Host { return net.Senders[i] }
		dst = func(int) *netsim.Host { return net.Receiver }
		f = &fabric{
			aggregator: net.Receiver, pool: net.Pool,
			ports: []fabricPort{{"bottleneck", net.Bottleneck}, {"uplink", net.Uplink}},
			watch: func(a *audit.Auditor) {
				a.WatchNetwork(net.AllLinks(), append([]*netsim.Host{net.Receiver}, net.Senders...), net.Pool)
			},
			notify: func(nc *NotificationConfig) detectorReadout {
				return attachDetector(net.ReceiverToR, net.BottleneckQueue(), net.Pool, nc)
			},
		}
	} else {
		srcs, dsts, err := workload.ClosFlowEndpoints(*cfg.Clos, cfg.Flows, cfg.Aggregators, cfg.Placement)
		if err != nil {
			panic(err.Error())
		}
		net := netsim.NewClos(eng, *cfg.Clos, pool)
		n = len(srcs)
		src = func(i int) *netsim.Host { return net.Hosts[srcs[i]] }
		dst = func(i int) *netsim.Host { return net.Hosts[dsts[i]] }
		f = &fabric{
			aggregator: net.Hosts[0], pool: net.Pool,
			ports: []fabricPort{{"bottleneck", net.Downlink(0)}},
			watch: func(a *audit.Auditor) { a.WatchNetwork(net.AllLinks(), net.Hosts, net.Pool) },
			notify: func(nc *NotificationConfig) detectorReadout {
				if nc.MinPorts > 0 {
					return attachLeafDetection(net, nc)
				}
				return attachDetector(net.Leaves[0], net.DownlinkQueue(0), net.Pool, nc)
			},
		}
		for s := range net.Config.Spines {
			f.ports = append(f.ports, fabricPort{spinePort(s), net.SpineDownlink(s, 0)})
		}
	}
	alg := cfg.Alg
	if cfg.Notification != nil {
		alg = cfg.Notification.pulsed(alg)
	}
	senders, receivers := workload.Connect(eng, n, src, dst, alg, cfg.Sender, cfg.Receiver)
	f.flows = &workload.Flows{
		Group: workload.NewGroup(eng, senders, workload.GroupConfig{
			BytesPerFlow: workload.BytesPerFlowFor(cfg.ports().HostLinkBps, cfg.BurstDuration, cfg.Flows),
			Bursts:       cfg.Bursts,
			Interval:     cfg.Interval,
			JitterMax:    cfg.JitterMax,
			Seed:         cfg.Seed,
			Admitter:     cfg.Admitter,
		}),
		Receivers: receivers,
	}
	return f
}

// totals reads the finished run for the harvest: the engine, the harvested
// ports, and every flow's transport and congestion-control state.
func (f *fabric) totals(eng *sim.Engine) runTotals {
	r := runTotals{
		scheduled: eng.Scheduled(),
		executed:  eng.Executed(),
		simNow:    eng.Now(),
		tcp:       f.flows.AggregateSenderStats(),
		bcts:      f.flows.BCTs(),
	}
	for _, p := range f.ports {
		r.ports = append(r.ports, harvestPort{
			label: p.label, queue: p.link.Queue().Stats(),
			txPackets: p.link.TxPackets(), txBytes: p.link.TxBytes(), bps: p.link.BandwidthBps(),
		})
	}
	r.cc = func(cwnd, alpha *obs.Histogram) (updates int64) {
		for _, s := range f.flows.Senders() {
			alg := s.Algorithm()
			if uc, ok := alg.(cc.UpdateCounter); ok {
				updates += uc.CwndUpdates()
			}
			if insp, ok := alg.(cc.Inspectable); ok {
				p := insp.Probe()
				cwnd.Observe(float64(p.CwndBytes))
				if p.HasAlpha {
					alpha.Observe(p.Alpha)
				}
			}
		}
		return updates
	}
	r.backend = func(c *obs.Collector) {
		harvestEngine(c, eng)
		harvestPool(c, f.pool)
		c.Counter("tcp_incast_notifies").Add(r.tcp.IncastNotifies)
	}
	return r
}
