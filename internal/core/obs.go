package core

import (
	"strconv"
	"time"

	"incastlab/internal/netsim"
	"incastlab/internal/obs"
	"incastlab/internal/sim"
	"incastlab/internal/tcp"
	"incastlab/internal/workload"
)

// Bucket layouts for the run-level histograms, fixed at package level so
// every run of every experiment shares one layout per metric name
// (mismatched bounds on one metric identity panic at merge time).
var (
	// cwndBuckets covers final congestion windows from one MSS (the
	// degenerate point) up through multi-megabyte windows.
	cwndBuckets = obs.ExpBuckets(float64(netsim.MSS), 2, 12)
	// alphaBuckets covers DCTCP's congestion estimate in [0, 1].
	alphaBuckets = obs.LinearBuckets(0.05, 0.05, 20)
	// bctBuckets covers burst completion times from 1 ms to ~8 s.
	bctBuckets = obs.ExpBuckets(1, 2, 14)
)

// backendFamilies names the metric families only one backend publishes:
// the packet engine's free list, calendar-queue scheduler, packet pool and
// notification counter, and the fluid solver's cohort telemetry. Every
// other family the harvest publishes comes from both backends, for the
// same ports, over the run's whole lifetime. ci.sh reads this table (one
// `"name": Fidelity...,` line per family) to fail a snapshot that names
// the other backend's families.
var backendFamilies = map[string]string{
	"sim_freelist_hits":             FidelityPacket,
	"sim_freelist_misses":           FidelityPacket,
	"sim_sched_resizes":             FidelityPacket,
	"sim_sched_overflow_migrations": FidelityPacket,
	"sim_sched_now_fastpath":        FidelityPacket,
	"net_pool_gets":                 FidelityPacket,
	"net_pool_puts":                 FidelityPacket,
	"net_pool_hits":                 FidelityPacket,
	"net_pool_misses":               FidelityPacket,
	"net_pool_outstanding_end":      FidelityPacket,
	"tcp_incast_notifies":           FidelityPacket,
	"flowsim_cohorts":               FidelityFlow,
	"flowsim_cohort_splits":         FidelityFlow,
	"flowsim_cohort_peak_weight":    FidelityFlow,
}

// runTotals is one finished run as the harvest reads it, filled by the
// backend that ran it (fabric.totals, flowTotals). Every value covers the
// run's whole lifetime, the discarded first burst included.
type runTotals struct {
	// Engine work: events (fluid steps) and the virtual time reached.
	scheduled, executed uint64
	simNow              sim.Time
	// ports are the harvested ports, bottleneck first.
	ports []harvestPort
	// tcp sums the flows' transport counters; bcts holds every burst's
	// completion time.
	tcp  tcp.SenderStats
	bcts []sim.Time
	// cc observes every flow's final window (bytes) and DCTCP-family
	// alpha, and returns the run's window updates.
	cc func(cwnd, alpha *obs.Histogram) (updates int64)
	// backend publishes the families backendFamilies declares for the
	// backend that ran.
	backend func(c *obs.Collector)
}

// harvestPort is one port of the simulated fabric: its label, its queue's
// statistics, and its link's transmit totals at line rate bps.
type harvestPort struct {
	label              string
	queue              netsim.QueueStats
	txPackets, txBytes int64
	bps                int64
}

// startWall starts the wall clock of a run that reports into reg: wall
// time is only measured when it will be reported, and the simulation
// itself never reads it.
func startWall(reg *obs.Registry) time.Time {
	if reg == nil {
		return time.Time{}
	}
	return time.Now()
}

// harvest publishes one finished run's telemetry into cfg.Metrics, for
// either backend. Everything is read after the run from counters the
// simulation maintains anyway, so instrumented runs are bit-identical to
// uninstrumented ones; the collector merge is commutative, so snapshots
// are identical across serial and parallel schedules too.
func harvest(cfg *SimConfig, wallStart time.Time, r runTotals) {
	experiment := cfg.Experiment
	if experiment == "" {
		experiment = "adhoc"
	}
	labels := []string{"experiment", experiment, "flows", strconv.Itoa(cfg.Flows)}
	if cfg.Clos != nil {
		placement := cfg.Placement
		if placement == "" {
			placement = workload.PlacementCrossRack
		}
		labels = append(labels, "placement", placement)
	}
	c := cfg.Metrics.Collector(labels...)
	defer c.Close()

	c.Counter("runs").Inc()
	c.Counter("sim_events_scheduled").Add(int64(r.scheduled))
	c.Counter("sim_events_executed").Add(int64(r.executed))
	c.Counter("sim_time_ns").Add(int64(r.simNow))
	r.backend(c)

	// Utilization is taken over the workload's nominal active window
	// (bursts x interval), not the run's end: the packet deadline adds
	// idle seconds of timeout-recovery headroom, and a fluid run ends as
	// soon as its last burst drains.
	active := (sim.Time(cfg.Bursts) * cfg.Interval).Seconds()
	for _, p := range r.ports {
		st := p.queue
		c.Counter("net_queue_enqueued_packets", "port", p.label).Add(st.EnqueuedPackets)
		c.Counter("net_queue_enqueued_bytes", "port", p.label).Add(st.EnqueuedBytes)
		c.Counter("net_queue_dropped_packets", "port", p.label).Add(st.DroppedPackets)
		c.Counter("net_queue_dropped_bytes", "port", p.label).Add(st.DroppedBytes)
		c.Counter("net_queue_marked_packets", "port", p.label).Add(st.MarkedPackets)
		c.Gauge("net_queue_peak_packets", obs.MergeMax, "port", p.label).Set(float64(st.PeakPackets))
		c.Gauge("net_queue_peak_bytes", obs.MergeMax, "port", p.label).Set(float64(st.PeakBytes))
		c.Counter("net_link_tx_packets", "port", p.label).Add(p.txPackets)
		c.Counter("net_link_tx_bytes", "port", p.label).Add(p.txBytes)
		util := float64(p.txBytes) * 8 / (float64(p.bps) * active)
		c.Gauge("net_link_utilization", obs.MergeMax, "port", p.label).Set(util)
	}

	t := r.tcp
	c.Counter("tcp_sent_packets").Add(t.SentPackets)
	c.Counter("tcp_sent_bytes").Add(t.SentBytes)
	c.Counter("tcp_retransmit_packets").Add(t.RetransmitPackets)
	c.Counter("tcp_fast_retransmits").Add(t.FastRetransmits)
	c.Counter("tcp_timeouts").Add(t.Timeouts)
	c.Counter("tcp_acks").Add(t.Acks)
	c.Counter("tcp_ece_acks").Add(t.ECEAcks)
	updates := r.cc(c.Histogram("cc_final_cwnd_bytes", cwndBuckets), c.Histogram("cc_final_alpha", alphaBuckets))
	c.Counter("cc_cwnd_updates").Add(updates)

	bct := c.Histogram("burst_bct_ms", bctBuckets)
	for _, b := range r.bcts {
		bct.Observe(b.Milliseconds())
	}

	// Wall-clock duration lives in the wall_ domain: excluded from the
	// deterministic snapshot subset, summed across runs.
	if !wallStart.IsZero() {
		c.Gauge("wall_run_seconds", obs.MergeSum).Set(time.Since(wallStart).Seconds())
	}
}

// harvestEngineRun records just the engine counters and wall time, for
// experiments whose topology is not an incast fabric (rack contention,
// partition/aggregate). labels are extra base-label pairs.
func harvestEngineRun(reg *obs.Registry, experiment string, eng *sim.Engine,
	wallStart time.Time, labels ...string) {
	if reg == nil {
		return
	}
	c := reg.Collector(append([]string{"experiment", experiment}, labels...)...)
	defer c.Close()
	c.Counter("runs").Inc()
	c.Counter("sim_events_scheduled").Add(int64(eng.Scheduled()))
	c.Counter("sim_events_executed").Add(int64(eng.Executed()))
	c.Counter("sim_time_ns").Add(int64(eng.Now()))
	harvestEngine(c, eng)
	if !wallStart.IsZero() {
		c.Gauge("wall_run_seconds", obs.MergeSum).Set(time.Since(wallStart).Seconds())
	}
}

// harvestEngine records the packet engine's own counters: free-list hit
// rate and calendar-queue internals. The scheduler counters are functions
// of the virtual schedule alone (bucket loads and walk lengths), so they
// are as deterministic as the event order itself. Instrumented runs always
// use fresh engines (see simpool.go), so no state leaks in from pooling.
func harvestEngine(c *obs.Collector, eng *sim.Engine) {
	hits, misses := eng.FreeListStats()
	c.Counter("sim_freelist_hits").Add(int64(hits))
	c.Counter("sim_freelist_misses").Add(int64(misses))
	st := eng.SchedulerStats()
	c.Counter("sim_sched_resizes").Add(int64(st.Resizes))
	c.Counter("sim_sched_overflow_migrations").Add(int64(st.OverflowMigrations))
	c.Counter("sim_sched_now_fastpath").Add(int64(st.NowFastPath))
}

// harvestPool records the packet pool's recycling counters. Outstanding
// should be zero after a drained run; exporting it as a max-gauge makes a
// leak visible across a whole sweep.
func harvestPool(c *obs.Collector, pp *netsim.PacketPool) {
	ps := pp.Stats()
	c.Counter("net_pool_gets").Add(ps.Gets)
	c.Counter("net_pool_puts").Add(ps.Puts)
	c.Counter("net_pool_hits").Add(ps.Hits)
	c.Counter("net_pool_misses").Add(ps.Misses)
	c.Gauge("net_pool_outstanding_end", obs.MergeMax).Set(float64(pp.Outstanding()))
}
