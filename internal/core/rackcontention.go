package core

import (
	"fmt"
	"slices"

	"incastlab/internal/audit"
	"incastlab/internal/cc"
	"incastlab/internal/flowsim"
	"incastlab/internal/netsim"
	"incastlab/internal/sim"
	"incastlab/internal/tcp"
	"incastlab/internal/trace"
	"incastlab/internal/workload"
)

func init() {
	register(200, Experiment{
		Name: "ext_rack_contention", Kind: KindExtension, PaperRef: "Section 3.4 (rack-level contention)",
		Run: func(o Options) Result { return RackContention(o) },
	})
}

// RackContentionResult realizes the paper's Section 3.4 claim inside the
// packet simulator: "simultaneous burst events to other hosts on the same
// rack (i.e., rack-level contention) can consume shared switch memory and
// likely exacerbates a subset of incast bursts". A 500-flow incast that a
// port's dynamic-threshold share of the buffer absorbs when alone (the
// standing queue is N - BDP = 475 packets against a solo DT limit of 666)
// starts dropping — and timing out — once an identical incast hits the
// neighboring port of the same ToR, because the two ports' DT limits
// shrink to ~444 packets each.
type RackContentionResult struct {
	TableResult
	// Solo and Contended summarize the victim group's measured bursts
	// (burst 0 discarded).
	Solo, Contended rackGroupStats
}

// rackGroupStats fills MeanBCT, MaxBCT, Timeouts and Drops of the shared
// measured-window summary, and the queue's peak.
type rackGroupStats struct {
	flowsim.Measured
	PeakPkts int
}

// RackContention runs the experiment: the victim incast alone, then with a
// neighbor incast of the same shape to the rack's second receiver.
func RackContention(opt Options) *RackContentionResult {
	flows := 500
	bursts := 5
	if opt.Quick {
		flows = 400
		bursts = 3
	}
	groups := runParallel(opt, 2, func(i int) rackGroupStats {
		return runRackIncast(opt, flows, bursts, i == 1)
	})
	r := &RackContentionResult{Solo: groups[0], Contended: groups[1]}

	t := trace.NewTable("scenario", "mean_bct_ms", "max_bct_ms", "timeouts", "drops", "peak_queue_pkts")
	add := func(name string, s rackGroupStats) {
		t.AddRow(name, trace.Float(s.MeanBCT.Milliseconds()), trace.Float(s.MaxBCT.Milliseconds()),
			fmt.Sprint(s.Timeouts), fmt.Sprint(s.Drops), fmt.Sprint(s.PeakPkts))
	}
	add("victim_alone", r.Solo)
	add("victim_with_neighbor_incast", r.Contended)
	r.TableResult = TableResult{
		ExpName:   "ext_rack_contention",
		Artifacts: []Artifact{{File: "ext_rack_contention.csv", Table: t}},
		SummaryText: section("Extension: rack-level shared-buffer contention (packet-level)") + t.Text() +
			"\nThe same incast that the dynamic-threshold share of the buffer absorbs when\nalone loses packets once a neighbor port bursts simultaneously — Section 3.4.\n",
	}
	return r
}

// runRackIncast drives the victim group (flows senders to receiver 0) and,
// optionally, an identical neighbor group to receiver 1 from the same
// sender hosts, over one shared-buffer ToR.
func runRackIncast(opt Options, flows, bursts int, contended bool) rackGroupStats {
	const (
		duration = 15 * sim.Millisecond
		interval = 250 * sim.Millisecond
	)
	wallStart := startWall(opt.Metrics)
	eng := sim.NewEngine()
	cfg := netsim.DefaultDumbbellConfig()
	cfg.SharedBufferBytes, cfg.SharedBufferAlpha = 2*1000*1000, 1
	rack := netsim.NewDumbbell(eng, cfg, flows, 2, nil)

	// Flow f runs from sender f mod flows to receiver f/flows: the victim's
	// flows, then the neighbor's from the same sender hosts.
	groups := 1
	if contended {
		groups = 2
	}
	senders, _ := workload.Connect(eng, groups*flows,
		func(f int) *netsim.Host { return rack.Senders[f%flows] },
		func(f int) *netsim.Host { return rack.Receivers[f/flows] },
		func(int) cc.Algorithm { return cc.NewDCTCP(cc.DefaultDCTCPConfig()) },
		tcp.DefaultSenderConfig(), tcp.DefaultReceiverConfig())
	group := func(g int, seed uint64) *workload.Group {
		return workload.NewGroup(eng, senders[g*flows:(g+1)*flows], workload.GroupConfig{
			BytesPerFlow: workload.BytesPerFlowFor(cfg.HostLinkBps, duration, flows),
			Bursts:       bursts,
			Interval:     interval,
			JitterMax:    100 * sim.Microsecond,
			Seed:         seed,
		})
	}
	victim := group(0, opt.seed())
	var neighbor *workload.Group
	if contended {
		neighbor = group(1, opt.seed()+7)
	}

	var auditor *audit.Auditor
	if opt.Audit {
		auditor = startAudit(eng, func(a *audit.Auditor) {
			a.WatchNetwork(rack.AllLinks(), slices.Concat(rack.Receivers, rack.Senders), rack.Pool)
		}, senders)
	}

	// Snapshot counters, and restart the queue's high watermark, after the
	// discarded first burst.
	var baseTimeouts, baseDrops int64
	q := rack.BottleneckQueue()
	eng.Schedule(sim.Time(flowsim.FirstMeasured(bursts))*interval, func() {
		baseTimeouts = victim.AggregateSenderStats().Timeouts
		baseDrops = q.Stats().DroppedPackets
		q.TakeWatermark()
	})

	eng.RunUntil(sim.Time(bursts)*interval + 20*sim.Second)
	if !victim.Done() || (neighbor != nil && !neighbor.Done()) {
		panic("core: rack contention experiment did not complete")
	}
	if auditor != nil {
		finishAudit(auditor, "rack contention experiment")
	}

	var st rackGroupStats
	st.SummarizeBCTs(victim.BCTs())
	st.Timeouts = victim.AggregateSenderStats().Timeouts - baseTimeouts
	st.Drops = q.Stats().DroppedPackets - baseDrops
	st.PeakPkts = q.TakeWatermark()

	label := "solo"
	if contended {
		label = "contended"
	}
	harvestEngineRun(opt.Metrics, "ext_rack_contention", eng, wallStart,
		"scenario", label)
	return st
}
