package core

import (
	"fmt"
	"strings"

	"incastlab/internal/netsim"
	"incastlab/internal/sim"
	"incastlab/internal/trace"
)

func init() {
	register(210, Experiment{
		Name: "ext_mode_boundary", Kind: KindExtension, PaperRef: "Section 4.2 (mode boundaries)",
		Run: func(o Options) Result { return ModeBoundary(o) },
	})
}

// ModeBoundaryResult sweeps the incast degree and classifies each run into
// the paper's three operating modes, locating the two regime boundaries
// empirically. The paper's own arithmetic predicts them exactly:
//
//   - healthy -> degenerate at N = K + BDP (~90 flows here: beyond that,
//     N windows of 1 MSS keep the queue above the marking threshold), and
//   - degenerate -> timeouts at N = capacity + BDP (~1358: beyond that,
//     even 1-MSS windows overflow the queue in steady state).
type ModeBoundaryResult struct {
	TableResult
	Flows []int
	Modes []string
	// Runs holds the underlying results, aligned with Flows.
	Runs []*SimResult
	// HealthyToDegenerate and DegenerateToTimeout are the first swept
	// degrees at which the classification changes (0 if never observed).
	HealthyToDegenerate, DegenerateToTimeout int
}

// ModeBoundary runs the sweep. The grid is dense around the predicted
// boundaries and sparse in between.
func ModeBoundary(opt Options) *ModeBoundaryResult {
	flows := []int{40, 60, 80, 85, 90, 95, 110, 200, 800, 1300, 1360, 1380, 1420}
	bursts := 6
	if opt.Quick {
		flows = []int{60, 95, 1420}
		bursts = 3
	}
	cfgs := make([]SimConfig, len(flows))
	for i, n := range flows {
		cfgs[i] = SimConfig{Flows: n, BurstDuration: 15 * sim.Millisecond, Bursts: bursts}
	}
	// The runs are independent; only the boundary classification below
	// carries state across grid points, so it stays a serial pass.
	r := &ModeBoundaryResult{Runs: opt.runRows("mode_boundary", cfgs)}
	prev := ""
	for i, n := range flows {
		label := r.Runs[i].Mode()
		r.Flows = append(r.Flows, n)
		r.Modes = append(r.Modes, label)
		if prev != "" && label != prev {
			switch {
			case strings.HasPrefix(label, "2") && r.HealthyToDegenerate == 0:
				r.HealthyToDegenerate = n
			case strings.HasPrefix(label, "3") && r.DegenerateToTimeout == 0:
				r.DegenerateToTimeout = n
			}
		}
		prev = label
	}

	t := trace.NewTable("flows", "mode", "queue_busy_avg_pkts", "frac_below_k",
		"mean_bct_ms", "timeouts")
	for i, n := range r.Flows {
		m := r.Runs[i]
		t.AddRow(fmt.Sprint(n), r.Modes[i], trace.Float(m.BusyAvgQueue()),
			trace.Float(m.FracBelowK), trace.Float(m.MeanBCT.Milliseconds()),
			fmt.Sprint(m.Timeouts))
	}
	r.TableResult = TableResult{
		ExpName:     "ext_mode_boundary",
		Artifacts:   []Artifact{{File: "ext_mode_boundary.csv", Table: t}},
		SummaryText: r.renderSummary(t),
	}
	return r
}

func (r *ModeBoundaryResult) renderSummary(t *trace.Table) string {
	var b strings.Builder
	b.WriteString(section("Extension: locating the operating-mode boundaries"))
	b.WriteString(t.Text())
	net := netsim.DefaultDumbbellConfig(1)
	bdpPkts := net.BDPBytes() / netsim.MTU
	fmt.Fprintf(&b, "\npredicted: healthy->degenerate at K+BDP = %d+%d = %d flows; measured at %d\n",
		net.ECNThresholdPackets, bdpPkts, net.ECNThresholdPackets+bdpPkts, r.HealthyToDegenerate)
	fmt.Fprintf(&b, "predicted: degenerate->timeouts at capacity+BDP = %d+%d = %d flows; measured at %d\n",
		net.QueueCapacityPackets, bdpPkts, net.QueueCapacityPackets+bdpPkts, r.DegenerateToTimeout)
	return b.String()
}
