package core

import (
	"fmt"
	"strings"

	"incastlab/internal/sim"
	"incastlab/internal/trace"
)

func init() {
	register(230, Experiment{
		Name: "ext_pulser_modes", Kind: KindExtension,
		PaperRef: "Section 4.2 boundary + Pulser (explicit incast notification)",
		Run:      func(o Options) Result { return PulserModes(o) },
	})
}

// pulserSchemes are the congestion-control baselines the notification
// mechanism is layered onto: the deployed algorithm the paper diagnoses,
// its Section 5.1 guardrail variant, and a delay-based alternative.
var pulserSchemes = []string{"dctcp", "dctcp+guardrail", "swift"}

// PulserModes sweeps the Fig-5 fan-in axis across {DCTCP, guardrail,
// Swift}, each with and without explicit incast notification, asking the
// ROADMAP item 3 question: does a switch that detects incast onset and
// signals multiplicative backoff within an RTT erase the Mode-3 timeout
// regime? Each row reports the mode classification, BCT tail, and
// measured-window timeout/notification counts.
func PulserModes(opt Options) *TableResult {
	flows := []int{80, 100, 500, 1000, 1400}
	bursts := 6
	if opt.Quick {
		flows = []int{80, 500, 1400}
		bursts = 3
	}

	type row struct {
		flows  int
		scheme string
		notify bool
	}
	var rows []row
	var cfgs []SimConfig
	for _, n := range flows {
		for _, scheme := range pulserSchemes {
			for _, notify := range []bool{false, true} {
				// Notification wraps the scheme inside the runner, so
				// the factory is the bare baseline.
				cfg := SimConfig{
					Flows:         n,
					BurstDuration: 15 * sim.Millisecond,
					Bursts:        bursts,
				}
				cfg.Alg = ccByName(opt, scheme, nil, n, rowPath(&cfg, n, nil))
				if notify {
					cfg.Notification = &NotificationConfig{}
				}
				rows = append(rows, row{flows: n, scheme: scheme, notify: notify})
				cfgs = append(cfgs, cfg)
			}
		}
	}
	results := opt.runRows("pulser_modes", cfgs)

	t := trace.NewTable("flows", "scheme", "notify", "mode", "queue_busy_avg_pkts",
		"mean_bct_ms", "max_bct_ms", "timeouts", "drops", "detector_fired", "notifies")
	for i, r := range rows {
		m := results[i]
		t.AddRow(fmt.Sprint(r.flows), r.scheme, onOff(r.notify), m.Mode(),
			trace.Float(m.BusyAvgQueue()), trace.Float(m.MeanBCT.Milliseconds()),
			trace.Float(m.MaxBCT.Milliseconds()), fmt.Sprint(m.Timeouts),
			fmt.Sprint(m.Drops), fmt.Sprint(m.DetectorFirings), fmt.Sprint(m.IncastNotifies))
	}

	var b strings.Builder
	b.WriteString(section("Extension: explicit incast notification across the mode boundary"))
	b.WriteString(t.Text())
	b.WriteString("\n")
	for _, scheme := range pulserSchemes {
		var m3off, m3on []int
		var toOff, toOn int64
		for i, r := range rows {
			if r.scheme != scheme {
				continue
			}
			if r.notify {
				toOn += results[i].Timeouts
				if strings.HasPrefix(results[i].Mode(), "3") {
					m3on = append(m3on, r.flows)
				}
			} else {
				toOff += results[i].Timeouts
				if strings.HasPrefix(results[i].Mode(), "3") {
					m3off = append(m3off, r.flows)
				}
			}
		}
		switch {
		case len(m3off) == 0:
			fmt.Fprintf(&b, "%s: no Mode-3 rows on this grid even without notification (timeouts %d -> %d with it)\n",
				scheme, toOff, toOn)
		case len(m3on) == 0:
			fmt.Fprintf(&b, "%s: notification eliminates the Mode-3 regime (was at N=%s; timeouts %d -> %d)\n",
				scheme, intList(m3off), toOff, toOn)
		default:
			fmt.Fprintf(&b, "%s: Mode 3 persists at N=%s (was N=%s); notification cuts timeouts %d -> %d but cannot shed load the fabric cannot carry\n",
				scheme, intList(m3on), intList(m3off), toOff, toOn)
		}
	}

	return &TableResult{
		ExpName:     "ext_pulser_modes",
		Artifacts:   []Artifact{{File: "ext_pulser_modes.csv", Table: t}},
		SummaryText: b.String(),
	}
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

func intList(ns []int) string {
	parts := make([]string, len(ns))
	for i, n := range ns {
		parts[i] = fmt.Sprint(n)
	}
	return strings.Join(parts, ",")
}
