package core

import (
	"bytes"
	"math"
	"testing"

	"incastlab/internal/netsim"
	"incastlab/internal/obs"
	"incastlab/internal/sim"
	"incastlab/internal/workload"
)

// TestInstrumentedSimMatchesUninstrumented verifies the observability
// layer's core promise: attaching a metrics registry changes nothing about
// the simulation (the mirror of the audit gate in audit_test.go).
func TestInstrumentedSimMatchesUninstrumented(t *testing.T) {
	run := func(reg *obs.Registry) *SimResult {
		return RunIncastSim(SimConfig{
			Flows: 30, BurstDuration: sim.Millisecond, Bursts: 3,
			Interval: 5 * sim.Millisecond, Seed: 42,
			Metrics: reg, Experiment: "test",
		})
	}
	plain, instrumented := run(nil), run(obs.NewRegistry())
	if plain.MeanBCT != instrumented.MeanBCT || plain.MaxBCT != instrumented.MaxBCT ||
		plain.MaxQueue != instrumented.MaxQueue || plain.Drops != instrumented.Drops ||
		plain.Marks != instrumented.Marks || plain.Timeouts != instrumented.Timeouts ||
		plain.SentPackets != instrumented.SentPackets {
		t.Fatalf("metrics changed results:\nplain:        %+v\ninstrumented: %+v",
			plain, instrumented)
	}
}

// deterministicSnapshotJSON runs the quick Fig-5 sweep with the given
// worker count and renders the deterministic (sim-domain) subset of the
// harvested metrics.
func deterministicSnapshotJSON(t *testing.T, workers int) []byte {
	t.Helper()
	reg := obs.NewRegistry()
	Fig5Modes(Options{Seed: 7, Quick: true, Workers: workers, Metrics: reg})
	var buf bytes.Buffer
	if err := reg.Snapshot().Deterministic().WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// TestMetricsSnapshotSerialMatchesParallel verifies the registry's merge
// commutativity end to end: the deterministic snapshot of a parallel sweep
// is byte-identical to the serial one.
func TestMetricsSnapshotSerialMatchesParallel(t *testing.T) {
	serial := deterministicSnapshotJSON(t, 1)
	for _, workers := range []int{2, 0} {
		parallel := deterministicSnapshotJSON(t, workers)
		if !bytes.Equal(serial, parallel) {
			t.Fatalf("snapshot with workers=%d differs from serial:\nserial:\n%s\nparallel:\n%s",
				workers, serial, parallel)
		}
	}
	// Sanity: the snapshot actually contains the run telemetry.
	snap, err := obs.ParseSnapshot(serial)
	if err != nil {
		t.Fatalf("ParseSnapshot: %v", err)
	}
	want := map[string]bool{
		"runs": false, "sim_events_executed": false, "sim_time_ns": false,
		"net_queue_enqueued_packets": false, "net_pool_gets": false,
		"tcp_sent_packets": false, "cc_cwnd_updates": false,
	}
	for _, c := range snap.Counters {
		if _, ok := want[c.Name]; ok {
			want[c.Name] = true
			if c.Labels["experiment"] != "fig5" {
				t.Errorf("counter %s labeled %v, want experiment=fig5", c.Name, c.Labels)
			}
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("snapshot is missing counter %q", name)
		}
	}
}

// TestHarvestCoversEngineAndHistograms pins the per-run harvest content on
// single ad-hoc runs at both fidelities, on the dumbbell and on a
// cross-rack Clos: event counts match the engine's own accounting, the
// final-cwnd/alpha histograms observe every flow, and every value covers
// the run's whole lifetime — burst_bct_ms observes every burst, the
// bottleneck's transmit count on a drop-free run is the whole demand to
// the packet, and its utilization is taken over the nominal bursts x
// interval window.
func TestHarvestCoversEngineAndHistograms(t *testing.T) {
	clos := netsim.DefaultClosConfig(4, 40)
	const flows, bursts = 30, 3
	const interval = 5 * sim.Millisecond
	for _, fab := range []struct {
		name string
		clos *netsim.ClosConfig
	}{{"dumbbell", nil}, {"clos cross-rack", &clos}} {
		for _, fidelity := range []string{FidelityPacket, FidelityFlow} {
			t.Run(fab.name+"/"+fidelity, func(t *testing.T) {
				reg := obs.NewRegistry()
				RunIncastSim(SimConfig{
					Flows: flows, BurstDuration: sim.Millisecond, Bursts: bursts,
					Interval: interval, Seed: 42, Metrics: reg,
					Fidelity: fidelity, Clos: fab.clos,
				})
				snap := reg.Snapshot()

				counters := map[string]int64{}
				bottleneck := map[string]int64{}
				for _, c := range snap.Counters {
					counters[c.Name] += c.Value
					if c.Labels["port"] == "bottleneck" {
						bottleneck[c.Name] = c.Value
					}
				}
				if counters["runs"] != 1 {
					t.Fatalf("runs = %d, want 1", counters["runs"])
				}
				if counters["sim_events_executed"] <= 0 ||
					counters["sim_events_scheduled"] < counters["sim_events_executed"] {
					t.Fatalf("implausible event counts: scheduled=%d executed=%d",
						counters["sim_events_scheduled"], counters["sim_events_executed"])
				}
				if counters["sim_time_ns"] <= 0 {
					t.Fatalf("sim_time_ns = %d, want > 0", counters["sim_time_ns"])
				}
				if got := counters["net_pool_gets"] - counters["net_pool_puts"]; got != 0 {
					t.Fatalf("pool gets-puts = %d after a drained run, want 0", got)
				}

				hists := map[string]int64{}
				for _, h := range snap.Histograms {
					hists[h.Name] += h.Count
				}
				if hists["cc_final_cwnd_bytes"] != flows {
					t.Errorf("cc_final_cwnd_bytes observed %d flows, want %d",
						hists["cc_final_cwnd_bytes"], flows)
				}
				if hists["cc_final_alpha"] != flows {
					t.Errorf("cc_final_alpha observed %d flows, want %d (DCTCP default)",
						hists["cc_final_alpha"], flows)
				}
				if hists["burst_bct_ms"] != bursts {
					t.Errorf("burst_bct_ms observed %d bursts, want %d", hists["burst_bct_ms"], bursts)
				}

				if counters["net_queue_dropped_packets"] != 0 || counters["tcp_retransmit_packets"] != 0 {
					t.Fatalf("want a drop-free run: %d drops, %d retransmissions",
						counters["net_queue_dropped_packets"], counters["tcp_retransmit_packets"])
				}
				segs := workload.BytesPerFlowFor(10*netsim.Gbps, sim.Millisecond, flows) / netsim.MSS
				if want := int64(bursts * flows * segs); bottleneck["net_link_tx_packets"] != want {
					t.Errorf("bottleneck sent %d packets, want the whole demand %d",
						bottleneck["net_link_tx_packets"], want)
				}
				var util float64
				for _, g := range snap.Gauges {
					if g.Name == "net_link_utilization" && g.Labels["port"] == "bottleneck" {
						util = g.Value
					}
				}
				window := (bursts * interval).Seconds()
				if want := float64(bottleneck["net_link_tx_bytes"]) * 8 / (float64(10*netsim.Gbps) * window); math.Abs(util-want) > 1e-12 {
					t.Errorf("bottleneck utilization %v, want %v over the %v s nominal window", util, want, window)
				}
			})
		}
	}
}

// TestSchedulerCountersPinned pins the calendar queue's published counters
// on real schedules: fig5's three quick rows and ablation_guardrail's two
// series at seed 1. Bucket width never changes dispatch order, so no CSV
// or golden can see a window advance that widens one bucket early or late,
// or an event that takes another path into the window; these counters do.
func TestSchedulerCountersPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two quick experiments")
	}
	type key struct{ experiment, flows, name string }
	want := map[key]int64{
		{"fig5", "80", "sim_sched_resizes"}:                            0,
		{"fig5", "500", "sim_sched_resizes"}:                           1,
		{"fig5", "1400", "sim_sched_resizes"}:                          2,
		{"fig5", "80", "sim_sched_overflow_migrations"}:                841,
		{"fig5", "500", "sim_sched_overflow_migrations"}:               2468,
		{"fig5", "1400", "sim_sched_overflow_migrations"}:              6569,
		{"fig5", "80", "sim_events_executed"}:                          615321,
		{"fig5", "500", "sim_events_executed"}:                         611516,
		{"fig5", "1400", "sim_events_executed"}:                        638337,
		{"fig5", "80", "sim_sched_now_fastpath"}:                       0,
		{"ablation_guardrail", "80", "sim_sched_now_fastpath"}:         65,
		{"ablation_guardrail", "500", "sim_sched_now_fastpath"}:        1745,
		{"ablation_guardrail", "80", "sim_sched_resizes"}:              0,
		{"ablation_guardrail", "500", "sim_sched_resizes"}:             1,
		{"ablation_guardrail", "80", "sim_sched_overflow_migrations"}:  2286,
		{"ablation_guardrail", "500", "sim_sched_overflow_migrations"}: 5173,
	}
	reg := obs.NewRegistry()
	for _, name := range []string{"fig5", "ablation_guardrail"} {
		e, ok := LookupExperiment(name)
		if !ok {
			t.Fatalf("experiment %s not registered", name)
		}
		e.Run(Options{Seed: 1, Quick: true, Workers: 2, Metrics: reg})
	}
	got := map[key]int64{}
	for _, c := range reg.Snapshot().Counters {
		k := key{c.Labels["experiment"], c.Labels["flows"], c.Name}
		if _, ok := want[k]; ok {
			got[k] = c.Value
		}
	}
	for k, v := range want {
		if g, ok := got[k]; !ok {
			t.Errorf("%s %s flows=%s: not published", k.experiment, k.name, k.flows)
		} else if g != v {
			t.Errorf("%s %s flows=%s = %d, want %d", k.experiment, k.name, k.flows, g, v)
		}
	}
}
