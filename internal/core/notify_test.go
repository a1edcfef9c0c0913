package core

import (
	"runtime"
	"testing"

	"incastlab/internal/netsim"
	"incastlab/internal/scenario"
	"incastlab/internal/sim"
	"incastlab/internal/sweep"
	"incastlab/internal/workload"
)

// TestDumbbellDetectorFiresWithinOneRTT pins the mechanism's latency claim:
// the bottleneck-side detector sees the onset of the first burst no later
// than the start jitter (100 us) plus one base RTT, i.e. before a mark-echo
// round trip could have informed any sender.
func TestDumbbellDetectorFiresWithinOneRTT(t *testing.T) {
	res := RunIncastSim(SimConfig{
		Flows: 80, BurstDuration: sim.Millisecond, Bursts: 1,
		Interval: 5 * sim.Millisecond, Seed: 1,
		Notification: &NotificationConfig{},
	})
	if res.DetectorFirings == 0 || res.IncastNotifies == 0 {
		t.Fatalf("mechanism inert: firings=%d notifies=%d",
			res.DetectorFirings, res.IncastNotifies)
	}
	bound := 100*sim.Microsecond + netsim.DefaultDumbbellConfig().BaseRTT()
	if res.DetectorFirstFire == 0 || res.DetectorFirstFire > bound {
		t.Fatalf("first firing at %v, want within jitter + one RTT (%v)",
			res.DetectorFirstFire, bound)
	}
	if res.AlgName != "dctcp+pulser" {
		t.Fatalf("alg = %q, want the pulser wrap", res.AlgName)
	}
}

// TestAuditedNotificationMatchesUnaudited extends the checked-mode promise
// to notification runs: detector firings, notification packets, and the
// Pulser reaction all survive the invariant audit bit-identically. The
// audit itself also proves the zero-payload notification packets respect
// conservation and pool hygiene.
func TestAuditedNotificationMatchesUnaudited(t *testing.T) {
	run := func(audited bool) *SimResult {
		return RunIncastSim(SimConfig{
			Flows: 80, BurstDuration: sim.Millisecond, Bursts: 2,
			Interval: 5 * sim.Millisecond, Seed: 42, Audit: audited,
			Notification: &NotificationConfig{Backoff: 0.25},
		})
	}
	plain, audited := run(false), run(true)
	if plain.MeanBCT != audited.MeanBCT || plain.MaxBCT != audited.MaxBCT ||
		plain.Drops != audited.Drops || plain.Timeouts != audited.Timeouts ||
		plain.IncastNotifies != audited.IncastNotifies ||
		plain.DetectorFirings != audited.DetectorFirings ||
		plain.DetectorFirstFire != audited.DetectorFirstFire {
		t.Fatalf("audit changed a notification run:\nplain:   %+v\naudited: %+v", plain, audited)
	}
}

// TestAuditedClosDistributedDetection runs leaf-coordinated detection on a
// small fabric in checked mode: the cross-leaf notification path (leaf ->
// same-rack hosts) must leave every conservation and pool invariant intact,
// and the run must match its unaudited twin.
func TestAuditedClosDistributedDetection(t *testing.T) {
	run := func(audited bool) *SimResult {
		clos := netsim.DefaultClosConfig(3, 30)
		return RunIncastSim(SimConfig{
			Flows: 40, BurstDuration: sim.Millisecond, Bursts: 1,
			Interval: 5 * sim.Millisecond, Seed: 2, Audit: audited,
			Clos: &clos, Placement: workload.PlacementCrossRack,
			Notification: &NotificationConfig{
				MinPorts: 2, Window: 20 * sim.Microsecond, BurstArrivals: 10,
			},
		})
	}
	plain, audited := run(false), run(true)
	if plain.DetectorFirings == 0 || plain.IncastNotifies == 0 {
		t.Fatalf("leaf coordination inert: firings=%d notifies=%d",
			plain.DetectorFirings, plain.IncastNotifies)
	}
	if plain.MeanBCT != audited.MeanBCT || plain.Drops != audited.Drops ||
		plain.Timeouts != audited.Timeouts ||
		plain.IncastNotifies != audited.IncastNotifies ||
		plain.DetectorFirings != audited.DetectorFirings ||
		plain.DetectorFirstFire != audited.DetectorFirstFire {
		t.Fatalf("audit changed a Clos detection run:\nplain:   %+v\naudited: %+v", plain, audited)
	}
}

// notifyTestSpec sweeps the notification toggle at two incast degrees: the
// smallest scenario that exercises detector state, Pulser wrapping, and the
// "notification" axis through the declarative path.
func notifyTestSpec() scenario.Spec {
	return scenario.Spec{
		Name: "notify_cache_test",
		// A single burst, so the cold-start onset (the only one that trips
		// the detector at these degrees) falls inside the measured window.
		Workload:     scenario.Workload{BurstMS: 2, QuickBursts: 1},
		Notification: &scenario.Notification{Backoff: 0.5},
		Sweep: scenario.Sweep{
			Axis:   "notification",
			Values: scenario.Flags(false, true),
			Labels: []string{"off", "on"},
			Flows:  []int{20, 60},
		},
	}
}

// TestNotificationScenarioDeterministic: a notification sweep must be
// byte-identical between the serial and parallel runners, and a cache
// resume must reproduce the cold run exactly. Detector and Pulser state is
// per-run; nothing may leak through the pooled engines or the row cache.
func TestNotificationScenarioDeterministic(t *testing.T) {
	spec := notifyTestSpec()
	serial := tableCSV(t, mustScenario(Options{Seed: 1, Quick: true, Workers: 1}, spec))
	parallel := tableCSV(t, mustScenario(Options{Seed: 1, Quick: true, Workers: runtime.GOMAXPROCS(0)}, spec))
	if serial != parallel {
		t.Error("notification sweep differs between serial and parallel runners")
	}

	cache, err := sweep.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Seed: 1, Quick: true, Workers: 1}
	cold, stats, err := RunScenarioCached(opt, spec, cache, Shard{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Computed != stats.Rows {
		t.Fatalf("cold stats = %s, want all computed", stats)
	}
	if got := tableCSV(t, cold); got != serial {
		t.Error("cached cold run differs from RunScenario")
	}
	warm, stats, err := RunScenarioCached(opt, spec, cache, Shard{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hits != stats.Rows {
		t.Fatalf("warm stats = %s, want all hits", stats)
	}
	if got := tableCSV(t, warm); got != serial {
		t.Error("cache-resumed run differs from the cold run")
	}
}

// TestNotificationTogglesBehavior: the "notification" axis must actually
// change the simulation — the off row runs bare DCTCP (no firings, no
// notifies), the on row wraps the Pulser and reports detector activity.
func TestNotificationTogglesBehavior(t *testing.T) {
	opt := Options{Seed: 1, Quick: true}
	spec := notifyTestSpec()
	_, labels, cfgs, err := CompileScenario(opt, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 4 {
		t.Fatalf("compiled %d rows, want 4", len(cfgs))
	}
	for i, cfg := range cfgs {
		on := labels[i][1] == "on"
		if (cfg.Notification != nil) != on {
			t.Errorf("row %v: Notification=%v, want armed=%v", labels[i], cfg.Notification, on)
		}
	}
	res := RunIncastSim(cfgs[3]) // 60 flows, notification on
	if res.DetectorFirings == 0 || res.IncastNotifies == 0 {
		t.Errorf("on row shows no mechanism activity: %+v", res)
	}
	off := RunIncastSim(cfgs[2]) // 60 flows, notification off
	if off.DetectorFirings != 0 || off.IncastNotifies != 0 || off.DetectorFirstFire != 0 {
		t.Errorf("off row leaked detector state: %+v", off)
	}
}
