package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"incastlab/internal/cc"
	"incastlab/internal/netsim"
	"incastlab/internal/obs"
	"incastlab/internal/scenario"
	"incastlab/internal/sim"
	"incastlab/internal/trace"
)

// TestAblationSpecsContract: the ten built-in ablations are valid scenario
// specs, registered under their own names as ablations, and survive a JSON
// round trip unchanged (they are data, so they must be expressible as the
// files cmd/incastsim -scenario accepts).
func TestAblationSpecsContract(t *testing.T) {
	specs := AblationSpecs()
	if len(specs) != 10 {
		t.Fatalf("AblationSpecs returned %d specs, want 10", len(specs))
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
			continue
		}
		e, ok := LookupExperiment(s.Name)
		if !ok {
			t.Errorf("spec %q is not a registered experiment", s.Name)
			continue
		}
		if e.Kind != KindAblation {
			t.Errorf("%s: registered as %q, want %q", s.Name, e.Kind, KindAblation)
		}
		first, err := json.Marshal(s)
		if err != nil {
			t.Errorf("%s: marshal: %v", s.Name, err)
			continue
		}
		parsed, err := scenario.Parse(first)
		if err != nil {
			t.Errorf("%s: parse own JSON: %v", s.Name, err)
			continue
		}
		second, err := json.Marshal(parsed)
		if err != nil {
			t.Errorf("%s: re-marshal: %v", s.Name, err)
			continue
		}
		if string(first) != string(second) {
			t.Errorf("%s: JSON round trip is lossy:\n%s\n%s", s.Name, first, second)
		}
	}
}

// TestCompileAblationG pins the g-sweep lowering: fixed 80-flow incast, one
// config per gain, default labels rendered like the result table renders
// floats, quick/full burst counts.
func TestCompileAblationG(t *testing.T) {
	spec := AblationSpecs()[0]
	if spec.Name != "ablation_g" {
		t.Fatalf("AblationSpecs()[0] = %q, want ablation_g", spec.Name)
	}
	header, labels, cfgs, err := CompileScenario(Options{Seed: 1, Quick: true}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(header) != 1 || header[0] != "g" {
		t.Errorf("header = %v, want [g]", header)
	}
	if len(cfgs) != 4 {
		t.Fatalf("%d configs, want 4", len(cfgs))
	}
	for i, cfg := range cfgs {
		if cfg.Flows != 80 {
			t.Errorf("row %d: Flows = %d, want 80", i, cfg.Flows)
		}
		if cfg.Bursts != 4 {
			t.Errorf("row %d: quick Bursts = %d, want 4", i, cfg.Bursts)
		}
		if cfg.BurstDuration != 15*sim.Millisecond {
			t.Errorf("row %d: BurstDuration = %v, want 15ms", i, cfg.BurstDuration)
		}
		if cfg.Net != netsim.DefaultDumbbellConfig() {
			t.Errorf("row %d: Net overridden without a topology in the spec", i)
		}
		if cfg.Alg == nil {
			t.Errorf("row %d: g sweep must override the algorithm factory", i)
		}
		g, _ := spec.Sweep.Values[i].Number()
		if want := trace.Float(g); labels[i][0] != want {
			t.Errorf("row %d: label %q, want %q", i, labels[i][0], want)
		}
	}
	_, _, full, err := CompileScenario(Options{Seed: 1}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if full[0].Bursts != 11 {
		t.Errorf("full Bursts = %d, want 11", full[0].Bursts)
	}
}

// TestCompileSharedBufferAxis pins the one axis that gates the topology per
// row: the dedicated row runs the default dumbbell and no external
// contention; the shared row gets the pooled buffer plus the spec's
// contention bytes.
func TestCompileSharedBufferAxis(t *testing.T) {
	var spec scenario.Spec
	for _, s := range AblationSpecs() {
		if s.Name == "ablation_shared_buffer" {
			spec = s
		}
	}
	header, labels, cfgs, err := CompileScenario(Options{Seed: 1}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if header[0] != "buffer" {
		t.Errorf("header = %v, want [buffer]", header)
	}
	if len(cfgs) != 2 {
		t.Fatalf("%d configs, want 2", len(cfgs))
	}
	if labels[0][0] != "dedicated_2MB" || labels[1][0] != "shared_2MB_contended" {
		t.Errorf("labels = %v", labels)
	}
	if cfgs[0].Net != netsim.DefaultDumbbellConfig() || cfgs[0].ExternalBufferBytes != 0 {
		t.Errorf("dedicated row: Net/contention leaked in: %+v", cfgs[0].Net)
	}
	if cfgs[1].Net.SharedBufferBytes != 2_000_000 || cfgs[1].Net.SharedBufferAlpha != 1 {
		t.Errorf("shared row: buffer = %d bytes alpha %v, want 2000000/1",
			cfgs[1].Net.SharedBufferBytes, cfgs[1].Net.SharedBufferAlpha)
	}
	if cfgs[1].ExternalBufferBytes != 700_000 {
		t.Errorf("shared row: ExternalBufferBytes = %d, want 700000", cfgs[1].ExternalBufferBytes)
	}
}

// TestCompileCrossedSweep pins the flows-crossed enumeration used by the
// guardrail and receiver-window ablations: degrees outermost, one row per
// (degree, value), a leading flows column.
func TestCompileCrossedSweep(t *testing.T) {
	var spec scenario.Spec
	for _, s := range AblationSpecs() {
		if s.Name == "ablation_guardrail" {
			spec = s
		}
	}
	header, labels, cfgs, err := CompileScenario(Options{Seed: 1}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(header) != 2 || header[0] != "flows" || header[1] != "scheme" {
		t.Errorf("header = %v, want [flows scheme]", header)
	}
	wantFlows := []int{80, 80, 80, 500, 500, 500}
	if len(cfgs) != len(wantFlows) {
		t.Fatalf("%d configs, want %d", len(cfgs), len(wantFlows))
	}
	for i, cfg := range cfgs {
		if cfg.Flows != wantFlows[i] {
			t.Errorf("row %d: Flows = %d, want %d", i, cfg.Flows, wantFlows[i])
		}
	}
	// Row layout per degree: plain dctcp, guardrail, wave64.
	for base := 0; base < 6; base += 3 {
		if cfgs[base].Alg != nil || cfgs[base].Admitter != nil {
			t.Errorf("row %d (dctcp): want engine defaults", base)
		}
		if cfgs[base+1].Alg == nil {
			t.Errorf("row %d (guardrail): want a clamped algorithm factory", base+1)
		}
		if cfgs[base+2].Admitter == nil {
			t.Errorf("row %d (wave64): want a wave admitter", base+2)
		}
	}
	if labels[0][1] != "dctcp" || labels[1][1] != "dctcp+guardrail" || labels[2][1] != "dctcp+wave64" {
		t.Errorf("scheme labels = %v", labels)
	}
}

// TestCompileTransportAxes pins the delayed-ACK and min-RTO lowerings.
func TestCompileTransportAxes(t *testing.T) {
	byName := map[string]scenario.Spec{}
	for _, s := range AblationSpecs() {
		byName[s.Name] = s
	}

	_, _, acks, err := CompileScenario(Options{Seed: 1}, byName["ablation_delayed_acks"])
	if err != nil {
		t.Fatal(err)
	}
	if acks[0].Receiver.DelayedAcks {
		t.Error("immediate row: DelayedAcks set")
	}
	if !acks[1].Receiver.DelayedAcks || acks[1].Receiver.AckEvery != 2 {
		t.Errorf("delayed row: DelayedAcks=%v AckEvery=%d, want true/2",
			acks[1].Receiver.DelayedAcks, acks[1].Receiver.AckEvery)
	}

	_, _, rto, err := CompileScenario(Options{Seed: 1}, byName["ablation_min_rto"])
	if err != nil {
		t.Fatal(err)
	}
	want := []sim.Time{10 * sim.Millisecond, 50 * sim.Millisecond, 200 * sim.Millisecond}
	for i, cfg := range rto {
		if cfg.Sender.MinRTO != want[i] {
			t.Errorf("row %d: MinRTO = %v, want %v", i, cfg.Sender.MinRTO, want[i])
		}
		if cfg.Flows != 1400 {
			t.Errorf("row %d: Flows = %d, want 1400", i, cfg.Flows)
		}
	}
}

// TestCompileClosPathSizesSwiftAndGuardrail: on a fabric row, Swift's
// base RTT and target delay and the guardrail's cap come from the row's
// own path (the placement's base RTT and the host link's BDP over it), not
// from the dumbbell the row would otherwise have run on.
func TestCompileClosPathSizesSwiftAndGuardrail(t *testing.T) {
	compile := func(placement, body string) []SimConfig {
		t.Helper()
		spec, err := scenario.Parse([]byte(fmt.Sprintf(`{"name": "clos_path",
			"topology": {"clos": {"racks": 4, "hosts_per_rack": 100, "placement": %q}}, %s}`, placement, body)))
		if err != nil {
			t.Fatal(err)
		}
		_, _, cfgs, err := CompileScenario(Options{Seed: 1}, spec)
		if err != nil {
			t.Fatal(err)
		}
		return cfgs
	}
	ecnBytes := netsim.DefaultPortConfig().ECNThresholdPackets * netsim.MTU
	for _, tc := range []struct {
		placement string
		rtt       sim.Time
		bdp       int
	}{
		{"cross-rack", 30122 * sim.Nanosecond, 37653},
		{"same-rack", 20864 * sim.Nanosecond, 26080},
	} {
		swift := compile(tc.placement, `"cc": {"algorithm": "swift"}, "sweep": {"axis": "flows", "values": [80]}`)
		sc := swift[0].Alg(0).(*cc.Swift).Config()
		if sc.BaseRTT != tc.rtt || sc.TargetDelay != tc.rtt+tc.rtt/2 {
			t.Errorf("%s: Swift base RTT %v, target %v; want %v, %v", tc.placement, sc.BaseRTT, sc.TargetDelay, tc.rtt, tc.rtt+tc.rtt/2)
		}
		guard := compile(tc.placement, `"workload": {"flows": 80}, "sweep": {"axis": "scheme", "values": ["dctcp+guardrail"]}`)
		g := guard[0].Alg(0).(*cc.Guardrail)
		if g.Cap() <= 0 {
			t.Errorf("%s: guardrail compiled without a predicted degree", tc.placement)
		}
		// The cap for a known degree shows the BDP the clamp was sized from.
		g.Predict(80)
		if got, want := g.Cap(), cc.FairShareCap(tc.bdp, ecnBytes, 80); got != want {
			t.Errorf("%s: guardrail cap %d B at 80 flows, want %d B (from a %d B BDP)", tc.placement, got, want, tc.bdp)
		}
	}
}

// TestCompileClosTakesTheDumbbellPorts: a clos block lifts each row onto
// the fabric with exactly the ports the same spec compiles to without it,
// the topology overrides and the row's port axis value included.
func TestCompileClosTakesTheDumbbellPorts(t *testing.T) {
	compile := func(clos, sweep string) []SimConfig {
		t.Helper()
		spec, err := scenario.Parse([]byte(fmt.Sprintf(`{"name": "ports", "workload": {"flows": 40},
			"topology": {"host_link_gbps": 25, "queue_packets": 500, "ecn_threshold_pkts": 30,
				"shared_buffer_bytes": 1000000, "shared_buffer_alpha": 0.5%s},
			"sweep": %s}`, clos, sweep)))
		if err != nil {
			t.Fatal(err)
		}
		_, _, cfgs, err := CompileScenario(Options{Seed: 1}, spec)
		if err != nil {
			t.Fatal(err)
		}
		return cfgs
	}
	for _, sweep := range []string{
		`{"axis": "ecn_threshold_pkts", "values": [20, 200]}`,
		`{"axis": "marking_ewma", "values": [0, 0.25]}`,
		`{"axis": "shared_buffer", "values": [false, true]}`,
	} {
		dumbbell := compile("", sweep)
		fabric := compile(`, "clos": {"racks": 4, "hosts_per_rack": 50}`, sweep)
		if dumbbell[0].Net.PortConfig == dumbbell[1].Net.PortConfig {
			t.Errorf("%s: both rows compile to the same ports %+v", sweep, dumbbell[0].Net.PortConfig)
		}
		for i, row := range fabric {
			if row.Clos == nil {
				t.Fatalf("%s row %d: the clos block did not lift the row onto the fabric", sweep, i)
			}
			if row.Clos.PortConfig != dumbbell[i].Net.PortConfig {
				t.Errorf("%s row %d: fabric ports %+v, want the dumbbell's %+v", sweep, i, row.Clos.PortConfig, dumbbell[i].Net.PortConfig)
			}
		}
	}
}

// TestExampleScenarios loads every shipped spec file, compiles it, and runs
// the cheapest one end to end — the same path `incastsim -scenario` takes.
func TestExampleScenarios(t *testing.T) {
	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 2 {
		t.Fatalf("found %d example specs under examples/scenarios, want at least 2", len(files))
	}
	for _, f := range files {
		spec, err := scenario.Load(f)
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		header, labels, cfgs, err := CompileScenario(Options{Seed: 1, Quick: true}, spec)
		if err != nil {
			t.Errorf("%s: compile: %v", f, err)
			continue
		}
		if len(cfgs) == 0 || len(labels) != len(cfgs) || len(header) == 0 {
			t.Errorf("%s: compiled to %d configs, %d labels", f, len(cfgs), len(labels))
		}
	}

	spec, err := scenario.Load("../../examples/scenarios/ml_periodic_bursts.json")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScenario(Options{Seed: 1, Quick: true}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Name() != "ml_periodic_bursts" {
		t.Errorf("result name = %q", res.Name())
	}
	tab := res.Table()
	if len(tab.Rows) != 3 {
		t.Errorf("ml_periodic_bursts: %d rows, want 3 (one per worker count)", len(tab.Rows))
	}
	if tab.Header[0] != "flows" {
		t.Errorf("ml_periodic_bursts: first column %q, want flows", tab.Header[0])
	}
}

// TestRunScenarioRejectsInvalid: the runner surfaces validation errors
// instead of panicking, so front ends can exit cleanly.
func TestRunScenarioRejectsInvalid(t *testing.T) {
	_, err := RunScenario(Options{}, scenario.Spec{Name: "bad"})
	if err == nil {
		t.Fatal("want an error for a spec with no sweep")
	}
}

// bigDumbbellSpec is one flow-level row of 2^20 flows: it runs with cohort
// records, and per-flow records stop one flow short of it.
const bigDumbbellSpec = `{"name":"big_dumbbell","sweep":{"axis":"flows","values":[1048576]},"fidelity":"flow"}`

// swiftPulserSpec is Swift with explicit incast notification at 80 flows,
// the row that does not complete at -seed 14 (a run-time stall no compile
// check sees).
const swiftPulserSpec = `{"name":"swift_pulser","workload":{"flows":80,"bursts":3},"cc":{"algorithm":"swift"},` +
	`"notification":{},"sweep":{"axis":"notification","values":[false,true]}}`

// degenerateSpecs are topologies the compile's arithmetic cannot take,
// each with the one error its compile under -fidelity flow must return
// rather than a panic: an uplink rate that comes to 0 bps (named by row),
// and line rates or an ECN threshold past the spec's bounds, which left a
// 0 bps link or an overflowed BDP or threshold for the base-RTT
// arithmetic and the guardrail's constructor.
var degenerateSpecs = []struct{ spec, want string }{
	{`{"name":"thin_uplinks","workload":{"flows":4},"topology":{"clos":{"racks":2,"hosts_per_rack":8,"oversubscription":1e30}},"sweep":{"axis":"g","values":[0.5]}}`,
		`scenario "thin_uplinks" row 0 (0.5): netsim: Clos link rates must be positive`},
	{`{"name":"slow_uplinks","workload":{"flows":4},"topology":{"clos":{"racks":2,"hosts_per_rack":8,"spine_link_gbps":1e-12}},"sweep":{"axis":"g","values":[0.5]}}`,
		"topology.clos.spine_link_gbps = 1e-12: want a positive rate"},
	{`{"name":"slow_hosts","workload":{"flows":4},"topology":{"host_link_gbps":1e-12},"cc":{"algorithm":"swift"},"sweep":{"axis":"scheme","values":["dctcp","dctcp+guardrail"]}}`,
		"topology.host_link_gbps = 1e-12: want a positive rate"},
	{`{"name":"fast_hosts","workload":{"flows":4},"topology":{"host_link_gbps":1e9},"sweep":{"axis":"scheme","values":["dctcp+guardrail"]}}`,
		"topology.host_link_gbps = 1e+09: want a positive rate"},
	{`{"name":"deep_marking","workload":{"flows":4},"topology":{"ecn_threshold_pkts":10000000000000000},"sweep":{"axis":"scheme","values":["dctcp+guardrail"]}}`,
		"ecn_threshold_pkts (10000000000000000) must lie in [0, 1e9] packets"},
}

// boundsSpec puts the line rates at both bounds and the ECN threshold at
// its bound, under the guardrail (sized from the BDP) and Swift (from the
// base RTT): the arithmetic holds and the rows compile.
const boundsSpec = `{"name":"bounds","workload":{"flows":4},"topology":{"host_link_gbps":10000,"core_link_gbps":0.1,"ecn_threshold_pkts":1000000000},` +
	`"cc":{"algorithm":"swift"},"sweep":{"axis":"scheme","values":["dctcp","dctcp+guardrail"]}}`

// TestCompiledRowsAreTheRowsThatRun pins that CompileScenario returns the
// rows the runners run: each carries the options' seed, checked mode,
// registry, label and backend, and an option that makes a row invalid
// fails the compile, naming the row. A topology the compile's arithmetic
// cannot take is one error too, not a panic.
func TestCompiledRowsAreTheRowsThatRun(t *testing.T) {
	reg := obs.NewRegistry()
	opt := Options{Seed: 7, Audit: true, Metrics: reg, Fidelity: FidelityFlow}
	_, labels, cfgs, err := CompileScenario(opt, ablationReceiverWindowSpec)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		fidelity := "" // ICTCP is packet-level only
		if labels[i][1] == "reno" {
			fidelity = FidelityFlow
		}
		if cfg.Seed != 7 || !cfg.Audit || cfg.Metrics != reg ||
			cfg.Experiment != "ablation_receiver_window" || cfg.Fidelity != fidelity {
			t.Errorf("row %d %v: seed %d, audit %v, own registry %v, label %q, fidelity %q; want 7, true, true, %q, %q",
				i, labels[i], cfg.Seed, cfg.Audit, cfg.Metrics == reg, cfg.Experiment,
				cfg.Fidelity, "ablation_receiver_window", fidelity)
		}
	}

	spec, err := scenario.Parse([]byte(bigDumbbellSpec))
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, err = CompileScenario(Options{Fidelity: FidelityFlow, Aggregation: AggregationPerFlow}, spec)
	if err == nil {
		t.Fatal("a 2^20-flow row compiled under -aggregation perflow")
	}
	for _, want := range []string{`scenario "big_dumbbell"`, "row 0", "perflow"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("compile error %q does not name %s", err, want)
		}
	}

	for _, tc := range degenerateSpecs {
		var spec scenario.Spec
		if err := json.Unmarshal([]byte(tc.spec), &spec); err != nil {
			t.Fatal(err)
		}
		_, _, _, err = CompileScenario(Options{Fidelity: FidelityFlow}, spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: compile error %v, want one containing %q", spec.Name, err, tc.want)
		}
	}
	spec, err = scenario.Parse([]byte(boundsSpec))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := CompileScenario(Options{Fidelity: FidelityFlow}, spec); err != nil {
		t.Errorf("a spec at the rate and threshold bounds: %v", err)
	}
}

// FuzzCompileScenario feeds generated spec bytes through scenario.Parse
// and CompileScenario under every mix of quick mode, fidelity flow and
// aggregation perflow: compiling never panics, and every row it returns
// passes SimConfig.Validate.
func FuzzCompileScenario(f *testing.F) {
	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, true, false, false)
	}
	for _, s := range AblationSpecs() {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, true, true, false)
	}
	f.Add([]byte(bigDumbbellSpec), true, true, true)
	f.Add([]byte(swiftPulserSpec), false, false, false)
	// Oversized fabrics: the compile refuses them, or checks the placement
	// without a rack table or walk sized by the rack count.
	f.Add([]byte(`{"name":"huge_fabric","workload":{"flows":1},"topology":{"clos":{"racks":1000000000000000,"hosts_per_rack":2,"aggregators":2}},"sweep":{"axis":"g","values":[0.5]}}`), true, true, false)
	f.Add([]byte(`{"name":"wide_fabric","workload":{"flows":1},"topology":{"clos":{"racks":1048576,"hosts_per_rack":2}},"sweep":{"axis":"aggregators","values":[1048576]}}`), true, false, false)
	f.Add([]byte(`{"name":"tall_fabric","workload":{"flows":1},"topology":{"clos":{"racks":2,"hosts_per_rack":2,"spines":1000000000000000}},"sweep":{"axis":"g","values":[0.5]}}`), true, true, false)
	for _, tc := range degenerateSpecs {
		f.Add([]byte(tc.spec), true, true, false)
	}
	f.Add([]byte(boundsSpec), true, true, false)
	f.Fuzz(func(t *testing.T, data []byte, quick, flow, perflow bool) {
		spec, err := scenario.Parse(data)
		if err != nil {
			return
		}
		opt := Options{Quick: quick}
		if flow {
			opt.Fidelity = FidelityFlow
		}
		if perflow {
			opt.Aggregation = AggregationPerFlow
		}
		_, labels, cfgs, err := CompileScenario(opt, spec)
		if err != nil {
			return
		}
		for i, cfg := range cfgs {
			if err := cfg.Validate(); err != nil {
				t.Errorf("row %d %v compiled but fails Validate: %v", i, labels[i], err)
			}
		}
	})
}
