package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"incastlab/internal/core"
	"incastlab/internal/scenario"
)

// The workload copies must keep compiling to the row counts the benchmark
// was defined with, and the pinned name list must stay the registry's.
func TestWorkloadCopiesCompile(t *testing.T) {
	want := map[string]int{"flow_dumbbell_grid": 1000, "clos_million_single": 1, "clos_fabric_grid": 208}
	for _, w := range workloads {
		if w.spec == "" {
			continue
		}
		path, err := w.writeSpec(embedded, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		spec, err := scenario.Load(path)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		_, _, cfgs, err := core.CompileScenario(core.Options{Seed: 1, Quick: w.quick}, spec)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(cfgs) != want[w.name] {
			t.Errorf("%s compiles to %d rows, want %d", w.name, len(cfgs), want[w.name])
		}
	}
	if got := experimentNames(); !slices.Equal(got, core.ExperimentNames()) {
		t.Errorf("workloads/packet_figures.txt lists %v,\nthe registry has %v", got, core.ExperimentNames())
	}
}

func TestProgramSeedAvoidsCrashSeeds(t *testing.T) {
	if got := programSeed(1); got != 1 {
		t.Errorf("benchmark seed 1 runs program seed %d, want 1 (the goldens' seed)", got)
	}
	seen := map[uint64]bool{}
	for seed := uint64(0); seed < 300; seed++ {
		p := programSeed(seed)
		if p < 1 || p > 100 || crashSeeds[p] {
			t.Fatalf("benchmark seed %d maps to program seed %d", seed, p)
		}
		seen[p] = true
	}
	if len(seen) != 100-len(crashSeeds) {
		t.Errorf("seeds reach %d program seeds, want %d", len(seen), 100-len(crashSeeds))
	}
}

// BENCHMARK.json must name exactly the workloads and metrics incastbench
// reports.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var bf struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var got []string
	for _, w := range bf.Workloads {
		got = append(got, w.Name)
	}
	if !slices.Equal(got, names) {
		t.Errorf("BENCHMARK.json workloads %v, incastbench has %v", got, names)
	}
	for _, c := range []struct {
		file []named
		code []metricDef
	}{{bf.EndToEnd, endToEndMetrics}, {bf.PerLayer, layerMetrics()}} {
		var want []named
		for _, d := range c.code {
			want = append(want, named{d.name, d.unit})
		}
		if !slices.Equal(c.file, want) {
			t.Errorf("BENCHMARK.json lists %v,\nincastbench reports %v", c.file, want)
		}
	}
}
