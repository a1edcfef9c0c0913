package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRegistryContract pins the registry's static shape: every entry is
// complete, names are unique, and the kind census matches the paper's
// structure (1 table, 6 figure runners, 10 ablations, 8 extensions).
func TestRegistryContract(t *testing.T) {
	exps := Experiments()
	if len(exps) != 25 {
		t.Fatalf("registry has %d experiments, want 25", len(exps))
	}
	seen := map[string]bool{}
	kinds := map[Kind]int{}
	for _, e := range exps {
		if e.Name == "" {
			t.Error("registered experiment with empty name")
		}
		if seen[e.Name] {
			t.Errorf("duplicate experiment name %q", e.Name)
		}
		seen[e.Name] = true
		if e.Run == nil {
			t.Errorf("%s: nil Run", e.Name)
		}
		if e.PaperRef == "" {
			t.Errorf("%s: empty PaperRef", e.Name)
		}
		switch e.Kind {
		case KindTable, KindFigure, KindAblation, KindExtension:
		default:
			t.Errorf("%s: invalid kind %q", e.Name, e.Kind)
		}
		kinds[e.Kind]++
	}
	want := map[Kind]int{KindTable: 1, KindFigure: 6, KindAblation: 10, KindExtension: 8}
	for k, n := range want {
		if kinds[k] != n {
			t.Errorf("kind %s: %d experiments, want %d", k, kinds[k], n)
		}
	}
}

// TestRegistryGoldenOrder pins the presentation order against the checked-in
// golden list (which the ci.sh gate also diffs against `figures -list`).
func TestRegistryGoldenOrder(t *testing.T) {
	b, err := os.ReadFile("testdata/registry_names.golden")
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	got := strings.Join(ExperimentNames(), "\n") + "\n"
	if got != string(b) {
		t.Errorf("registry order drifted from testdata/registry_names.golden:\n%s", got)
	}
}

func TestLookupExperiment(t *testing.T) {
	e, ok := LookupExperiment("fig5")
	if !ok || e.Name != "fig5" || e.Kind != KindFigure {
		t.Errorf("LookupExperiment(fig5) = %+v, %v", e, ok)
	}
	if _, ok := LookupExperiment("bogus"); ok {
		t.Error("LookupExperiment(bogus) = ok")
	}
}

// TestRegistryDocsInSync pins the generated table in EXPERIMENTS.md to
// the live registry. On failure: go run ./internal/core/regdoc and paste
// the output between the registry markers.
func TestRegistryDocsInSync(t *testing.T) {
	b, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatalf("read EXPERIMENTS.md: %v", err)
	}
	doc := string(b)
	begin := strings.Index(doc, "<!-- registry:begin")
	end := strings.Index(doc, "<!-- registry:end -->")
	if begin < 0 || end < 0 || end < begin {
		t.Fatal("EXPERIMENTS.md lost its registry markers")
	}
	body := doc[begin:end]
	body = body[strings.Index(body, "\n")+1:]
	if body != RegistryMarkdown() {
		t.Errorf("EXPERIMENTS.md registry table is stale; regenerate with `go run ./internal/core/regdoc`:\nwant:\n%s\ngot:\n%s",
			RegistryMarkdown(), body)
	}
}

// TestAllMatchesRegistry checks the one remaining aggregate entry point
// against the registry it drives off, and its artifacts against the quick
// goldens: the run writes exactly the CSVs under testdata/quick, each
// byte-equal. The flow-fidelity goldens under testdata/quick_flow that
// come from registered experiments are held to the same rule.
func TestAllMatchesRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick suite")
	}
	names := ExperimentNames()
	results := All(Options{Seed: 1, Quick: true})
	if len(results) != len(names) {
		t.Fatalf("All returned %d results for %d registered experiments", len(results), len(names))
	}
	for i, r := range results {
		if r.Name() != names[i] {
			t.Errorf("All()[%d].Name() = %q, registry says %q", i, r.Name(), names[i])
		}
		if r.Summary() == "" {
			t.Errorf("%s: empty summary", names[i])
		}
	}
	goldens, err := filepath.Glob("testdata/quick/*.csv")
	if err != nil {
		t.Fatal(err)
	}
	checkGoldens(t, results, goldens)

	var flow []Result
	for _, name := range []string{"fig5", "ext_clos_crossrack", "ext_clos_multiagg"} {
		e, _ := LookupExperiment(name)
		flow = append(flow, e.Run(Options{Seed: 1, Quick: true, Fidelity: FidelityFlow}))
	}
	var flowGoldens []string
	for _, name := range []string{"fig5_modes", "fig5_queue_80flows", "fig5_queue_500flows", "fig5_queue_1400flows",
		"ext_clos_crossrack", "ext_clos_multiagg"} {
		flowGoldens = append(flowGoldens, filepath.Join("testdata/quick_flow", name+".csv"))
	}
	checkGoldens(t, flow, flowGoldens)
}

// checkGoldens writes results' artifacts into a fresh directory and
// requires them to be exactly the golden files, each byte-equal.
func checkGoldens(t *testing.T, results []Result, goldens []string) {
	t.Helper()
	dir := t.TempDir()
	for _, r := range results {
		if err := r.WriteFiles(dir); err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
	}
	written, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, g := range goldens {
		want[filepath.Base(g)] = g
	}
	for _, f := range written {
		if _, ok := want[f.Name()]; !ok {
			t.Errorf("the run wrote %s, which has no golden in %s", f.Name(), filepath.Dir(goldens[0]))
		}
	}
	for _, g := range goldens {
		name := filepath.Base(g)
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("the run did not write %s", name)
			continue
		}
		golden, err := os.ReadFile(g)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, golden) {
			t.Errorf("%s differs from its golden %s", name, g)
		}
	}
}
