package core

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Kind classifies a registered experiment.
type Kind string

// The four experiment kinds: paper tables, paper figures, parameter and
// design-choice ablations, and extensions beyond the paper.
const (
	KindTable     Kind = "table"
	KindFigure    Kind = "figure"
	KindAblation  Kind = "ablation"
	KindExtension Kind = "extension"
)

func (k Kind) valid() bool {
	switch k {
	case KindTable, KindFigure, KindAblation, KindExtension:
		return true
	}
	return false
}

// Experiment is one registry entry: the single source of truth that
// core.All, cmd/figures, cmd/incastsim, the facade, and the docs
// generator all drive off. Every experiment file self-registers its
// entries from init, so adding an experiment is one register call — no
// hand-maintained lists anywhere else.
type Experiment struct {
	// Name is the stable identifier; it must equal the Name() of the
	// Result the runner returns (the registry contract test enforces it).
	Name string
	// Kind classifies the experiment.
	Kind Kind
	// PaperRef cites what the experiment reproduces or extends.
	PaperRef string
	// Run executes the experiment.
	Run func(Options) Result

	// order fixes the presentation position; registration panics on
	// collisions, and the golden-list test locks the resulting sequence.
	order int
}

var registry []Experiment

// register adds an experiment at the given presentation position. Order
// values are spaced by ten so a future experiment can slot between two
// existing ones without renumbering.
func register(order int, e Experiment) {
	if e.Name == "" || e.Run == nil {
		panic(fmt.Sprintf("core: experiment registration needs a name and a runner (got %+v)", e))
	}
	if !e.Kind.valid() {
		panic(fmt.Sprintf("core: experiment %q has invalid kind %q", e.Name, e.Kind))
	}
	if e.PaperRef == "" {
		panic(fmt.Sprintf("core: experiment %q needs a paper reference", e.Name))
	}
	for _, x := range registry {
		if x.Name == e.Name {
			panic(fmt.Sprintf("core: experiment %q registered twice", e.Name))
		}
		if x.order == order {
			panic(fmt.Sprintf("core: experiments %q and %q share order %d", x.Name, e.Name, order))
		}
	}
	e.order = order
	registry = append(registry, e)
	sort.SliceStable(registry, func(i, j int) bool { return registry[i].order < registry[j].order })
}

// Experiments returns every registered experiment in presentation order.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// ExperimentNames returns the registered names in presentation order.
func ExperimentNames() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.Name
	}
	return names
}

// LookupExperiment finds a registry entry by name.
func LookupExperiment(name string) (Experiment, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// RegistryMarkdown renders the registry as a Markdown table (name, kind,
// paper reference). EXPERIMENTS.md embeds its output between registry
// markers; `go run ./internal/core/regdoc` regenerates it, and a test
// keeps the embedded copy in sync.
func RegistryMarkdown() string {
	var b strings.Builder
	b.WriteString("| Experiment | Kind | Reproduces |\n")
	b.WriteString("|---|---|---|\n")
	for _, e := range registry {
		fmt.Fprintf(&b, "| `%s` | %s | %s |\n", e.Name, e.Kind, e.PaperRef)
	}
	return b.String()
}

// All runs every experiment — each paper table and figure plus every
// ablation and extension — through RunExperiments and returns the results
// in presentation order.
func All(opt Options) []Result {
	out := make([]Result, len(registry))
	RunExperiments(opt, Experiments(), func(i int, res Result, _ time.Duration) { out[i] = res })
	return out
}
