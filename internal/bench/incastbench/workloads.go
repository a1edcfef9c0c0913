package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// The workload inputs are copies kept beside the benchmark, so edits to the
// repository's examples cannot silently change what is measured.
//
//go:embed workloads baseline.json
var embedded embed.FS

// workload is one fixed input set. Each one runs as a child process of the
// built command with -workers 2 and GOMAXPROCS=2.
type workload struct {
	name string
	// spec is the scenario file under workloads/ that incastsim runs; empty
	// for packet_figures, which runs figures over the pinned name list.
	spec string
	// quick passes -quick to incastsim. The dumbbell grid needs it: with
	// four bursts some seeds (5, 16, ...) panic at 1,150 flows with "only 3
	// of 4 bursts completed", and a workload must not fail.
	quick bool
	// cached gives every pass a fresh -cache directory, so row keying,
	// cache writes and reads are part of the timed work.
	cached bool
	// passes is the number of timed passes a full set runs.
	passes int
}

var workloads = []workload{
	{name: "packet_figures", passes: 7},
	{name: "flow_dumbbell_grid", spec: "fanin_rto_grid_flow.json", quick: true, cached: true, passes: 15},
	{name: "clos_million_single", spec: "clos_million_flow_single.json", passes: 7},
	{name: "clos_fabric_grid", spec: "clos_million_flow_grid.json", cached: true, passes: 9},
}

// crashSeeds are the program seeds in 1..100 at which a workload does not
// complete: figures -quick panics in ext_pulser_modes with "core:
// simulation with 80 flows did not complete by 10.75s" (11s at 34 and 88).
var crashSeeds = map[uint64]bool{14: true, 21: true, 34: true, 41: true, 47: true, 55: true, 74: true, 75: true, 88: true}

// programSeed maps a benchmark seed onto the program seeds 1..100 at which
// every workload completes: benchmark seed 1 is program seed 1, and the
// same benchmark seed always gives the same inputs.
func programSeed(seed uint64) uint64 {
	var ok []uint64
	for s := uint64(1); s <= 100; s++ {
		if !crashSeeds[s] {
			ok = append(ok, s)
		}
	}
	n := uint64(len(ok))
	return ok[(seed%n+n-1)%n]
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

//go:embed workloads/packet_figures.txt
var namesFile string

// experimentNames returns the pinned registry names packet_figures runs.
func experimentNames() []string { return strings.Fields(namesFile) }

// baseline holds what the benchmark pins from a measured set at seed 1.
type baseline struct {
	// Digests are each workload's SHA-256 over its CSVs at seed 1.
	Digests map[string]string `json:"digests_seed1"`
	// FigureRows is the data-row count of every CSV packet_figures writes;
	// it does not depend on the seed.
	FigureRows map[string]int `json:"figure_rows"`
}

func loadBaseline() (baseline, error) {
	var b baseline
	raw, err := embedded.ReadFile("baseline.json")
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return b, fmt.Errorf("baseline.json: %w", err)
	}
	return b, nil
}

// writeSpec copies w's scenario file from inputs into dir, where the child
// process and the in-process passes both load it from.
func (w workload) writeSpec(inputs fs.FS, dir string) (string, error) {
	b, err := fs.ReadFile(inputs, "workloads/"+w.spec)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, w.spec)
	return path, os.WriteFile(path, b, 0o644)
}
