package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// result is one workload's measurements at one seed: every pass's values,
// the metrics derived from them, and the outcome of the output checks.
type result struct {
	Workload string `json:"workload"`
	// Seed is the benchmark seed; ProgramSeed is the -seed the programs
	// ran with.
	Seed        uint64 `json:"seed"`
	ProgramSeed uint64 `json:"program_seed"`
	Workers     int    `json:"workers"`
	Passes      []pass `json:"passes"`
	// EndToEnd and PerLayer are the reported metrics; a timing's value is
	// its median.
	EndToEnd map[string]metric `json:"end_to_end,omitempty"`
	PerLayer map[string]metric `json:"per_layer,omitempty"`
	// Attempted and Failed count output rows over every pass, warm-up and
	// traced pass included.
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Digest    string `json:"digest"`
	// GoldenDiffers lists the repository goldens (internal/core/testdata/
	// quick) that packet_figures did not reproduce at program seed 1.
	GoldenDiffers []string `json:"golden_differs,omitempty"`
	// GoldenDrift is set when the digest at program seed 1 differs from the
	// one pinned in baseline.json. It is reported, not counted as a failure, so that a
	// change which deliberately re-pins goldens stays possible.
	GoldenDrift bool     `json:"golden_drift,omitempty"`
	Errors      []string `json:"errors,omitempty"`
}

// metric is one reported value; timings carry their quartiles and sample
// count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

func timing(xs []float64, unit string) metric {
	s := summarize(xs)
	return metric{Value: s.Median, Unit: unit, Q1: s.Q1, Q3: s.Q3, N: s.N}
}

// add records a finished pass.
func (r *result) add(p pass) {
	r.Passes = append(r.Passes, p)
	r.Attempted += p.Rows
	r.Failed += p.Failed
	if p.Error != "" {
		r.Errors = append(r.Errors, p.Error)
	}
}

// correct reports whether every row of every pass came out and passed its
// checks, and the repository goldens were reproduced.
func (r *result) correct() bool {
	return r.Attempted > 0 && r.Failed == 0 && len(r.GoldenDiffers) == 0
}

// samples returns the per-pass values behind an end-to-end metric (or
// cpu_s), leaving out the warm-up and passes that crashed.
func (r *result) samples(name string) []float64 {
	var xs []float64
	for _, p := range r.Passes {
		if p.Kind != timedPass || p.Digest == "" {
			continue
		}
		switch {
		case name == "wall_s":
			xs = append(xs, p.WallS)
		case name == "peak_rss_mb":
			xs = append(xs, p.PeakRSSMB)
		case name == "setup_s" && p.SetupS > 0:
			xs = append(xs, p.SetupS)
		case name == "cpu_s":
			xs = append(xs, p.CPUS)
		}
	}
	return xs
}

// endToEnd fills in the end-to-end metrics from the passes.
func (r *result) endToEnd() {
	r.EndToEnd = map[string]metric{}
	for _, m := range endToEndMetrics {
		r.EndToEnd[m.name] = timing(r.samples(m.name), m.unit)
	}
}

// report is the results.json file: one result per workload.
type report struct {
	Seed      uint64             `json:"seed"`
	Workloads map[string]*result `json:"workloads"`
}

func writeReport(path string, rep report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (report, error) {
	var rep report
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// printMetrics writes every metric of r as "workload metric value unit".
func printMetrics(w io.Writer, r *result) {
	for _, m := range endToEndMetrics {
		if v, ok := r.EndToEnd[m.name]; ok {
			fmt.Fprintf(w, "%s %s %.6g %s (q1 %.6g, q3 %.6g, n %d)\n", r.Workload, m.name, v.Value, v.Unit, v.Q1, v.Q3, v.N)
		}
	}
	for _, m := range layerMetrics() {
		if v, ok := r.PerLayer[m.name]; ok {
			fmt.Fprintf(w, "%s %s %.6g %s\n", r.Workload, m.name, v.Value, v.Unit)
		}
	}
	fmt.Fprintf(w, "%s rows %d attempted, %d failed; digest %s\n", r.Workload, r.Attempted, r.Failed, r.Digest)
	if r.GoldenDrift {
		fmt.Fprintf(w, "%s golden_drift: seed-1 digest differs from baseline.json\n", r.Workload)
	}
	for _, f := range r.GoldenDiffers {
		fmt.Fprintf(w, "%s golden mismatch: %s\n", r.Workload, f)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "%s error: %s\n", r.Workload, e)
	}
}
