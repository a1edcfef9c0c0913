package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchFile is the part of BENCHMARK.json that -compare reads.
type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compare prints, for each workload of A and each end-to-end metric in the
// benchmark file, whether B improved, is unchanged, regressed, or is
// unresolved against A, and checks that counts and digests match exactly.
// It returns false on a regression or a mismatch.
func compare(w io.Writer, benchPath, aPath, bPath string) (bool, error) {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return false, fmt.Errorf("%s: %w", benchPath, err)
	}
	a, err := readReport(aPath)
	if err != nil {
		return false, err
	}
	b, err := readReport(bPath)
	if err != nil {
		return false, err
	}
	if a.Seed != b.Seed {
		return false, fmt.Errorf("seeds differ: A ran seed %d, B seed %d", a.Seed, b.Seed)
	}

	ok := true
	fmt.Fprintf(w, "%-20s %-12s %12s %12s %8s  %s\n", "workload", "metric", "A median", "B median", "change", "verdict")
	for _, wk := range workloads {
		ra, rb := a.Workloads[wk.name], b.Workloads[wk.name]
		if ra == nil {
			continue
		}
		if rb == nil {
			fmt.Fprintf(w, "%-20s missing from B\n", wk.name)
			ok = false
			continue
		}
		for _, m := range bf.EndToEnd {
			xa, xb := ra.samples(m.Name), rb.samples(m.Name)
			v := verdict(xa, xb, m.Bound, m.Better == "lower")
			ma, mb := summarize(xa).Median, summarize(xb).Median
			change := 0.0
			if ma != 0 {
				change = 100 * (mb - ma) / ma
			}
			fmt.Fprintf(w, "%-20s %-12s %12.6g %12.6g %+7.1f%%  %s\n", wk.name, m.Name, ma, mb, change, v)
			if v == "regressed" {
				ok = false
			}
		}
		for _, d := range countDiffs(ra, rb) {
			fmt.Fprintf(w, "%-20s mismatch: %s\n", wk.name, d)
			ok = false
		}
	}
	if ok {
		fmt.Fprintln(w, "counts and digests: identical")
	}
	return ok, nil
}

// verdict classifies B's samples of one metric against A's. A change that
// worsens the median by more than bound regressed. Where either side's
// quartile spread is wider than bound the metric is unresolved, unless
// every B sample beats every A sample. B improved when it wins at least
// nine tenths of the index-paired samples and its median beats A's by more
// than A's quartile distance.
func verdict(a, b []float64, bound float64, lowerBetter bool) string {
	if len(a) == 0 || len(b) == 0 {
		return "unresolved"
	}
	better := func(x, y float64) bool {
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	sa, sb := summarize(a), summarize(b)
	if sa.spread() > bound || sb.spread() > bound {
		for _, x := range b {
			for _, y := range a {
				if !better(x, y) {
					return "unresolved"
				}
			}
		}
		return "improved"
	}
	worse := (sb.Median - sa.Median) / sa.Median
	if !lowerBetter {
		worse = -worse
	}
	if worse > bound {
		return "regressed"
	}
	n := min(len(a), len(b))
	wins := 0
	for i := 0; i < n; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	if 10*wins >= 9*n && better(sb.Median, sa.Median) && math.Abs(sb.Median-sa.Median) > sa.Q3-sa.Q1 {
		return "improved"
	}
	return "unchanged"
}

// exactCounts are the per-layer counts of simulated work and behaviour. A
// change that only speeds the simulator up leaves them exactly the same.
var exactCounts = []string{"flowsim.steps", "flowsim.records", "flowsim.cohort_splits",
	"sim.events", "netsim.sent_packets", "tcp.timeouts", "netsim.drops"}

// countDiffs lists what must match exactly between two runs of one seed:
// the row counts, the CSV digest, and the simulated counts.
func countDiffs(a, b *result) []string {
	var out []string
	if a.Failed != b.Failed || a.Passes[0].Rows != b.Passes[0].Rows {
		out = append(out, fmt.Sprintf("rows per pass/failed %d/%d vs %d/%d",
			a.Passes[0].Rows, a.Failed, b.Passes[0].Rows, b.Failed))
	}
	if a.Digest != b.Digest {
		out = append(out, fmt.Sprintf("digest %.12s vs %.12s", a.Digest, b.Digest))
	}
	for _, name := range exactCounts {
		va, oka := a.PerLayer[name]
		vb, okb := b.PerLayer[name]
		if oka && okb && va.Value != vb.Value {
			out = append(out, fmt.Sprintf("%s %v vs %v", name, va.Value, vb.Value))
		}
	}
	return out
}
