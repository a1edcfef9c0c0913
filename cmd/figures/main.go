// Command figures regenerates every table and figure of "Understanding
// Incast Bursts in Modern Datacenters" (IMC 2024), plus the ablations, as
// CSV artifacts and text summaries. The set of experiments comes from the
// incastlab registry — there is no list to maintain here.
//
// Usage:
//
//	figures [-out DIR] [-seed N] [-quick] [-workers N] [-only name1,name2] [-list]
//
// CSVs land under DIR (default "out"); summaries print to stdout and are
// also written to DIR/summary.txt, in registry order. Per-experiment
// wall-clock timings are additionally written, machine-readable, to
// DIR/bench_summary.json.
//
// Unless -workers is 1, the selected experiments run at once and -workers
// bounds the simulations in flight across all of them. Each experiment's
// timing is its own start-to-finish span, so the spans overlap and sum to
// more than the total.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"incastlab"
	"incastlab/internal/cli"
)

func main() {
	out := flag.String("out", "out", "output directory for CSV artifacts")
	seed := flag.Uint64("seed", 1, "experiment seed")
	quick := flag.Bool("quick", false, "reduced corpus sizes (seconds instead of minutes)")
	only := flag.String("only", "", "comma-separated experiment names (default: all)")
	list := flag.Bool("list", false, "list experiment names and exit")
	common := cli.Register(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, name := range incastlab.ExperimentNames() {
			fmt.Println(name)
		}
		return
	}

	selected := map[string]bool{}
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			if name = strings.TrimSpace(name); name != "" {
				selected[name] = true
			}
		}
		if len(selected) == 0 {
			log.Fatalf("-only %q names no experiment", *only)
		}
		for name := range selected {
			if _, ok := incastlab.LookupExperiment(name); !ok {
				log.Fatalf("unknown experiment %q; registered experiments are:\n  %s",
					name, strings.Join(incastlab.ExperimentNames(), "\n  "))
			}
		}
	}

	if err := common.Setup(); err != nil {
		log.Fatal(err)
	}
	defer common.Close()

	opt := incastlab.Options{
		Seed:        *seed,
		Quick:       *quick,
		Workers:     common.Workers,
		Audit:       common.Audit,
		Metrics:     common.Metrics(),
		Fidelity:    common.Fidelity,
		Aggregation: common.Aggregation,
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatalf("create output dir: %v", err)
	}
	summaryFile, err := os.Create(filepath.Join(*out, "summary.txt"))
	if err != nil {
		log.Fatalf("create summary: %v", err)
	}
	sink := io.MultiWriter(os.Stdout, summaryFile)

	var exps []incastlab.Experiment
	for _, e := range incastlab.Experiments() {
		if len(selected) == 0 || selected[e.Name] {
			exps = append(exps, e)
		}
	}
	timings := make(map[string]float64)
	totalStarted := time.Now()
	incastlab.RunExperiments(opt, exps, func(i int, res incastlab.Result, elapsed time.Duration) {
		name := exps[i].Name
		if err := res.WriteFiles(*out); err != nil {
			log.Fatalf("%s: write artifacts: %v", name, err)
		}
		timings[name] = elapsed.Seconds()
		common.Metrics().SetGauge("wall_experiment_seconds", incastlab.MetricsMergeSum,
			elapsed.Seconds(), "experiment", name)
		fmt.Fprintf(sink, "%s\n[%s completed in %v; CSVs under %s]\n\n",
			res.Summary(), name, elapsed.Round(time.Millisecond), *out)
	})
	total := time.Since(totalStarted)

	fmt.Fprintf(sink, "Wall-clock per experiment (workers=%d):\n", common.Workers)
	for _, e := range exps {
		fmt.Fprintf(sink, "  %-26s %8.3fs\n", e.Name, timings[e.Name])
	}
	fmt.Fprintf(sink, "  %-26s %8.3fs\n", "total", total.Seconds())

	if err := writeBenchSummary(filepath.Join(*out, "bench_summary.json"), common.Workers, timings, total); err != nil {
		log.Fatalf("write bench summary: %v", err)
	}

	// A failed Close can lose buffered summary output; surface it as a
	// non-zero exit instead of silently shipping a truncated file.
	if err := summaryFile.Close(); err != nil {
		log.Fatalf("close summary: %v", err)
	}

	if err := common.WriteMetrics(false); err != nil {
		log.Fatal(err)
	}
}

// benchSummary is the machine-readable wall-clock record written alongside
// the CSV artifacts, for tracking orchestration performance across runs.
type benchSummary struct {
	Workers      int                `json:"workers"`
	TotalSeconds float64            `json:"total_seconds"`
	Experiments  map[string]float64 `json:"experiments_seconds"`
}

func writeBenchSummary(path string, workers int, timings map[string]float64, total time.Duration) error {
	b, err := json.MarshalIndent(benchSummary{
		Workers:      workers,
		TotalSeconds: total.Seconds(),
		Experiments:  timings,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
