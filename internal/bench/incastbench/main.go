// Command incastbench is incastlab's benchmark. It times what a user waits
// for, `incastsim -scenario` from spec to CSV and `figures -quick`, as
// child processes on four fixed workloads, checks their CSVs, and splits
// the time across the layers in a separate traced in-process pass.
//
// Run it from the repository root through run.sh, which builds the
// programs from source into .bench_build first:
//
//	bash internal/bench/incastbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	bash internal/bench/incastbench/run.sh -seed N -out DIR
//	bash internal/bench/incastbench/run.sh -compare A/results.json B/results.json
//
// With -workload it measures one workload for S seconds and prints, as its
// last line, one JSON object with the end-to-end metrics (-trace 0) or the
// per-layer metrics (-trace 1). Without it, it runs the full set: every
// workload's fixed number of passes, round-robin, then a traced pass of
// each, and writes DIR/results.json and DIR/spans.jsonl. -compare reports
// each workload and end-to-end metric of B against A.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// buildDir is where run.sh puts the built programs (under bin/) and where
// scratch files go, relative to the repository root.
const buildDir = ".bench_build"

// runLimit bounds one -workload run, so that a hung child is stopped and
// the run still reports within its 180 s budget.
const runLimit = 170 * time.Second

func main() {
	name := flag.String("workload", "", "measure this workload alone and print the result as a JSON line")
	seed := flag.Uint64("seed", 1, "workload seed; every pass of a run uses it")
	secs := flag.Float64("seconds", 10, "with -workload: how long the timed passes run")
	trace := flag.Int("trace", 0, "with -workload: 1 reports the per-layer metrics of a traced pass instead")
	out := flag.String("out", "", "write results.json and spans.jsonl here; without -workload, run the full set")
	cmp := flag.Bool("compare", false, "compare two results.json files, A then B")
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two results.json files"))
		}
		ok, err := compare(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *name == "" && *out == "" {
		fatal(errors.New("give -workload NAME, or -out DIR for the full set"))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	work, err := os.MkdirTemp(buildDir, "work-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(work)
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	e := env{inputs: embedded, bin: filepath.Join(buildDir, "bin"), root: root, work: work}

	if *name != "" {
		err = runOne(ctx, e, *name, *seed, *secs, *trace == 1, *out)
	} else {
		err = runSet(ctx, e, *seed, *out)
	}
	if err != nil {
		os.RemoveAll(work)
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "incastbench:", err)
	os.Exit(2)
}

// runOne measures one workload and prints its metrics, then the JSON
// result line.
func runOne(ctx context.Context, e env, name string, seed uint64, secs float64, traced bool, out string) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	base, err := loadBaseline()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()
	s, err := newRunner(w, e, seed, base)
	if err != nil {
		return err
	}
	var spans []span
	if traced {
		spans, err = s.traceRun(ctx)
	} else if err = s.warmUp(ctx); err == nil {
		err = s.timeFor(ctx, secs)
		s.res.endToEnd()
	}
	if err != nil {
		return err
	}
	printMetrics(os.Stdout, s.res)
	if out != "" {
		if err := save(out, report{Seed: seed, Workloads: map[string]*result{name: s.res}}, spans); err != nil {
			return err
		}
	}

	metrics := s.res.EndToEnd
	if traced {
		metrics = s.res.PerLayer
	}
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{s.res.correct(), s.res.Attempted, s.res.Failed, map[string]valueUnit{}}
	for k, v := range metrics {
		line.Metrics[k] = valueUnit{v.Value, v.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// runSet runs the full set: a warm-up pass for every workload, the timed
// passes with their set-up samples round-robin across workloads (so drift
// in machine load hits each one alike), then a traced pass of each.
func runSet(ctx context.Context, e env, seed uint64, out string) error {
	base, err := loadBaseline()
	if err != nil {
		return err
	}
	var runners []*runner
	for _, w := range workloads {
		s, err := newRunner(w, e, seed, base)
		if err != nil {
			return err
		}
		if err := s.warmUp(ctx); err != nil {
			return err
		}
		runners = append(runners, s)
	}
	for round := 0; ; round++ {
		more := false
		for _, s := range runners {
			if round < s.w.passes {
				if _, err := s.timedRun(ctx); err != nil {
					return err
				}
				more = true
			}
		}
		if !more {
			break
		}
	}
	rep := report{Seed: seed, Workloads: map[string]*result{}}
	var spans []span
	for _, s := range runners {
		sp, err := s.traceRun(ctx)
		if err != nil {
			return err
		}
		spans = append(spans, sp...)
		s.res.endToEnd()
		printMetrics(os.Stdout, s.res)
		rep.Workloads[s.w.name] = s.res
	}
	return save(out, rep, spans)
}

func save(dir string, rep report, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeReport(filepath.Join(dir, "results.json"), rep); err != nil {
		return err
	}
	return writeSpans(filepath.Join(dir, "spans.jsonl"), spans)
}
