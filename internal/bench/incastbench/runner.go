package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"incastlab/internal/core"
	"incastlab/internal/scenario"
	"incastlab/internal/sweep"
	wl "incastlab/internal/workload"
)

// childWorkers is the -workers value and the GOMAXPROCS every child runs
// with: the benchmark is sized for a 2-core machine.
const childWorkers = 2

// env says where the benchmark finds its inputs, the built programs and
// the repository's goldens, and where it writes scratch files.
type env struct {
	inputs fs.FS  // holds workloads/<spec>
	bin    string // directory holding the built incastsim and figures
	root   string // the repository checkout
	work   string // scratch directory
}

// The kinds of pass. Only timed passes feed the end-to-end metrics.
const (
	warmupPass = "warmup" // a discarded child run
	timedPass  = "timed"  // a child run
	tracedPass = "traced" // the in-process traced run
)

// pass is one run of a workload.
type pass struct {
	Kind  string  `json:"kind"`
	WallS float64 `json:"wall_s"`
	// SetupS is the median of the set-up samples taken just before a timed
	// pass.
	SetupS    float64 `json:"setup_s,omitempty"`
	CPUS      float64 `json:"cpu_s,omitempty"`
	PeakRSSMB float64 `json:"peak_rss_mb,omitempty"`
	Rows      int     `json:"rows"`
	Failed    int     `json:"failed"`
	Digest    string  `json:"digest,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// runner runs one workload at one seed and accumulates its result.
type runner struct {
	w        workload
	env      env
	seed     uint64         // the program seed, see programSeed
	specPath string         // the scenario file, for scenario workloads
	names    []string       // the experiments, for packet_figures
	want     map[string]int // CSV file -> data rows one pass must write
	dir      string         // this workload's scratch directory
	base     baseline
	npass    int
	res      *result
}

// newRunner prepares w at the benchmark seed: it copies the workload's
// inputs into the scratch directory and works out the rows a pass must
// produce.
func newRunner(w workload, e env, seed uint64, base baseline) (*runner, error) {
	s := &runner{w: w, env: e, seed: programSeed(seed), dir: filepath.Join(e.work, w.name), base: base}
	s.res = &result{Workload: w.name, Seed: seed, ProgramSeed: s.seed, Workers: childWorkers}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, err
	}
	if w.spec == "" {
		s.names, s.want = experimentNames(), base.FigureRows
		if len(s.want) == 0 {
			return nil, fmt.Errorf("%s: baseline.json pins no figure rows", w.name)
		}
		return s, nil
	}
	path, err := w.writeSpec(e.inputs, s.dir)
	if err != nil {
		return nil, err
	}
	s.specPath = path
	spec, err := scenario.Load(path)
	if err != nil {
		return nil, err
	}
	_, _, cfgs, err := core.CompileScenario(s.opt(), spec)
	if err != nil {
		return nil, err
	}
	s.want = map[string]int{spec.Name + ".csv": len(cfgs)}
	return s, nil
}

func (s *runner) opt() core.Options {
	return core.Options{Seed: s.seed, Quick: s.w.quick || s.w.spec == "", Workers: 1}
}

func (s *runner) rows() int {
	n := 0
	for _, r := range s.want {
		n += r
	}
	return n
}

// prepared is what set-up hands to the simulation: a compiled scenario, or
// the looked-up experiments.
type prepared struct {
	spec   scenario.Spec
	header []string
	cfgs   []core.SimConfig
	exps   []core.Experiment
}

// setUp does the work before the first simulated step, each step in its
// own span: for a scenario, load and compile, plus the endpoint and
// FluidPaths build of every flow-fidelity Clos row; for packet_figures,
// the experiment lookup and the compile of the built-in ablation specs,
// which ten of its experiments do before they simulate.
func (s *runner) setUp(tr *tracer) (prepared, error) {
	var p prepared
	if s.w.spec == "" {
		id := tr.begin("core.lookup")
		for _, name := range s.names {
			e, ok := core.LookupExperiment(name)
			if !ok {
				return p, fmt.Errorf("unknown experiment %q", name)
			}
			p.exps = append(p.exps, e)
		}
		tr.end(id, map[string]int64{"experiments": int64(len(p.exps))})
		id = tr.begin("core.compile")
		var rows int64
		for _, spec := range core.AblationSpecs() {
			_, _, cfgs, err := core.CompileScenario(s.opt(), spec)
			if err != nil {
				return p, err
			}
			rows += int64(len(cfgs))
		}
		tr.end(id, map[string]int64{"rows": rows})
		return p, nil
	}

	id := tr.begin("scenario.load")
	spec, err := scenario.Load(s.specPath)
	tr.end(id, nil)
	if err != nil {
		return p, err
	}
	id = tr.begin("core.compile")
	header, _, cfgs, err := core.CompileScenario(s.opt(), spec)
	tr.end(id, map[string]int64{"rows": int64(len(cfgs))})
	if err != nil {
		return p, err
	}
	id = tr.begin("netsim.fluid_paths")
	var flows int64
	for _, c := range cfgs {
		if c.Clos == nil || c.Fidelity != core.FidelityFlow {
			continue
		}
		srcs, dsts, err := wl.ClosFlowEndpoints(*c.Clos, c.Flows, c.Aggregators, c.Placement)
		if err != nil {
			return p, err
		}
		if _, err := c.Clos.FluidPaths(srcs, dsts); err != nil {
			return p, err
		}
		flows += int64(len(srcs))
	}
	tr.end(id, map[string]int64{"flows": flows})
	return prepared{spec: spec, header: header, cfgs: cfgs}, nil
}

// sampleSetup times set-up for about 20 ms and returns the median sample,
// in seconds. Runs take it before every timed pass, so set-up is measured
// under the same machine conditions as the passes. Each sample starts from
// a collected heap, so the allocation-heavy Clos set-up does not pay for
// garbage left by earlier work. A sample repeats set-up until a
// millisecond has passed and reports the time of one, so that the
// microsecond-scale set-up of packet_figures is not lost in timer noise.
func (s *runner) sampleSetup() (float64, error) {
	var samples []float64
	for start := time.Now(); len(samples) == 0 || time.Since(start) < 20*time.Millisecond; {
		runtime.GC()
		t0, reps := time.Now(), 0
		for reps == 0 || time.Since(t0) < time.Millisecond {
			if _, err := s.setUp(newTracer("")); err != nil {
				return 0, fmt.Errorf("%s: set-up: %w", s.w.name, err)
			}
			reps++
		}
		samples = append(samples, time.Since(t0).Seconds()/float64(reps))
	}
	return summarize(samples).Median, nil
}

// argv is the child command line for one pass writing into out (and, for
// cached workloads, a fresh cache).
func (s *runner) argv(out, cache string) []string {
	seed := strconv.FormatUint(s.seed, 10)
	workers := strconv.Itoa(childWorkers)
	if s.w.spec == "" {
		return []string{filepath.Join(s.env.bin, "figures"), "-quick", "-seed", seed,
			"-workers", workers, "-only", strings.Join(s.names, ","), "-out", out}
	}
	a := []string{filepath.Join(s.env.bin, "incastsim"), "-scenario", s.specPath, "-seed", seed,
		"-workers", workers, "-out", out}
	if s.w.quick {
		a = append(a, "-quick")
	}
	if s.w.cached {
		a = append(a, "-cache", cache)
	}
	return a
}

// runPass runs the workload once as a child process, fills in p (whose
// kind, and set-up time for a timed pass, the caller gives) and records it.
// A child that exits non-zero loses its rows, except, for cached
// workloads, the rows that reached the cache. A pass whose CSVs differ from
// the first pass at this seed fails all its rows.
func (s *runner) runPass(ctx context.Context, p pass) (pass, error) {
	s.npass++
	dir := filepath.Join(s.dir, fmt.Sprintf("pass%d", s.npass))
	defer os.RemoveAll(dir)
	out, cache := filepath.Join(dir, "out"), filepath.Join(dir, "cache")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return pass{}, err
	}
	argv := s.argv(out, cache)
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childWorkers))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return pass{}, fmt.Errorf("%s: start %s: %w", s.w.name, argv[0], err)
	}
	done := make(chan struct{})
	peak := watchPeak(cmd.Process.Pid, done)
	runErr := cmd.Wait()
	close(done)
	p.WallS, p.Rows, p.PeakRSSMB = time.Since(start).Seconds(), s.rows(), <-peak
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.CPUS = seconds(ru.Utime) + seconds(ru.Stime)
		if p.PeakRSSMB == 0 { // it exited before the first poll
			p.PeakRSSMB = float64(ru.Maxrss) / 1024
		}
	}

	switch {
	case runErr != nil:
		p.Error = fmt.Sprintf("%v: %s", runErr, firstLine(stderr.String()))
		p.Failed = p.Rows
		if s.w.cached {
			if n, err := cachedRows(cache); err == nil {
				p.Failed = max(0, p.Rows-n)
			}
		}
	default:
		if err := s.checkPass(&p, out); err != nil {
			return p, err
		}
	}
	s.res.add(p)
	return p, nil
}

// warmUp runs the discarded warm-up pass and one discarded set-up.
func (s *runner) warmUp(ctx context.Context) error {
	if _, err := s.runPass(ctx, pass{Kind: warmupPass}); err != nil {
		return err
	}
	_, err := s.setUp(newTracer(""))
	return err
}

// timedRun samples set-up, then runs one timed pass.
func (s *runner) timedRun(ctx context.Context) (pass, error) {
	setup, err := s.sampleSetup()
	if err != nil {
		return pass{}, err
	}
	return s.runPass(ctx, pass{Kind: timedPass, SetupS: setup})
}

// minPasses is the fewest timed passes a time-bounded run makes, so that
// its median and quartiles rest on more than one sample.
const minPasses = 3

// timeFor runs timed passes, each after its set-up samples, while the next
// one, as long as the last, still ends within secs, and at least minPasses
// of them. It stops early, with the passes so far, once ctx is done; the
// pass that was cut off counts as failed.
func (s *runner) timeFor(ctx context.Context, secs float64) error {
	start, last := time.Now(), 0.0
	for n := 0; n < minPasses || time.Since(start).Seconds()+last <= secs; n++ {
		if ctx.Err() != nil {
			return nil
		}
		t0 := time.Now()
		if _, err := s.timedRun(ctx); err != nil {
			return err
		}
		last = time.Since(t0).Seconds()
	}
	return nil
}

// traceRun runs the traced in-process pass and fills in the per-layer
// metrics. Without timed passes to take them from, it first runs one
// child pass for the CPU time and the reference digest. The traced pass's
// own CSVs must match the child's.
func (s *runner) traceRun(ctx context.Context) ([]span, error) {
	if len(s.res.samples("cpu_s")) == 0 {
		if _, err := s.runPass(ctx, pass{Kind: timedPass}); err != nil {
			return nil, err
		}
	}
	tr := newTracer(s.w.name)
	dir := filepath.Join(s.dir, "traced")
	defer os.RemoveAll(dir)
	out := filepath.Join(dir, "out")
	runErr := s.inProcess(tr, dir)
	wall := tr.wall()
	p := pass{Kind: tracedPass, WallS: wall.Seconds(), Rows: s.rows()}
	if runErr != nil {
		p.Failed, p.Error = p.Rows, runErr.Error()
	} else if err := s.checkPass(&p, out); err != nil {
		return nil, err
	}
	s.res.add(p)

	m := layerValues(tr.spans, wall, s.w.spec != "")
	m["process.cpu_s"] = summarize(s.res.samples("cpu_s")).Median
	s.res.PerLayer = map[string]metric{}
	for _, d := range layerMetrics() {
		s.res.PerLayer[d.name] = metric{Value: m[d.name], Unit: d.unit}
	}
	return tr.spans, nil
}

// checkPass checks the CSVs a successful pass wrote under out (see
// checkOutputs) and compares their digest with the first pass's at this
// seed. The first pass at program seed 1 is also checked against the
// pinned digest and, for packet_figures, against the repository's goldens.
func (s *runner) checkPass(p *pass, out string) error {
	digest, failed, err := checkOutputs(out, s.want)
	if err != nil {
		return err
	}
	p.Digest, p.Failed = digest, failed
	r := s.res
	if r.Digest != "" {
		if p.Digest != r.Digest {
			p.Failed = p.Rows
			p.Error = "CSV digest differs from the first pass at the same seed"
		}
		return nil
	}
	r.Digest = p.Digest
	if s.seed != 1 {
		return nil
	}
	if pinned, ok := s.base.Digests[s.w.name]; ok && pinned != p.Digest {
		r.GoldenDrift = true
	}
	if s.w.name == "packet_figures" {
		differ, err := sameFiles(filepath.Join(s.env.root, "internal", "core", "testdata", "quick"), out)
		if err != nil {
			return err
		}
		r.GoldenDiffers = differ
	}
	return nil
}

// watchPeak polls the child's resident high-water mark (VmHWM) every 10 ms
// until done is closed, then sends the last reading in MB. The kernel
// starts VmHWM afresh at exec. The child's rusage maximum does not: the
// child starts in this process's address space, so it begins at this
// process's own high-water mark, which compiling the Clos specs alone
// raises above the smaller workloads' peaks. Growth in the child's last
// 10 ms is missed.
func watchPeak(pid int, done <-chan struct{}) <-chan float64 {
	out := make(chan float64, 1)
	go func() {
		path := fmt.Sprintf("/proc/%d/status", pid)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var kb int64
		for {
			if v, ok := statusKB(path, "VmHWM:"); ok {
				kb = v
			}
			select {
			case <-done:
				out <- float64(kb) / 1024
				return
			case <-tick.C:
			}
		}
	}()
	return out
}

// statusKB reads one "Key: N kB" line of a /proc status file.
func statusKB(path, key string) (int64, bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, key); ok {
			n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}

// cachedRows counts the rows that reached the cache under dir.
func cachedRows(dir string) (int, error) {
	c, err := sweep.Open(dir)
	if err != nil {
		return 0, err
	}
	return c.Len()
}

func seconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// firstLine returns the first line of a child's stderr that says why it
// failed (its panic or fatal message).
func firstLine(s string) string {
	for _, line := range strings.Split(s, "\n") {
		if line = strings.TrimSpace(line); line != "" {
			return line
		}
	}
	return "(no output)"
}
