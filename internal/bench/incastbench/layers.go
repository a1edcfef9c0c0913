package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"incastlab/internal/core"
	"incastlab/internal/obs"
	"incastlab/internal/sweep"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are measured untraced, from the child processes and the
// set-up samples.
var endToEndMetrics = []metricDef{
	{"wall_s", "s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// layerMetrics are the traced pass's per-layer metrics, in report order. A
// metric that does not apply to a workload (a cache timing on an uncached
// workload, a fluid step count on a packet workload) reads 0.
func layerMetrics() []metricDef {
	defs := []metricDef{
		{"scenario.load_ms", "ms"},
		{"core.compile_ms", "ms"},
		{"netsim.fluid_paths_ms", "ms"},
		{"core.run_s", "s"},
		{"core.row_p50_ms", "ms"},
		{"core.row_p90_ms", "ms"},
		{"core.row_p99_ms", "ms"},
		{"core.run_alloc_mb", "MB"},
		{"core.run_allocs", "count"},
		{"flowsim.steps", "count"},
		{"flowsim.ns_per_step", "ns"},
		{"flowsim.records", "count"},
		{"flowsim.cohort_splits", "count"},
		{"sim.events", "count"},
		{"sim.ns_per_event", "ns"},
		{"netsim.sent_packets", "count"},
		{"sim.freelist_hit_ratio", "ratio"},
		{"netsim.pool_hit_ratio", "ratio"},
		{"core.row_key_us", "us"},
		{"sweep.put_us", "us"},
		{"sweep.get_us", "us"},
		{"sweep.warm_resume_ms", "ms"},
		{"trace.csv_write_ms", "ms"},
		{"obs.harvest_overhead_pct", "%"},
		{"obs.snapshot_ms", "ms"},
		{"tcp.timeouts", "count"},
		{"netsim.drops", "count"},
		{"process.cpu_s", "s"},
		{"bench.unattributed_s", "s"},
	}
	for _, n := range experimentNames() {
		defs = append(defs, metricDef{"exp." + n + "_s", "s"})
	}
	return defs
}

// inProcess runs the workload once in process, serially (Workers: 1),
// with a span around every call into a layer. It writes its CSVs under
// dir/out and its caches beside them. Each simulation runs twice: bare,
// for timing, and with an obs.Registry, for counters. A panic in the
// simulation is returned as an error.
func (s *runner) inProcess(tr *tracer, dir string) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: traced pass panicked: %v", s.w.name, r)
		}
	}()
	if err := os.MkdirAll(filepath.Join(dir, "out"), 0o755); err != nil {
		return err
	}
	p, err := s.setUp(tr)
	if err != nil {
		return err
	}
	if s.w.spec == "" {
		return s.traceFigures(tr, p, dir)
	}
	return s.traceScenario(tr, p, dir)
}

func (s *runner) traceFigures(tr *tracer, p prepared, dir string) error {
	opt := s.opt()
	results := make([]core.Result, len(p.exps))
	bare(tr, func() {
		for i, e := range p.exps {
			id := tr.begin("exp." + e.Name)
			results[i] = e.Run(opt)
			tr.end(id, nil)
		}
	})
	instrumented(tr, func(reg *obs.Registry) {
		opt.Metrics = reg
		for _, e := range p.exps {
			e.Run(opt)
		}
	})
	id := tr.begin("trace.csv_write")
	defer tr.end(id, nil)
	for _, r := range results {
		if err := r.WriteFiles(filepath.Join(dir, "out")); err != nil {
			return err
		}
	}
	return nil
}

func (s *runner) traceScenario(tr *tracer, p prepared, dir string) error {
	for i, c := range p.cfgs {
		if c.Fidelity != core.FidelityFlow {
			return fmt.Errorf("%s row %d: scenario workloads run at flow fidelity", s.w.name, i)
		}
	}
	bare(tr, func() {
		for _, c := range p.cfgs {
			id := tr.begin("core.row")
			core.RunIncastSim(c)
			tr.end(id, map[string]int64{"flows": int64(c.Flows)})
		}
	})
	instrumented(tr, func(reg *obs.Registry) {
		for _, c := range p.cfgs {
			c.Metrics = reg
			c.Experiment = p.spec.Name
			core.RunIncastSim(c)
		}
	})

	opt := s.opt()
	cache, err := sweep.Open(filepath.Join(dir, "cache"))
	if err != nil {
		return err
	}
	id := tr.begin("core.cached_run")
	res, _, err := core.RunScenarioCached(opt, p.spec, cache, core.Shard{})
	tr.end(id, nil)
	if err != nil {
		return err
	}
	id = tr.begin("trace.csv_write")
	err = res.WriteFiles(filepath.Join(dir, "out"))
	tr.end(id, nil)
	if err != nil {
		return err
	}
	id = tr.begin("sweep.warm_resume")
	_, st, err := core.RunScenarioCached(opt, p.spec, cache, core.Shard{})
	tr.end(id, map[string]int64{"hits": int64(st.Hits)})
	if err != nil {
		return err
	}

	// Per-row keys, puts and gets against a fresh cache, with this pass's
	// own cells.
	rows, err := sweep.Open(filepath.Join(dir, "rows"))
	if err != nil {
		return err
	}
	id = tr.begin("sweep.rows")
	defer tr.end(id, nil)
	for i, row := range res.Table().Rows {
		k := tr.begin("core.row_key")
		key := core.ScenarioRowKey(opt, p.spec, i)
		tr.end(k, nil)
		k = tr.begin("sweep.put")
		err := rows.Put(key, row[len(p.header):])
		tr.end(k, nil)
		if err != nil {
			return err
		}
		k = tr.begin("sweep.get")
		_, ok, err := rows.Get(key)
		tr.end(k, nil)
		if err != nil || !ok {
			return fmt.Errorf("row %d: get after put: ok=%v err=%v", i, ok, err)
		}
	}
	return nil
}

// bare times the uninstrumented runs under a core.run span whose direct
// children are the rows, and counts the heap allocations they make.
func bare(tr *tracer, run func()) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	id := tr.begin("core.run")
	run()
	runtime.ReadMemStats(&m1)
	tr.end(id, map[string]int64{
		"alloc_bytes": int64(m1.TotalAlloc - m0.TotalAlloc),
		"allocs":      int64(m1.Mallocs - m0.Mallocs),
	})
}

// instrumented repeats the runs with a registry and records the counters
// the layers published on the obs.snapshot span.
func instrumented(tr *tracer, run func(*obs.Registry)) {
	reg := obs.NewRegistry()
	id := tr.begin("obs.harvest_run")
	run(reg)
	tr.end(id, nil)
	id = tr.begin("obs.snapshot")
	snap := reg.Snapshot()
	counts := map[string]int64{
		"events":          counter(snap, "sim_events_executed"),
		"records":         int64(gauge(snap, "flowsim_cohorts")),
		"cohort_splits":   counter(snap, "flowsim_cohort_splits"),
		"sent_packets":    counter(snap, "net_link_tx_packets"),
		"freelist_hits":   counter(snap, "sim_freelist_hits"),
		"freelist_misses": counter(snap, "sim_freelist_misses"),
		"pool_hits":       counter(snap, "net_pool_hits"),
		"pool_gets":       counter(snap, "net_pool_gets"),
		"timeouts":        counter(snap, "tcp_timeouts"),
		"drops":           counter(snap, "net_queue_dropped_packets"),
	}
	tr.end(id, counts)
}

func counter(s *obs.Snapshot, name string) int64 {
	var n int64
	for _, c := range s.Counters {
		if c.Name == name {
			n += c.Value
		}
	}
	return n
}

func gauge(s *obs.Snapshot, name string) float64 {
	var v float64
	for _, g := range s.Gauges {
		if g.Name == name {
			v += g.Value
		}
	}
	return v
}

// layerValues derives the per-layer metrics from a traced pass's spans: a
// layer's time is its spans' self time, and run_s is the whole core.run
// span. flow says whether the simulations ran on the fluid backend, which
// decides whether the event count is fluid steps or scheduler events.
func layerValues(spans []span, wall time.Duration, flow bool) map[string]float64 {
	self := selfTimes(spans)
	byName := map[string][]span{}
	for _, sp := range spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	one := func(name string) span {
		if v := byName[name]; len(v) > 0 {
			return v[0]
		}
		return span{}
	}
	medianUS := func(name string) float64 {
		var xs []float64
		for _, sp := range byName[name] {
			xs = append(xs, float64(sp.dur())/1e3)
		}
		return summarize(xs).Median
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}

	run := one("core.run")
	var rowsMS []float64
	for _, sp := range spans {
		if run.ID != 0 && sp.Parent == run.ID {
			rowsMS = append(rowsMS, float64(sp.dur())/1e6)
		}
	}
	c := one("obs.snapshot").Counts
	m := map[string]float64{
		"scenario.load_ms":         ms(self["scenario.load"]),
		"core.compile_ms":          ms(self["core.compile"]),
		"netsim.fluid_paths_ms":    ms(self["netsim.fluid_paths"]),
		"core.run_s":               run.dur().Seconds(),
		"core.row_p50_ms":          percentile(rowsMS, 50),
		"core.row_p90_ms":          percentile(rowsMS, 90),
		"core.row_p99_ms":          percentile(rowsMS, 99),
		"core.run_alloc_mb":        float64(run.Counts["alloc_bytes"]) / (1 << 20),
		"core.run_allocs":          float64(run.Counts["allocs"]),
		"netsim.sent_packets":      float64(c["sent_packets"]),
		"sim.freelist_hit_ratio":   ratio(c["freelist_hits"], c["freelist_hits"]+c["freelist_misses"]),
		"netsim.pool_hit_ratio":    ratio(c["pool_hits"], c["pool_gets"]),
		"core.row_key_us":          medianUS("core.row_key"),
		"sweep.put_us":             medianUS("sweep.put"),
		"sweep.get_us":             medianUS("sweep.get"),
		"sweep.warm_resume_ms":     ms(self["sweep.warm_resume"]),
		"trace.csv_write_ms":       ms(self["trace.csv_write"]),
		"obs.harvest_overhead_pct": 100 * (ratio(int64(self["obs.harvest_run"]), int64(run.dur())) - 1),
		"obs.snapshot_ms":          ms(self["obs.snapshot"]),
		"tcp.timeouts":             float64(c["timeouts"]),
		"netsim.drops":             float64(c["drops"]),
		"bench.unattributed_s":     unattributed(spans, wall).Seconds(),
	}
	perEvent := ratio(int64(run.dur()), c["events"])
	if flow {
		m["flowsim.steps"] = float64(c["events"])
		m["flowsim.ns_per_step"] = perEvent
		m["flowsim.records"] = float64(c["records"])
		m["flowsim.cohort_splits"] = float64(c["cohort_splits"])
	} else {
		m["sim.events"] = float64(c["events"])
		m["sim.ns_per_event"] = perEvent
	}
	for _, n := range experimentNames() {
		m["exp."+n+"_s"] = self["exp."+n].Seconds()
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
