package core

import (
	"encoding/json"
	"fmt"
	"strconv"

	"incastlab/internal/scenario"
	"incastlab/internal/sweep"
)

// SimCodeVersion names the simulator's result-affecting code generation.
// It is baked into every sweep-cache key, so bumping it invalidates all
// cached rows at once. Bump it whenever a change alters simulation
// results (topology wiring, transport behavior, metric rendering) —
// goldens changing is the usual tell.
const SimCodeVersion = "incastlab-sim-v9"

// Shard selects the subset of sweep rows a process owns: row i belongs to
// shard Index of Count when i % Count == Index. The zero value (one shard
// owning everything) runs the whole sweep.
type Shard struct {
	Index, Count int
}

// normalize maps the zero value to 1-of-1.
func (s Shard) normalize() Shard {
	if s.Count <= 0 {
		return Shard{Index: 0, Count: 1}
	}
	return s
}

// owns reports whether row i falls to this shard.
func (s Shard) owns(i int) bool { return i%s.Count == s.Index }

// Validate rejects malformed shard selectors.
func (s Shard) Validate() error {
	if s.Count == 0 && s.Index == 0 {
		return nil // zero value: whole sweep
	}
	if s.Count < 1 {
		return fmt.Errorf("core: shard count must be at least 1 (got %d)", s.Count)
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("core: shard index %d out of range for %d shards", s.Index, s.Count)
	}
	return nil
}

// CacheStats summarizes one cached sweep pass.
type CacheStats struct {
	// Rows is the sweep's total row count.
	Rows int
	// Hits were served from the cache; Computed were simulated (and stored)
	// by this process; Skipped belong to other shards and were not yet
	// cached.
	Hits, Computed, Skipped int
}

func (s CacheStats) String() string {
	return fmt.Sprintf("%d rows, %d hits, %d computed, %d skipped",
		s.Rows, s.Hits, s.Computed, s.Skipped)
}

// ScenarioRowKey is the content address of one sweep row's rendered
// result cells: a hash of the code version, the canonical spec JSON, the
// row index, and every option that changes results (seed, quick mode,
// fidelity, aggregation). Worker count, audit mode, and metrics
// collection are excluded deliberately — results are bit-identical across
// those, and the cache must not fragment on them.
func ScenarioRowKey(opt Options, spec scenario.Spec, row int) string {
	return rowKey(opt, specJSON(spec), row)
}

// specJSON is the canonical spec JSON that row keys hash.
func specJSON(spec scenario.Spec) string {
	b, err := json.Marshal(spec)
	if err != nil {
		// Specs are plain data; marshal cannot fail for a validated spec.
		panic(fmt.Sprintf("core: marshal spec %q: %v", spec.Name, err))
	}
	return string(b)
}

// rowKey is ScenarioRowKey over an already marshalled spec, so a sweep
// marshals its spec once rather than once per row.
func rowKey(opt Options, specJSON string, row int) string {
	return sweep.Key(
		SimCodeVersion,
		specJSON,
		strconv.Itoa(row),
		strconv.FormatUint(opt.seed(), 10),
		strconv.FormatBool(opt.Quick),
		opt.Fidelity,
		opt.Aggregation,
	)
}

// RunScenarioCached is RunScenario backed by a content-addressed row
// cache and an optional shard selector. Rows already cached are reused
// (for any shard); rows this shard owns are simulated and stored; rows
// other shards own and have not computed yet are skipped. Each computed
// row is stored by the worker that computed it as soon as it finishes, so
// a sweep that is killed, or that stops at a failing row, keeps every row
// finished before it stopped, and a rerun resumes from there. When every
// row is available the full table is assembled — entirely from rendered
// cells that went through the cache encoding, so a warm rerun is
// byte-identical to a cold one — and returned; while rows are still
// missing the table is nil and the stats say how far along the sweep is.
func RunScenarioCached(opt Options, spec scenario.Spec, cache *sweep.Cache, shard Shard) (*TableResult, CacheStats, error) {
	shard = shard.normalize()
	if err := shard.Validate(); err != nil {
		return nil, CacheStats{}, err
	}
	header, labels, cfgs, err := CompileScenario(opt, spec)
	if err != nil {
		return nil, CacheStats{}, err
	}

	stats := CacheStats{Rows: len(cfgs)}
	rows := make([][]string, len(cfgs))
	keys := make([]string, len(cfgs))
	js := specJSON(spec)
	var missed []int
	for i := range cfgs {
		keys[i] = rowKey(opt, js, i)
		cells, ok, err := cache.Get(keys[i])
		switch {
		case err != nil:
			return nil, stats, err
		case ok:
			rows[i] = cells
			stats.Hits++
		case shard.owns(i):
			missed = append(missed, i)
		default:
			stats.Skipped++
		}
	}

	if len(missed) > 0 {
		errs := runParallel(opt, len(missed), func(j int) error {
			i := missed[j]
			if err := cache.Put(keys[i], ablationRow(RunIncastSim(cfgs[i]))); err != nil {
				return err
			}
			// Keep the cells the cache read back, so assembled output
			// cannot depend on whether a row was computed here or loaded —
			// one encode/decode path for every cell.
			cached, ok, err := cache.Get(keys[i])
			if err == nil && !ok {
				err = fmt.Errorf("core: row %d vanished from the cache after Put", i)
			}
			rows[i] = cached
			return err
		})
		for _, err := range errs {
			if err != nil {
				return nil, stats, err
			}
			stats.Computed++
		}
	}

	if stats.Hits+stats.Computed < stats.Rows {
		// Other shards still owe rows; no table yet.
		return nil, stats, nil
	}

	return scenarioTable(spec, header, labels, rows), stats, nil
}
