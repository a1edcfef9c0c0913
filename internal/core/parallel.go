package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// ValidateWorkers rejects worker counts the runner does not define: only
// 0 (= GOMAXPROCS) and positive bounds are meaningful. Front ends call this
// before building experiments so a typo'd "-workers -4" fails with a clear
// error instead of silently selecting a fallback.
func ValidateWorkers(workers int) error {
	if workers < 0 {
		return fmt.Errorf("workers must be >= 0 (0 means all cores, 1 forces serial); got %d", workers)
	}
	return nil
}

// mustValidWorkers panics on a negative worker count. Front ends validate
// with ValidateWorkers first, so reaching here with one is a caller bug.
func mustValidWorkers(workers int) {
	if err := ValidateWorkers(workers); err != nil {
		panic("core: " + err.Error())
	}
}

// rowPool is a counting semaphore of row slots: every runParallel call
// drawing from the same pool shares its bound on simulations in flight.
type rowPool chan struct{}

// newRowPool makes a pool of workers slots (0 = GOMAXPROCS).
func newRowPool(workers int) rowPool {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return make(rowPool, workers)
}

// runParallel evaluates fn(0), ..., fn(n-1) and returns the results indexed
// by input, so the output is identical to a serial loop regardless of
// execution interleaving. Each fn call must be independent of the others:
// experiment sweeps qualify because every run builds its own sim.Engine and
// derives randomness from the configured seed, never from shared state.
//
// opt.Workers == 1 runs the plain serial loop on the calling goroutine (no
// goroutines), which is the debugging mode the Workers option documents.
// Otherwise up to one goroutine per pool slot takes rows in index order,
// and a row runs only while it holds a slot of a row pool: the pool
// RunExperiments shares across a whole run, or else one of opt.Workers
// slots (0 = GOMAXPROCS) made for this call. A panic in a row is raised
// again on the calling goroutine once every row has finished.
//
// A row must never call runParallel: it would wait for slots its own
// caller holds, and once every slot is held that way the run deadlocks. No
// call site nests.
func runParallel[R any](opt Options, n int, fn func(i int) R) []R {
	mustValidWorkers(opt.Workers)
	out := make([]R, n)
	if opt.Workers == 1 {
		for i := range out {
			out[i] = fn(i)
		}
		return out
	}
	pool := opt.rows
	if pool == nil {
		pool = newRowPool(opt.Workers)
	}
	crashes := make([]*crash, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	w := min(cap(pool), n)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				pool <- struct{}{}
				crashes[i] = catch(func() { out[i] = fn(i) })
				<-pool
			}
		}()
	}
	wg.Wait()
	for _, c := range crashes {
		if c != nil {
			panic(c)
		}
	}
	return out
}

// RunExperiments runs exps under opt and calls emit(i, res, elapsed) for
// each, in input order, as soon as experiment i and every experiment before
// it have finished; elapsed is experiment i's own start-to-finish wall
// time. emit runs on the calling goroutine.
//
// opt.Workers == 1 runs the experiments one after another on the calling
// goroutine. Otherwise every experiment starts at once and all their
// runParallel calls draw from one pool of opt.Workers row slots
// (0 = GOMAXPROCS): at most that many simulations are in flight across the
// whole run, and a slot one experiment's slowest row leaves idle goes to
// another experiment's rows. Results are identical either way.
//
// A panic in experiment i is raised again on the calling goroutine after
// experiments 0..i-1 have been emitted, so a crash leaves behind the same
// outputs the serial loop would.
func RunExperiments(opt Options, exps []Experiment, emit func(i int, res Result, elapsed time.Duration)) {
	mustValidWorkers(opt.Workers)
	if opt.Workers == 1 {
		for i, e := range exps {
			start := time.Now()
			res := e.Run(opt)
			emit(i, res, time.Since(start))
		}
		return
	}
	type outcome struct {
		res     Result
		elapsed time.Duration
		crash   *crash
	}
	opt.rows = newRowPool(opt.Workers)
	done := make([]chan outcome, len(exps))
	for i, e := range exps {
		done[i] = make(chan outcome, 1)
		go func(i int, e Experiment) {
			var o outcome
			start := time.Now()
			o.crash = catch(func() { o.res = e.Run(opt) })
			o.elapsed = time.Since(start)
			done[i] <- o
		}(i, e)
	}
	for i, ch := range done {
		o := <-ch
		if o.crash != nil {
			panic(o.crash)
		}
		emit(i, o.res, o.elapsed)
	}
}

// crash is a panic recovered on one goroutine to be raised again on
// another. It keeps the value and the stack of the original panic.
type crash struct {
	value any
	stack []byte
}

func (c *crash) Error() string {
	return fmt.Sprintf("%v\n\nstack of the original panic:\n%s", c.value, c.stack)
}

// catch runs fn and returns what it panicked with, or nil. A panic that is
// already a *crash passes through unwrapped.
func catch(fn func()) (c *crash) {
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if c, ok = r.(*crash); !ok {
				c = &crash{value: r, stack: debug.Stack()}
			}
		}
	}()
	fn()
	return nil
}

// RunIncastSims runs one incast simulation per config, fanned across the
// given number of workers (0 = GOMAXPROCS, 1 = serial). Results are indexed
// like cfgs and bit-identical to running RunIncastSim serially.
func RunIncastSims(workers int, cfgs []SimConfig) []*SimResult {
	return runIncastSims(Options{Workers: workers}, cfgs)
}

// runIncastSims is RunIncastSims taking its row slots as opt says.
func runIncastSims(opt Options, cfgs []SimConfig) []*SimResult {
	return runParallel(opt, len(cfgs), func(i int) *SimResult {
		return RunIncastSim(cfgs[i])
	})
}
