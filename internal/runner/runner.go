// Package runner is the deterministic worker-pool harness behind every
// sweep in the repro: experiment tables fan their independent simulation
// runs out over it, the capacity search probes load points through it,
// predictor.Collect measures its sampled operator groups over it, and
// model training fans out one fit per sample set (predictor.TrainEvalEach)
// or per cross-validation fold (ml.CrossValidate). A single MLP fit runs
// on one goroutine.
//
// The contract that keeps parallel runs bit-identical to serial ones:
//
//   - Jobs are independent. Each job owns its engine, device, RNG, and
//     scratch state; the only sharing allowed is read-only inputs and
//     goroutine-safe models (see DESIGN.md, "Run harness").
//   - Results land at the job's index. Output order is the submission
//     order, never the completion order, so goroutine interleaving is
//     invisible to callers.
//   - Seeds are derived from the job index, not from shared RNG state, so
//     the i-th job sees the same seed at any parallelism.
//   - Failures are deterministic too: when several jobs panic or error,
//     the lowest-indexed one wins, exactly as a serial loop would have
//     surfaced it.
package runner

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// defaultParallel is the process-wide worker cap used when a call passes
// parallel <= 0. Zero means runtime.GOMAXPROCS(0). Commands set it from
// their -parallel flag.
var defaultParallel atomic.Int64

// SetDefaultParallel sets the process-wide default worker count. n <= 0
// restores the GOMAXPROCS default.
func SetDefaultParallel(n int) {
	if n < 0 {
		n = 0
	}
	defaultParallel.Store(int64(n))
}

// DefaultParallel returns the worker count used when parallel <= 0 is
// passed to Map/ForEach/Plan.Run.
func DefaultParallel() int {
	if n := int(defaultParallel.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// PanicError attributes a worker panic to the job that raised it. The
// original panic value and stack are preserved.
type PanicError struct {
	Job   string
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job %s panicked: %v\n%s", e.Job, e.Value, e.Stack)
}

// Unwrap exposes a wrapped error panic value to errors.Is/As.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Map runs fn(i) for every i in [0, n) on at most parallel workers and
// returns the results in index order. parallel <= 0 uses DefaultParallel;
// parallel == 1 runs inline on the calling goroutine. A panicking job
// aborts Map with a *PanicError naming the job; when several jobs panic,
// the lowest index wins deterministically.
func Map[T any](n, parallel int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(n, parallel, func(i int) { out[i] = fn(i) })
	return out
}

// MapErr is Map for fallible jobs: it returns the results in index order
// and the error of the lowest-indexed failing job, if any. Jobs after a
// failure still run (their slots are already deterministic); the caller
// sees one stable error regardless of interleaving.
func MapErr[T any](n, parallel int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	ForEach(n, parallel, func(i int) { out[i], errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// ForEach runs fn(i) for every i in [0, n) on at most parallel workers.
// It is the primitive under Map/MapErr/Plan.Run and follows the same
// panic discipline.
func ForEach(n, parallel int, fn func(i int)) {
	forEachNamed(n, parallel, nil, fn)
}

// forEachNamed is the pool core. names, when non-nil, labels panics;
// otherwise jobs are labeled by index.
func forEachNamed(n, parallel int, names []string, fn func(i int)) {
	if n <= 0 {
		return
	}
	if parallel <= 0 {
		parallel = DefaultParallel()
	}
	if parallel > n {
		parallel = n
	}

	jobName := func(i int) string {
		if names != nil && names[i] != "" {
			return names[i]
		}
		return fmt.Sprintf("#%d", i)
	}
	panics := make([]*PanicError, n)
	invoke := func(i int) {
		defer func() {
			if v := recover(); v != nil {
				panics[i] = &PanicError{Job: jobName(i), Value: v, Stack: debug.Stack()}
			}
		}()
		fn(i)
	}

	if parallel == 1 {
		// Inline serial mode: same goroutine, same cache behaviour, and —
		// by the ordering contract — the same results as any other width.
		for i := 0; i < n; i++ {
			invoke(i)
			if panics[i] != nil {
				panic(panics[i])
			}
		}
		return
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				invoke(i)
			}
		}()
	}
	wg.Wait()
	for _, pe := range panics {
		if pe != nil {
			panic(pe)
		}
	}
}

// Plan is a batch of named jobs run with bounded concurrency. Names make
// panic attribution readable ("fig14/(Res50,Res152)" instead of "#3") and
// results come back in Add order.
type Plan[T any] struct {
	names []string
	jobs  []func() T
}

// Add appends a named job.
func (p *Plan[T]) Add(name string, fn func() T) {
	p.names = append(p.names, name)
	p.jobs = append(p.jobs, fn)
}

// Len returns the number of jobs added.
func (p *Plan[T]) Len() int { return len(p.jobs) }

// Run executes the plan on at most parallel workers (<= 0 uses
// DefaultParallel) and returns results in Add order.
func (p *Plan[T]) Run(parallel int) []T {
	out := make([]T, len(p.jobs))
	forEachNamed(len(p.jobs), parallel, p.names, func(i int) { out[i] = p.jobs[i]() })
	return out
}
