package experiments

import (
	"reflect"
	"testing"

	"abacus/internal/runner"
)

// setParallel sets the runner's default worker count, restoring the
// previous one when the test ends.
func setParallel(t *testing.T, n int) {
	prev := runner.DefaultParallel()
	t.Cleanup(func() { runner.SetDefaultParallel(prev) })
	runner.SetDefaultParallel(n)
}

// TestFig14ParallelDeterminism is the harness's regression gate: the same
// experiment run serially and with 8 workers must produce byte-identical
// tables. Every sweep job owns its engine, sampler, and RNG (seeded by job
// index), and runner.Map returns results in submission order, so goroutine
// interleaving must not be observable in the output.
func TestFig14ParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig14 twice; skipped in -short")
	}
	opts := Quick()
	setParallel(t, 1)
	serial := Fig14(opts)
	setParallel(t, 8)
	parallel := Fig14(opts)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("fig14 differs between parallel=1 and parallel=8:\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}
}

// TestSegmentsParallelDeterminism covers a second, structurally different
// sweep (per-deployment packing statistics with per-job generators).
func TestSegmentsParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs segments twice; skipped in -short")
	}
	opts := Quick()
	setParallel(t, 1)
	serial := Segments(opts)
	setParallel(t, 8)
	parallel := Segments(opts)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("segments differs between parallel=1 and parallel=8:\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}
}
