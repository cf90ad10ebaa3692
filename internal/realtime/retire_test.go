package realtime

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"abacus/internal/sim"
)

// TestRetireFlushesPendingWork pins the retirement contract: every event
// already scheduled on the engine fires before the bridge stops, and the
// returned instant is the terminal clock reading after that drain.
func TestRetireFlushesPendingWork(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, 1) // paced at real time: only Flush can finish this fast
	b.StartAnchored(time.Now())

	var chained int
	if err := b.Do(func() {
		var step func()
		step = func() {
			chained++
			if chained < 500 {
				eng.Schedule(10, step)
			}
		}
		eng.Schedule(10, step)
	}); err != nil {
		t.Fatal(err)
	}

	final, err := b.Retire()
	if err != nil {
		t.Fatalf("Retire: %v", err)
	}
	if chained != 500 {
		t.Errorf("retired with %d/500 events fired", chained)
	}
	if final < 5000 {
		t.Errorf("terminal clock %v, want >= 5000 (500 chained 10ms events)", final)
	}
	if err := b.Do(func() {}); err != ErrStopped {
		t.Errorf("Do after Retire = %v, want ErrStopped", err)
	}
	// Idempotent: a second retirement reports the stop without hanging.
	if _, err := b.Retire(); err != ErrStopped {
		t.Errorf("second Retire = %v, want ErrStopped", err)
	}
}

// TestStopDrainOrder pins the drain-order contract when a bridge stops with
// commands queued behind a busy loop: commands execute in submission order
// with no gaps — if a later command ran, every earlier one from the same
// submitter ran first — and a command reported ErrStopped never runs.
func TestStopDrainOrder(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, Unpaced)
	b.StartAnchored(time.Now())

	gate := make(chan struct{})
	busy := make(chan struct{})
	go func() {
		_ = b.Do(func() { close(busy); <-gate })
	}()
	<-busy // the loop is now wedged; subsequent commands queue

	const n = 3
	var mu sync.Mutex
	var ran []int
	errs := make([]error, n)
	orderDone := make(chan struct{})
	go func() {
		defer close(orderDone)
		for i := 0; i < n; i++ {
			i := i
			errs[i] = b.Do(func() {
				mu.Lock()
				ran = append(ran, i)
				mu.Unlock()
			})
			if errs[i] != nil {
				// Once stopped, every later submission fails too.
				for j := i + 1; j < n; j++ {
					errs[j] = ErrStopped
				}
				return
			}
		}
	}()

	stopDone := make(chan struct{})
	go func() { defer close(stopDone); b.Stop() }()
	// Let the stop signal and the first queued command race, then release
	// the loop: the drain must still honor the contract either way.
	time.Sleep(10 * time.Millisecond)
	close(gate)
	<-stopDone
	<-orderDone

	mu.Lock()
	defer mu.Unlock()
	for i, id := range ran {
		if id != i {
			t.Fatalf("execution order %v, want prefix of 0..%d in order", ran, n-1)
		}
	}
	for i := 0; i < n; i++ {
		executed := i < len(ran)
		if executed && errs[i] != nil {
			t.Errorf("command %d ran but Do returned %v", i, errs[i])
		}
		if !executed && errs[i] == nil {
			t.Errorf("command %d reported success but never ran", i)
		}
	}
}

// TestStopCommandConservation hammers a stopping bridge from many goroutines:
// across every submitter, commands executed must exactly equal Do calls that
// returned nil — no lost commands, no ghost executions, no stranded caller.
func TestStopCommandConservation(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, Unpaced)
	b.StartAnchored(time.Now())

	const workers = 16
	var executed, acked atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if err := b.Do(func() { executed.Add(1) }); err != nil {
					return
				}
				acked.Add(1)
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	if _, err := b.Retire(); err != nil {
		t.Fatalf("Retire under load: %v", err)
	}
	wg.Wait()
	if executed.Load() != acked.Load() {
		t.Errorf("conservation broken: %d commands executed, %d acked", executed.Load(), acked.Load())
	}
	if acked.Load() == 0 {
		t.Error("no commands completed before retirement; test proved nothing")
	}
}
