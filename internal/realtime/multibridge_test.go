package realtime

import (
	"sync"
	"testing"
	"time"

	"abacus/internal/dnn"
	"abacus/internal/sched"
	"abacus/internal/sim"
)

// TestFlushDoesNotAdvanceSibling pins the drain-ordering contract for a
// sharded gateway: each node owns its own bridge, and Flush on one must drain
// only that node's engine. Bridge A carries a long event chain; bridge B
// holds a single far-future sentinel that only an erroneous cross-bridge
// drain could fire.
func TestFlushDoesNotAdvanceSibling(t *testing.T) {
	engA, engB := sim.NewEngine(), sim.NewEngine()
	a, b := New(engA, Unpaced), New(engB, 1)
	a.StartAnchored(time.Now())
	b.StartAnchored(time.Now())
	defer a.Stop()
	defer b.Stop()

	var chained int
	var sentinelFired bool
	if err := a.Do(func() {
		var step func()
		step = func() {
			chained++
			if chained < 1000 {
				engA.Schedule(1, step)
			}
		}
		engA.Schedule(1, step)
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.Do(func() {
		engB.Schedule(1e9, func() { sentinelFired = true })
	}); err != nil {
		t.Fatal(err)
	}

	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}

	var aNow, bNow sim.Time
	if err := a.Do(func() { aNow = engA.Now() }); err != nil {
		t.Fatal(err)
	}
	if err := b.Do(func() { bNow = engB.Now() }); err != nil {
		t.Fatal(err)
	}
	if chained != 1000 || aNow < 1000 {
		t.Errorf("Flush did not drain its own bridge: chained=%d now=%v", chained, aNow)
	}
	if sentinelFired || bNow >= 1e9 {
		t.Errorf("Flush on one bridge advanced its sibling: sentinel=%v now=%v", sentinelFired, bNow)
	}
}

// TestTwoBridgeFlushIsolationUnderLoad floods one bridge with submit+Flush
// cycles while a sibling serves its own injections: no sibling Do may be
// starved or lost, and both runtimes must emit every query. Run with -race
// this also pins that two loop goroutines share no engine state.
func TestTwoBridgeFlushIsolationUnderLoad(t *testing.T) {
	var resA, resB []*sched.Query
	rtA := newRuntime(t, &resA)
	rtB := newRuntime(t, &resB)
	a := New(rtA.Engine(), Unpaced)
	b := New(rtB.Engine(), Unpaced)
	a.StartAnchored(time.Now())
	b.StartAnchored(time.Now())

	const n = 50
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := a.Do(func() {
				rtA.Submit(0, dnn.Input{Batch: 8}, rtA.Engine().Now())
			}); err != nil {
				t.Error(err)
			}
			if err := a.Flush(); err != nil {
				t.Error(err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := b.Do(func() {
				rtB.Submit(i%2, dnn.Input{Batch: 4}, rtB.Engine().Now())
			}); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	a.Stop()
	b.Stop()
	if len(resA) != n || len(resB) != n {
		t.Errorf("emitted %d/%d queries on A, %d/%d on B", len(resA), n, len(resB), n)
	}
}

// TestAnchoredBridgesShareWallOrigin checks the shared clock discipline: two
// bridges anchored to one epoch derive virtual time from the same wall
// origin, so a bridge started later fast-forwards to where its sibling
// already is instead of beginning at zero.
func TestAnchoredBridgesShareWallOrigin(t *testing.T) {
	epoch := time.Now().Add(-100 * time.Millisecond)
	engA, engB := sim.NewEngine(), sim.NewEngine()
	a, b := New(engA, 1000), New(engB, 1000)
	a.StartAnchored(epoch)
	b.StartAnchored(epoch)
	defer a.Stop()
	defer b.Stop()

	var aNow, bNow sim.Time
	if err := a.Do(func() { aNow = engA.Now() }); err != nil {
		t.Fatal(err)
	}
	if err := b.Do(func() { bNow = engB.Now() }); err != nil {
		t.Fatal(err)
	}
	// The epoch sits 100 wall ms in the past: at speedup 1000 both clocks
	// must open at >= 100 000 virtual ms, where unanchored bridges would
	// read near zero.
	if aNow < 100_000 || bNow < 100_000 {
		t.Errorf("anchored clocks opened at %v / %v, want >= 100000", aNow, bNow)
	}
	// Reads happen in program order against one shared origin, so the second
	// bridge can never be behind the first.
	if bNow < aNow {
		t.Errorf("sibling clocks diverged: second read %v behind first %v", bNow, aNow)
	}
}

func TestStartAnchoredRejectsZeroEpoch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero epoch accepted")
		}
	}()
	New(sim.NewEngine(), 1).StartAnchored(time.Time{})
}
