package realtime

import (
	"math"
	"sync"
	"testing"
	"time"

	"abacus/internal/core"
	"abacus/internal/dnn"
	"abacus/internal/sched"
	"abacus/internal/sim"
)

// newRuntime builds a small Abacus runtime whose sink appends to the
// returned slice (loop-goroutine only; read after Stop).
func newRuntime(t *testing.T, results *[]*sched.Query) *core.Runtime {
	t.Helper()
	rt, err := core.New(core.Config{
		Models:   []dnn.ModelID{dnn.ResNet50, dnn.InceptionV3},
		OnResult: func(q *sched.Query) { *results = append(*results, q) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestUnpacedMatchesOfflineDrain(t *testing.T) {
	submit := func(rt *core.Runtime) {
		rt.Submit(0, dnn.Input{Batch: 8}, 0)
		rt.Submit(1, dnn.Input{Batch: 16}, 1)
		rt.Submit(0, dnn.Input{Batch: 32}, 2)
		rt.Submit(1, dnn.Input{Batch: 4}, 40)
	}

	var offline []*sched.Query
	rtOff := newRuntime(t, &offline)
	submit(rtOff)
	rtOff.Engine().Run()

	var live []*sched.Query
	rtLive := newRuntime(t, &live)
	b := New(rtLive.Engine(), Unpaced)
	b.StartAnchored(time.Now())
	defer b.Stop()
	if err := b.Do(func() { submit(rtLive) }); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	b.Stop()

	if len(live) != len(offline) {
		t.Fatalf("bridge emitted %d queries, offline %d", len(live), len(offline))
	}
	for i := range live {
		l, o := live[i], offline[i]
		if l.ID != o.ID || l.Finish != o.Finish || l.Dropped != o.Dropped {
			t.Errorf("query %d: bridge (id=%d finish=%v dropped=%v), offline (id=%d finish=%v dropped=%v)",
				i, l.ID, l.Finish, l.Dropped, o.ID, o.Finish, o.Dropped)
		}
	}
}

func TestPacingDelaysEvents(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, 100) // 100 virtual ms per wall ms
	b.StartAnchored(time.Now())
	defer b.Stop()

	fired := make(chan sim.Time, 1)
	start := time.Now()
	if err := b.Do(func() {
		eng.Schedule(500, func() { fired <- eng.Now() })
	}); err != nil {
		t.Fatal(err)
	}
	at := <-fired
	elapsed := time.Since(start)
	// 500 virtual ms at speedup 100 is 5 ms of wall time; the event must not
	// fire early. The upper bound is loose to tolerate a loaded host.
	if elapsed < 4*time.Millisecond {
		t.Errorf("event fired after %v of wall time, want >= ~5ms", elapsed)
	}
	if elapsed > 10*time.Second {
		t.Errorf("event fired after %v, pacing stalled", elapsed)
	}
	if at < 500 {
		t.Errorf("event fired at virtual %v, want >= 500", at)
	}
	// The loop publishes its clock when the engine run that fired the event
	// returns, which can be after the event's send; a Do waits for that.
	if err := b.Do(func() {}); err != nil {
		t.Fatal(err)
	}
	if now := b.Now(); now < 500 {
		t.Errorf("published Now() = %v, want >= 500", now)
	}
}

func TestWallSpacedInjectionsGetIncreasingVirtualTimes(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, 1000)
	b.StartAnchored(time.Now())
	defer b.Stop()

	var first, second sim.Time
	if err := b.Do(func() { first = eng.Now() }); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if err := b.Do(func() { second = eng.Now() }); err != nil {
		t.Fatal(err)
	}
	// 5 wall ms at speedup 1000 is 5000 virtual ms.
	if second <= first {
		t.Errorf("virtual time did not advance across injections: %v then %v", first, second)
	}
	if second-first < 1000 {
		t.Errorf("virtual gap %v too small for a 5ms wall gap at speedup 1000", second-first)
	}
}

func TestDoAfterStopReturnsErrStopped(t *testing.T) {
	b := New(sim.NewEngine(), Unpaced)
	b.StartAnchored(time.Now())
	b.Stop()
	b.Stop() // idempotent
	if err := b.Do(func() {}); err != ErrStopped {
		t.Errorf("Do after Stop = %v, want ErrStopped", err)
	}
	if err := b.Flush(); err != ErrStopped {
		t.Errorf("Flush after Stop = %v, want ErrStopped", err)
	}
}

func TestConcurrentInjection(t *testing.T) {
	for _, speedup := range []float64{Unpaced, 20_000} {
		var results []*sched.Query
		rt := newRuntime(t, &results)
		b := New(rt.Engine(), speedup)
		b.StartAnchored(time.Now())

		const n = 24
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				err := b.Do(func() {
					rt.Submit(i%2, dnn.Input{Batch: 4}, rt.Engine().Now())
				})
				if err != nil {
					t.Error(err)
				}
			}(i)
		}
		wg.Wait()
		if err := b.Flush(); err != nil {
			t.Fatal(err)
		}
		b.Stop()
		if len(results) != n {
			t.Errorf("speedup %v: %d results, want %d", speedup, len(results), n)
		}
		for _, q := range results {
			if !q.Dropped && q.Finish < q.Arrival {
				t.Errorf("query %d finished at %v before arrival %v", q.ID, q.Finish, q.Arrival)
			}
		}
	}
}

func TestNewValidation(t *testing.T) {
	for _, bad := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("speedup %v accepted", bad)
				}
			}()
			New(sim.NewEngine(), bad)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil engine accepted")
			}
		}()
		New(nil, 1)
	}()
}

// TestTimerWait pins the loop's sleep for an event gap: rounded up to a
// whole nanosecond, so a sub-nanosecond gap still sleeps, and clamped to
// [0, maxWait].
func TestTimerWait(t *testing.T) {
	for _, c := range []struct {
		gap, speedup float64
		want         time.Duration
	}{
		{1e-9, 1, time.Nanosecond},
		{0, 1, 0},
		{-3, 1, 0},
		{1.5, 1, 1500 * time.Microsecond},
		{1, 1e6, time.Nanosecond},
		{1e300, 1, maxWait},
		{math.Inf(1), 1, maxWait},
	} {
		if got := timerWait(c.gap, c.speedup); got != c.want {
			t.Errorf("timerWait(%v, %v) = %v, want %v", c.gap, c.speedup, got, c.want)
		}
	}
}
