package sim

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Errorf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Errorf("Pending() = %d, want 0", e.Pending())
	}
}

func TestScheduleAndRun(t *testing.T) {
	e := NewEngine()
	var fired []float64
	for _, d := range []float64{5, 1, 3} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.Run()
	want := []float64{1, 3, 5}
	if len(fired) != 3 {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Errorf("fired[%d] = %v, want %v", i, fired[i], want[i])
		}
	}
	if e.Now() != 5 {
		t.Errorf("Now() = %v, want 5", e.Now())
	}
}

func TestSameTimeEventsFireInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(2, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.Schedule(1, func() {
		times = append(times, e.Now())
		e.Schedule(2, func() {
			times = append(times, e.Now())
		})
	})
	e.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Errorf("times = %v, want [1 3]", times)
	}
}

func TestScheduleZeroDelay(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(0, func() { ran = true })
	e.Run()
	if !ran || e.Now() != 0 {
		t.Errorf("zero-delay event: ran=%v now=%v", ran, e.Now())
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("did not panic")
		}
	}()
	e.Schedule(-1, func() {})
}

func TestScheduleAtPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("did not panic")
		}
	}()
	e.ScheduleAt(1, func() {})
}

func TestNilCallbackPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("did not panic")
		}
	}()
	e.Schedule(1, nil)
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	ev := e.Schedule(1, func() { ran = true })
	if !e.Cancel(ev) {
		t.Error("Cancel returned false for a pending event")
	}
	if e.Cancel(ev) {
		t.Error("second Cancel returned true")
	}
	e.Run()
	if ran {
		t.Error("canceled event still fired")
	}
}

func TestCancelZeroHandleIsNoop(t *testing.T) {
	e := NewEngine()
	if e.Cancel(Handle{}) {
		t.Error("Cancel(Handle{}) returned true")
	}
}

func TestCancelFiredEventReturnsFalse(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(1, func() {})
	e.Run()
	if e.Cancel(ev) {
		t.Error("Cancel of a fired event returned true")
	}
}

func TestCancelMiddleEventPreservesOrder(t *testing.T) {
	e := NewEngine()
	var fired []float64
	evs := make([]Handle, 0, 5)
	for _, d := range []float64{1, 2, 3, 4, 5} {
		d := d
		evs = append(evs, e.Schedule(d, func() { fired = append(fired, d) }))
	}
	e.Cancel(evs[2]) // remove t=3
	e.Run()
	want := []float64{1, 2, 4, 5}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Errorf("fired[%d] = %v, want %v", i, fired[i], want[i])
		}
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []float64
	for _, d := range []float64{1, 2, 3, 10} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(5)
	if len(fired) != 3 {
		t.Errorf("fired %v, want events at 1,2,3", fired)
	}
	if e.Now() != 5 {
		t.Errorf("Now() = %v, want 5", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", e.Pending())
	}
	e.Run()
	if e.Now() != 10 || len(fired) != 4 {
		t.Errorf("after Run: now=%v fired=%v", e.Now(), fired)
	}
}

func TestRunUntilAdvancesClockWithEmptyQueue(t *testing.T) {
	e := NewEngine()
	e.RunUntil(42)
	if e.Now() != 42 {
		t.Errorf("Now() = %v, want 42", e.Now())
	}
}

func TestRunUntilPastPanics(t *testing.T) {
	e := NewEngine()
	e.RunUntil(10)
	defer func() {
		if recover() == nil {
			t.Error("did not panic")
		}
	}()
	e.RunUntil(5)
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Error("Step() on empty queue returned true")
	}
}

func TestEventAt(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(7, func() {})
	if ev.At() != 7 {
		t.Errorf("At() = %v, want 7", ev.At())
	}
}

func TestReentrantRunPanics(t *testing.T) {
	e := NewEngine()
	panicked := false
	e.Schedule(1, func() {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		e.Run()
	})
	e.Run()
	if !panicked {
		t.Error("re-entrant Run did not panic")
	}
}

// TestAdvanceToOutsideRun: with no Run/RunUntil active — before any run,
// after one returned, and inside a callback a hand-driven Step fired — the
// engine cannot know what fires next, so AdvanceTo refuses and leaves the
// clock alone.
func TestAdvanceToOutsideRun(t *testing.T) {
	e := NewEngine()
	if e.AdvanceTo(1) {
		t.Error("AdvanceTo on a fresh engine gave true")
	}
	e.Schedule(2, func() {})
	e.Run()
	if e.AdvanceTo(3) {
		t.Error("AdvanceTo after Run had returned gave true")
	}
	inStep := true
	e.Schedule(1, func() { inStep = e.AdvanceTo(4) })
	e.Step()
	if inStep {
		t.Error("AdvanceTo inside a hand-stepped callback gave true")
	}
	if e.Now() != 3 {
		t.Errorf("Now() = %v, want 3: a refused AdvanceTo must not move the clock", e.Now())
	}
}

// TestAdvanceToInsideRun: inside a run, AdvanceTo moves the clock when
// nothing pending is due at or before t, and refuses when an event is due at
// exactly t (it was scheduled first, so it fires first) or earlier.
func TestAdvanceToInsideRun(t *testing.T) {
	e := NewEngine()
	var got []bool
	var at []Time
	e.Schedule(1, func() {
		got = append(got, e.AdvanceTo(3), e.AdvanceTo(5), e.AdvanceTo(2))
		at = append(at, e.Now())
	})
	e.Schedule(3, func() {})
	e.Run()
	if want := []bool{false, false, true}; !slices.Equal(got, want) {
		t.Errorf("AdvanceTo(3, 5, 2) with an event at 3 = %v, want %v", got, want)
	}
	if at[0] != 2 {
		t.Errorf("clock after AdvanceTo(2) = %v, want 2", at[0])
	}
	if e.Now() != 3 {
		t.Errorf("Run ended at %v, want 3", e.Now())
	}
}

// TestAdvanceToRespectsRunUntilBound: RunUntil(d) fires events due at d but
// none later, so AdvanceTo accepts d and refuses anything past it, and the
// run still ends with the clock at exactly d.
func TestAdvanceToRespectsRunUntilBound(t *testing.T) {
	e := NewEngine()
	var past, atBound bool
	e.Schedule(1, func() { past, atBound = e.AdvanceTo(5.5), e.AdvanceTo(5) })
	e.RunUntil(5)
	if past || !atBound {
		t.Errorf("under RunUntil(5): AdvanceTo(5.5) = %v, AdvanceTo(5) = %v; want false, true", past, atBound)
	}
	if e.Now() != 5 {
		t.Errorf("Now() = %v after RunUntil(5)", e.Now())
	}
	mustPanic(t, "AdvanceTo into the past", func() { e.AdvanceTo(4) })
	mustPanic(t, "AdvanceTo(NaN)", func() { e.AdvanceTo(math.NaN()) })
}

// Property: events always fire in non-decreasing time order, and the clock
// never runs backwards, for arbitrary delay sequences including nested
// scheduling.
func TestEventOrderProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var fired []Time
		count := int(n%50) + 1
		var schedule func(depth int)
		schedule = func(depth int) {
			d := rng.Float64() * 10
			e.Schedule(d, func() {
				fired = append(fired, e.Now())
				if depth < 3 && rng.Intn(2) == 0 {
					schedule(depth + 1)
				}
			})
		}
		for i := 0; i < count; i++ {
			schedule(0)
		}
		e.Run()
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: with identical seeds, two engines produce identical firing
// sequences (bit determinism).
func TestDeterminismProperty(t *testing.T) {
	run := func(seed int64) []Time {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var fired []Time
		for i := 0; i < 100; i++ {
			e.Schedule(rng.Float64()*100, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		return fired
	}
	f := func(seed int64) bool {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNextAt(t *testing.T) {
	e := NewEngine()
	if _, ok := e.NextAt(); ok {
		t.Error("NextAt reported an event on an empty queue")
	}
	e.Schedule(7, func() {})
	e.Schedule(3, func() {})
	if at, ok := e.NextAt(); !ok || at != 3 {
		t.Errorf("NextAt = (%v, %v), want (3, true)", at, ok)
	}
	e.Run()
	if _, ok := e.NextAt(); ok {
		t.Error("NextAt reported an event after the queue drained")
	}
}

// --- Event-pool recycling ---

func TestEventPoolReusesFiredEvents(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 100; i++ {
		e.Schedule(1, func() {})
		e.Step()
	}
	// One event in flight at a time: after warm-up the pool serves every
	// Schedule, so at most a couple of Event objects are ever allocated.
	if e.AllocatedEvents() > 2 {
		t.Errorf("AllocatedEvents = %d, want <= 2 (pool should recycle)", e.AllocatedEvents())
	}
	if e.FreeEvents() == 0 {
		t.Error("FreeEvents = 0, want recycled events in the pool")
	}
}

func TestCancelAfterFireIsStale(t *testing.T) {
	e := NewEngine()
	h := e.Schedule(1, func() {})
	e.Run()
	if e.Cancel(h) {
		t.Error("Cancel of a fired event's handle returned true")
	}
}

func TestCancelAfterRecycleCannotKillNewIncarnation(t *testing.T) {
	e := NewEngine()
	stale := e.Schedule(1, func() {})
	e.Run() // fires; the Event object returns to the pool
	ran := false
	fresh := e.Schedule(1, func() { ran = true })
	if fresh.ev != stale.ev {
		t.Fatalf("pool did not reuse the fired event object (alloced %d)", e.AllocatedEvents())
	}
	// The stale handle points at the same Event object but an older
	// generation: it must not cancel the new incarnation.
	if e.Cancel(stale) {
		t.Error("stale handle canceled a recycled event")
	}
	e.Run()
	if !ran {
		t.Error("recycled event did not fire")
	}
	if e.Cancel(fresh) {
		t.Error("fresh handle canceled after its event fired")
	}
}

func TestCancelReturnsEventToPool(t *testing.T) {
	e := NewEngine()
	h := e.Schedule(5, func() {})
	free := e.FreeEvents()
	if !e.Cancel(h) {
		t.Fatal("Cancel returned false for a pending event")
	}
	if e.FreeEvents() != free+1 {
		t.Errorf("FreeEvents = %d after Cancel, want %d", e.FreeEvents(), free+1)
	}
	if e.Cancel(h) {
		t.Error("second Cancel returned true")
	}
}

func TestCancelMidHeapRemoval(t *testing.T) {
	// Cancel an event from the middle of a populated heap, then verify the
	// remaining events still fire in time order and the canceled one never
	// does — heap.Remove repair plus pool recycling must not corrupt order.
	e := NewEngine()
	var fired []float64
	handles := make([]Handle, 0, 9)
	for _, d := range []float64{9, 2, 7, 4, 5, 3, 8, 1, 6} {
		d := d
		handles = append(handles, e.Schedule(d, func() { fired = append(fired, d) }))
	}
	if !e.Cancel(handles[3]) { // t=4, interior heap node
		t.Fatal("mid-heap Cancel returned false")
	}
	if !e.Cancel(handles[0]) { // t=9, near the bottom
		t.Fatal("second mid-heap Cancel returned false")
	}
	e.Run()
	want := []float64{1, 2, 3, 5, 6, 7, 8}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Errorf("fired[%d] = %v, want %v", i, fired[i], want[i])
		}
	}
}

func TestHandleActive(t *testing.T) {
	e := NewEngine()
	h := e.Schedule(1, func() {})
	if !h.Active() {
		t.Error("handle inactive while pending")
	}
	e.Run()
	if h.Active() {
		t.Error("handle active after firing")
	}
	if (Handle{}).Active() {
		t.Error("zero handle reports active")
	}
}

func TestScheduleArgOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	push := func(a any) { got = append(got, a.(int)) }
	e.ScheduleArg(2, push, 1)
	e.ScheduleArgAt(1, push, 0)
	e.ScheduleArg(2, push, 2) // same instant as the first: scheduling order
	e.Run()
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("got %v, want [0 1 2]", got)
	}
}

func TestScheduleArgNilFnPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("did not panic")
		}
	}()
	e.ScheduleArg(1, nil, 7)
}

// Steady-state Schedule/fire and Schedule/Cancel must be allocation-free:
// the pool absorbs every event, and func-value arguments box without
// allocating.
func TestSteadyStateZeroAllocs(t *testing.T) {
	e := NewEngine()
	nop := func(any) {}
	// Warm the pool past the peak population used below.
	for i := 0; i < 8; i++ {
		e.ScheduleArg(1, nop, nil)
	}
	e.Run()
	if allocs := testing.AllocsPerRun(100, func() {
		e.ScheduleArg(1, nop, nil)
		e.Step()
	}); allocs != 0 {
		t.Errorf("Schedule/fire = %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		h := e.ScheduleArg(1, nop, nil)
		e.Cancel(h)
	}); allocs != 0 {
		t.Errorf("Schedule/Cancel = %v allocs/op, want 0", allocs)
	}
}

// Pool state must be invisible to the virtual clock: a prewarmed (or
// churned) engine replays an identical workload with identical firing
// times as a cold one.
func TestPoolTransparency(t *testing.T) {
	replay := func(e *Engine) []Time {
		base := e.Now()
		var fired []Time
		rng := rand.New(rand.NewSource(42))
		record := func(any) { fired = append(fired, e.Now()-base) }
		var handles []Handle
		for i := 0; i < 200; i++ {
			handles = append(handles, e.ScheduleArg(rng.Float64()*50, record, nil))
		}
		for i := 0; i < len(handles); i += 3 {
			e.Cancel(handles[i])
		}
		e.Run()
		return fired
	}

	cold := replay(NewEngine())

	warm := NewEngine()
	warm.Prewarm(64)
	prewarmed := replay(warm)

	// Grow and churn the pool organically without advancing the clock, so
	// the replayed times stay exactly comparable to the cold engine's.
	churned := NewEngine()
	for i := 0; i < 500; i++ {
		churned.Schedule(0, func() {})
	}
	churned.Run()
	churnedRun := replay(churned)

	for name, got := range map[string][]Time{"prewarmed": prewarmed, "churned": churnedRun} {
		if len(got) != len(cold) {
			t.Fatalf("%s fired %d events, cold fired %d", name, len(got), len(cold))
		}
		for i := range cold {
			if got[i] != cold[i] {
				t.Fatalf("%s diverged at event %d: %v vs cold %v", name, i, got[i], cold[i])
			}
		}
	}
}
