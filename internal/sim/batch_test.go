package sim

import (
	"math"
	"slices"
	"testing"
)

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

// A NaN time compares false with everything, so the old `t < now` guard let
// it into the heap, where it broke the order of every later event.
func TestNaNTimePanics(t *testing.T) {
	nan := math.NaN()
	nop := func(any) {}
	mustPanic(t, "ScheduleAt(NaN)", func() { NewEngine().ScheduleAt(nan, func() {}) })
	mustPanic(t, "ScheduleArgAt(NaN)", func() { NewEngine().ScheduleArgAt(nan, nop, nil) })
	mustPanic(t, "Schedule(NaN)", func() { NewEngine().Schedule(nan, func() {}) })
	mustPanic(t, "ScheduleArg(NaN)", func() { NewEngine().ScheduleArg(nan, nop, nil) })
	mustPanic(t, "ScheduleBatch(NaN)", func() { NewEngine().ScheduleBatch([]Time{1, nan, 2}, func(int) {}) })
}

func TestInfiniteTimeIsLegal(t *testing.T) {
	e := NewEngine()
	var fired []int
	e.ScheduleAt(math.Inf(1), func() { fired = append(fired, 0) })
	e.ScheduleBatch([]Time{math.Inf(1), 3}, func(i int) { fired = append(fired, 1+i) })
	e.Run()
	if want := []int{2, 0, 1}; !slices.Equal(fired, want) {
		t.Errorf("fired %v, want %v", fired, want)
	}
	if !math.IsInf(e.Now(), 1) {
		t.Errorf("Now = %v, want +Inf", e.Now())
	}
}

func TestScheduleBatchRejectsBadInput(t *testing.T) {
	mustPanic(t, "nil fn", func() { NewEngine().ScheduleBatch([]Time{1}, nil) })
	e := NewEngine()
	e.RunUntil(5)
	mustPanic(t, "time before now", func() { e.ScheduleBatch([]Time{6, 4}, func(int) {}) })
	if e.Pending() != 0 {
		t.Errorf("a rejected batch left %d events pending", e.Pending())
	}
}

func TestScheduleBatchEmpty(t *testing.T) {
	e := NewEngine()
	e.ScheduleBatch(nil, func(int) { t.Error("fired") })
	if e.Pending() != 0 || e.Step() {
		t.Error("an empty batch scheduled something")
	}
}

// The batch's members interleave with individually scheduled events exactly
// as if each had been scheduled on its own at the ScheduleBatch call: by
// time, then by scheduling order — events scheduled before the batch win a
// tie, events scheduled after it (even from inside a member) lose it.
func TestScheduleBatchTieBreaking(t *testing.T) {
	e := NewEngine()
	var fired []string
	log := func(s string) func() { return func() { fired = append(fired, s) } }
	e.ScheduleAt(2, log("before@2"))
	names := []string{"b0@2", "b1@1", "b2@2", "b3@1"}
	e.ScheduleBatch([]Time{2, 1, 2, 1}, func(i int) {
		fired = append(fired, names[i])
		if i == 1 {
			e.Schedule(0, log("nested@1"))
			e.Schedule(1, log("nested@2"))
		}
	})
	e.ScheduleAt(1, log("after@1"))
	e.ScheduleAt(2, log("after@2"))
	if e.Pending() != 7 {
		t.Errorf("Pending = %d, want 7", e.Pending())
	}
	e.Run()
	want := []string{"b1@1", "b3@1", "after@1", "nested@1", "before@2", "b0@2", "b2@2", "after@2", "nested@2"}
	if !slices.Equal(fired, want) {
		t.Errorf("fired %v\n want %v", fired, want)
	}
}

// A member sees the rest of its batch as pending: the next member is queued
// before fn runs.
func TestScheduleBatchArmsNextBeforeFiring(t *testing.T) {
	e := NewEngine()
	times := []Time{1, 4, 9}
	e.ScheduleBatch(times, func(i int) {
		at, ok := e.NextAt()
		if i+1 < len(times) {
			if !ok || at != times[i+1] || e.Pending() != len(times)-1-i {
				t.Errorf("member %d: NextAt = %v,%v Pending = %d", i, at, ok, e.Pending())
			}
		} else if ok || e.Pending() != 0 {
			t.Errorf("last member: NextAt = %v,%v Pending = %d", at, ok, e.Pending())
		}
	})
	e.Run()
}

// A batch costs the same few objects whatever its size: the batch record
// and the caller's closure, plus the order index when times is unsorted.
func TestScheduleBatchAllocations(t *testing.T) {
	for _, n := range []int{1, 10, 10000} {
		times := make([]Time, n)
		for i := range times {
			times[i] = Time(i / 2) // ascending, with ties
		}
		e := NewEngine()
		e.Prewarm(1)
		var fired int
		allocs := testing.AllocsPerRun(5, func() {
			e.ScheduleBatch(times, func(int) { fired++ })
			for e.Step() {
			}
			e.now = 0 // rewind, so the same times can be scheduled again
		})
		if allocs > 3 {
			t.Errorf("sorted batch of %d: %v allocs, want <= 3", n, allocs)
		}
		if fired != 6*n {
			t.Errorf("batch of %d fired %d members over 6 runs", n, fired)
		}
		if e.AllocatedEvents() != 1 {
			t.Errorf("batch of %d allocated %d events, want the 1 prewarmed", n, e.AllocatedEvents())
		}
	}
}

// Sifting through a deep queue allocates nothing either: TestSteadyStateZeroAllocs
// runs on a near-empty heap, this one on 4096 parked events.
func TestDeepHeapZeroAllocs(t *testing.T) {
	e := NewEngine()
	nop := func(any) {}
	for i := 0; i < 4096; i++ {
		e.ScheduleArgAt(1e9+Time(i%64), nop, nil)
	}
	e.Prewarm(2)
	if allocs := testing.AllocsPerRun(100, func() {
		h := e.ScheduleArg(2, nop, nil)
		e.ScheduleArg(1, nop, nil)
		e.Step()
		e.Cancel(h)
	}); allocs != 0 {
		t.Errorf("schedule/fire/cancel under 4096 parked events = %v allocs/op, want 0", allocs)
	}
}
