package sim

import (
	"math/rand"
	"testing"
)

func BenchmarkScheduleAndFire(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(1, func() {})
		e.Step()
	}
}

func BenchmarkHeapChurn(b *testing.B) {
	// Keep 1024 pending events while scheduling/firing — the steady-state
	// shape of a busy device simulation.
	e := NewEngine()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1024; i++ {
		e.Schedule(rng.Float64()*100, func() {})
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+rng.Float64()*100-e.Now(), func() {})
		e.Step()
	}
}

func BenchmarkCancel(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev := e.Schedule(float64(i)+1, func() {})
		e.Cancel(ev)
	}
}

func BenchmarkScheduleArgAndFire(b *testing.B) {
	e := NewEngine()
	nop := func(any) {}
	e.ScheduleArg(1, nop, nil)
	e.Run()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.ScheduleArg(1, nop, nil)
		e.Step()
	}
}

func BenchmarkScheduleArgHeapChurn(b *testing.B) {
	// The 1024-pending steady-state shape of BenchmarkHeapChurn, on the
	// allocation-free ScheduleArg path.
	e := NewEngine()
	nop := func(any) {}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1024; i++ {
		e.ScheduleArg(rng.Float64()*100, nop, nil)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.ScheduleArg(rng.Float64()*100, nop, nil)
		e.Step()
	}
}

// parkedArrivals is the number of far-future events the parked benchmarks
// hold: a 60 s rung of the peak-QPS ladder or a diurnal day pre-schedules
// 4–7 k arrivals before the first kernel runs.
const parkedArrivals = 8192

func parkedTimes() []Time {
	times := make([]Time, parkedArrivals)
	for i := range times {
		times[i] = 1e12 + Time(i)
	}
	return times
}

// rescheduleCycle is what one kernel launch costs the queue in gpusim: the
// launch event fires, Device.reschedule cancels the pending completion and
// arms a new one, and that completion fires.
func rescheduleCycle(b *testing.B, e *Engine) {
	nop := func(any) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		completion := e.ScheduleArg(2, nop, nil)
		e.ScheduleArg(1, nop, nil)
		e.Step()
		e.Cancel(completion)
		e.ScheduleArg(0.5, nop, nil)
		e.Step()
	}
}

// BenchmarkEngineParked is the worst case BenchmarkHeapChurn's uniformly
// spread 1024 events hide: every near-future event sifts past a host's
// whole parked arrival schedule, one ScheduleAt per arrival.
func BenchmarkEngineParked(b *testing.B) {
	e := NewEngine()
	for _, t := range parkedTimes() {
		e.ScheduleArgAt(t, func(any) {}, nil)
	}
	rescheduleCycle(b, e)
}

// BenchmarkEngineBatch parks the same arrivals through ScheduleBatch, which
// holds one queue slot for all of them.
func BenchmarkEngineBatch(b *testing.B) {
	e := NewEngine()
	e.ScheduleBatch(parkedTimes(), func(int) {})
	rescheduleCycle(b, e)
}
