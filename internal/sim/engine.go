// Package sim implements the deterministic discrete-event simulation engine
// that drives the Abacus reproduction. All simulated time is expressed in
// milliseconds on a virtual clock. Events scheduled for the same instant are
// executed in scheduling order, so a run is bit-for-bit reproducible.
//
// The engine recycles event objects through an intrusive free list: firing
// or canceling an event returns it to the pool, so steady-state scheduling
// is allocation-free. Handles returned by Schedule are generation-counted —
// a handle kept past its event's firing (or cancellation) goes stale and
// can never cancel the recycled event's next incarnation. Pool state is
// invisible to the virtual clock: a warm engine and a cold engine replay
// identical workloads identically.
//
// The pending queue is a 4-ary min-heap whose slots carry the ordering key
// (time, sequence number) inline, so sifting compares and moves plain values
// and touches an Event only to record its new position. That total order is
// the engine's only ordering contract.
package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Time is a point on (or a span of) the virtual clock, in milliseconds.
type Time = float64

// Event is a pooled scheduled callback. Callers never hold *Event directly;
// Schedule returns a generation-counted Handle instead, so recycled events
// cannot be canceled through stale references.
type Event struct {
	index int    // heap index; -1 once popped or canceled
	gen   uint64 // bumped on every recycle; stale handles fail the check
	fn    func(any)
	arg   any
	next  *Event // free-list link while pooled
}

// Handle identifies one scheduled event incarnation. The zero Handle is
// inert: Cancel returns false and At returns 0. A Handle kept after its
// event fired or was canceled is stale — Cancel on it is a no-op even if
// the underlying Event object has been recycled for a new incarnation.
type Handle struct {
	ev  *Event
	gen uint64
	at  Time
}

// At returns the virtual time the event is (or was) scheduled to fire.
func (h Handle) At() Time { return h.at }

// Active reports whether the handle's event incarnation is still pending.
func (h Handle) Active() bool {
	return h.ev != nil && h.ev.gen == h.gen && h.ev.index >= 0
}

// arity is the heap's fan-out. Four children per node halve the depth of a
// binary heap and keep one node's children in 96 contiguous bytes; 2 and 8
// both measured slower on BenchmarkEngineParked.
const arity = 4

// slot is one heap entry. The key lives in the slot, not behind ev, so the
// comparisons of a sift never dereference an event.
type slot struct {
	at  Time
	seq uint64
	ev  *Event
}

// before reports whether a fires before b: earlier time first, scheduling
// order within one instant.
func (a *slot) before(b *slot) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// up places s at or above position i, shifting later ancestors down.
func (e *Engine) up(i int, s slot) {
	h := e.pending
	for i > 0 {
		p := (i - 1) / arity
		if !s.before(&h[p]) {
			break
		}
		h[i] = h[p]
		h[i].ev.index = i
		i = p
	}
	h[i] = s
	s.ev.index = i
}

// down places s at or below position i, shifting earlier children up.
func (e *Engine) down(i int, s slot) {
	h := e.pending
	for {
		c := i*arity + 1
		if c >= len(h) {
			break
		}
		m := c
		for j, end := c+1, min(c+arity, len(h)); j < end; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&s) {
			break
		}
		h[i] = h[m]
		h[i].ev.index = i
		i = m
	}
	h[i] = s
	s.ev.index = i
}

// remove takes the entry at position i out of the queue and returns it.
func (e *Engine) remove(i int) slot {
	h := e.pending
	out := h[i]
	n := len(h) - 1
	last := h[n]
	h[n] = slot{}
	e.pending = h[:n]
	if i < n {
		if i > 0 && last.before(&h[(i-1)/arity]) {
			e.up(i, last)
		} else {
			e.down(i, last)
		}
	}
	out.ev.index = -1
	return out
}

// Engine is a single-threaded discrete-event simulator. The zero value is
// not usable; construct with NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	pending []slot // 4-ary min-heap on (at, seq)
	parked  int    // ScheduleBatch members not yet in pending
	free    *Event // intrusive free list of recycled events
	freeLen int
	alloced int // total Event objects ever allocated (diagnostics)
	running bool
	bound   Time // last instant the active Run/RunUntil fires; valid while running
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time in milliseconds.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of scheduled, not-yet-fired events.
func (e *Engine) Pending() int { return len(e.pending) + e.parked }

// FreeEvents reports the number of recycled events waiting in the pool.
func (e *Engine) FreeEvents() int { return e.freeLen }

// AllocatedEvents reports the total number of Event objects this engine has
// ever allocated — in steady state it stops growing: every Schedule is
// served from the free list.
func (e *Engine) AllocatedEvents() int { return e.alloced }

// Prewarm stocks the free list with n events so even the first scheduling
// burst allocates nothing. Pool state never affects the virtual clock;
// tests use Prewarm to pin that transparency.
func (e *Engine) Prewarm(n int) {
	for i := 0; i < n; i++ {
		ev := &Event{index: -1}
		e.alloced++
		ev.next = e.free
		e.free = ev
		e.freeLen++
	}
}

// NextAt returns the timestamp of the earliest pending event, or false when
// the queue is empty. Real-time drivers use it to decide how long to sleep
// before the next event is due.
func (e *Engine) NextAt() (Time, bool) {
	if len(e.pending) == 0 {
		return 0, false
	}
	return e.pending[0].at, true
}

// acquire returns a pooled event, allocating only when the pool is dry.
func (e *Engine) acquire() *Event {
	if ev := e.free; ev != nil {
		e.free = ev.next
		ev.next = nil
		e.freeLen--
		return ev
	}
	e.alloced++
	return &Event{index: -1}
}

// recycle bumps the event's generation (invalidating outstanding handles),
// clears its payload, and returns it to the free list.
func (e *Engine) recycle(ev *Event) {
	ev.gen++
	ev.fn = nil
	ev.arg = nil
	ev.next = e.free
	e.free = ev
	e.freeLen++
}

// callFunc0 adapts a plain func() callback to the engine's (fn, arg) event
// payload. Func values are pointer-shaped, so boxing one into the arg
// interface does not allocate.
func callFunc0(a any) { a.(func())() }

// Schedule registers fn to run after delay milliseconds of virtual time and
// returns a handle that can be passed to Cancel. A negative delay panics:
// scheduling into the past would break causality.
func (e *Engine) Schedule(delay Time, fn func()) Handle {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt registers fn to run at absolute virtual time t. It panics if t
// is before the current time or NaN.
func (e *Engine) ScheduleAt(t Time, fn func()) Handle {
	if fn == nil {
		panic("sim: nil event callback")
	}
	return e.ScheduleArgAt(t, callFunc0, fn)
}

// ScheduleArg registers fn(arg) to run after delay milliseconds. It is the
// allocation-free variant of Schedule: fn is typically a package-level
// function and arg a long-lived pointer, so no closure is created and the
// pooled event is the only storage — 0 allocs/op in steady state.
func (e *Engine) ScheduleArg(delay Time, fn func(any), arg any) Handle {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.ScheduleArgAt(e.now+delay, fn, arg)
}

// ScheduleArgAt registers fn(arg) to run at absolute virtual time t. It
// panics if t is before the current time or NaN, or fn is nil.
func (e *Engine) ScheduleArgAt(t Time, fn func(any), arg any) Handle {
	e.checkTime(t)
	if fn == nil {
		panic("sim: nil event callback")
	}
	ev := e.enqueue(t, e.seq, fn, arg)
	e.seq++
	return Handle{ev: ev, gen: ev.gen, at: t}
}

// checkTime panics unless t is a time the queue can order: not before now,
// and not NaN, which compares false with everything and would corrupt the
// heap silently. +Inf is legal.
func (e *Engine) checkTime(t Time) {
	if !(t >= e.now) {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
}

// enqueue puts a pooled event carrying fn(arg) into the queue under (t, seq).
func (e *Engine) enqueue(t Time, seq uint64, fn func(any), arg any) *Event {
	ev := e.acquire()
	ev.fn = fn
	ev.arg = arg
	e.pending = append(e.pending, slot{})
	e.up(len(e.pending)-1, slot{t, seq, ev})
	return ev
}

// batch is the state of one ScheduleBatch call: the members' times, their
// firing order, and how far along it the engine is.
type batch struct {
	eng   *Engine
	times []Time
	order []int // member indices by (time, index); nil when times ascends
	seq   uint64
	next  int // position in the firing order of the member now in the queue
	fn    func(i int)
}

// ScheduleBatch registers fn(i) to run at times[i] for every i. It is exactly
// equivalent — same firing order against every other event, bit for bit — to
// calling ScheduleAt(times[i], func() { fn(i) }) for i in index order, but
// keeps one queue slot for the whole batch instead of len(times): only the
// earliest unfired member is queued, and firing it queues the next before
// fn runs. A host that knows its arrivals up front therefore does not make
// every other event sift through them.
//
// The caller must leave times unmodified until the last member has fired,
// and members cannot be canceled. It panics like ScheduleAt on a time before
// now, a NaN time, or a nil fn.
func (e *Engine) ScheduleBatch(times []Time, fn func(i int)) {
	if fn == nil {
		panic("sim: nil event callback")
	}
	sorted := true
	for i, t := range times {
		e.checkTime(t)
		sorted = sorted && (i == 0 || times[i-1] <= t)
	}
	if len(times) == 0 {
		return
	}
	b := &batch{eng: e, times: times, seq: e.seq, fn: fn}
	if !sorted {
		b.order = make([]int, len(times))
		for i := range b.order {
			b.order[i] = i
		}
		slices.SortFunc(b.order, func(i, j int) int {
			return cmp.Or(cmp.Compare(times[i], times[j]), i-j)
		})
	}
	e.seq += uint64(len(times))
	e.parked += len(times)
	b.arm()
}

// member returns the index of the k-th member in firing order.
func (b *batch) member(k int) int {
	if b.order == nil {
		return k
	}
	return b.order[k]
}

// arm queues the batch's next member under the key it would have had if
// scheduled on its own.
func (b *batch) arm() {
	i := b.member(b.next)
	b.eng.parked--
	b.eng.enqueue(b.times[i], b.seq+uint64(i), fireBatch, b)
}

func fireBatch(a any) {
	b := a.(*batch)
	i := b.member(b.next)
	b.next++
	if b.next < len(b.times) {
		b.arm()
	}
	b.fn(i)
}

// Cancel removes a scheduled event. Canceling an event that already fired,
// was already canceled, or whose Event object has since been recycled for a
// newer incarnation is a no-op and returns false.
func (e *Engine) Cancel(h Handle) bool {
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.index < 0 {
		return false
	}
	e.remove(ev.index)
	e.recycle(ev)
	return true
}

// Step fires the earliest pending event, advancing the clock to its time. It
// returns false when no events are pending. The event is recycled before
// its callback runs, so a callback that immediately reschedules reuses the
// just-fired event object.
func (e *Engine) Step() bool {
	if len(e.pending) == 0 {
		return false
	}
	s := e.remove(0)
	e.now = s.at
	fn, arg := s.ev.fn, s.ev.arg
	e.recycle(s.ev)
	fn(arg)
	return true
}

// AdvanceTo reports whether an event scheduled now for time t would be the
// next one the active Run or RunUntil fires, and if so moves the clock to t
// so the caller can do that event's work in place instead. That holds only
// when a run loop is active (never under a hand-driven Step loop, whose
// bound the engine cannot know), t is within the loop's bound, and every
// pending event is due strictly after t — one due at exactly t was scheduled
// earlier and fires first. The caller must be an event callback with nothing
// left to do after the call but that work, since in the queued version
// nothing would run between scheduling and the next pop. The sequence number
// the event would have taken is never consumed; later events' numbers shift
// down together and only their order is ever compared, so the run is the
// same bit for bit. It panics like ScheduleAt on a time before now or NaN.
func (e *Engine) AdvanceTo(t Time) bool {
	e.checkTime(t)
	if !e.running || t > e.bound || (len(e.pending) > 0 && e.pending[0].at <= t) {
		return false
	}
	e.now = t
	return true
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	e.guardReentry(math.Inf(1))
	defer func() { e.running = false }()
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline and then advances the
// clock to exactly deadline (even if the queue drained earlier).
func (e *Engine) RunUntil(deadline Time) {
	if deadline < e.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) before now %v", deadline, e.now))
	}
	e.guardReentry(deadline)
	defer func() { e.running = false }()
	for len(e.pending) > 0 && e.pending[0].at <= deadline {
		e.Step()
	}
	e.now = deadline
}

func (e *Engine) guardReentry(bound Time) {
	if e.running {
		panic("sim: engine run loop re-entered")
	}
	e.running = true
	e.bound = bound
}
