package sim

import (
	"cmp"
	"math"
	"slices"
	"testing"
)

// orderQueue is what the differential test drives: the engine, and a
// reference that is obviously right. Handles are reduced to their cancel
// function so the two can share one interpreter.
type orderQueue interface {
	Now() Time
	NextAt() (Time, bool)
	Pending() int
	ScheduleAt(t Time, fn func()) (cancel func() bool)
	ScheduleArg(delay Time, fn func(any), arg any) (cancel func() bool)
	ScheduleBatch(times []Time, fn func(i int))
	Step() bool
	RunUntil(deadline Time)
	AdvanceTo(t Time) bool
	Horizon() (bound, next Time)
}

type realQueue struct{ *Engine }

func (q realQueue) ScheduleAt(t Time, fn func()) func() bool {
	h := q.Engine.ScheduleAt(t, fn)
	return func() bool { return q.Cancel(h) }
}

func (q realQueue) ScheduleArg(delay Time, fn func(any), arg any) func() bool {
	h := q.Engine.ScheduleArg(delay, fn, arg)
	return func() bool { return q.Cancel(h) }
}

// refQueue is the ordering contract written down: a slice of events kept
// sorted by (at, seq), whose first fires next, ScheduleBatch is by
// definition one ScheduleAt per member in index order, and AdvanceTo and
// Horizon never let anything fire in place: the program then queues the
// event instead.
type refQueue struct {
	now    Time
	seq    uint64
	events []refEvent
}

type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

func (q *refQueue) Now() Time    { return q.now }
func (q *refQueue) Pending() int { return len(q.events) }

// compareRef is the order events fire in: by time, then by scheduling
// order.
func compareRef(a, b refEvent) int {
	return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
}

func (q *refQueue) NextAt() (Time, bool) {
	if len(q.events) == 0 {
		return 0, false
	}
	return q.events[0].at, true
}

func (q *refQueue) ScheduleAt(t Time, fn func()) func() bool {
	seq := q.seq
	q.seq++
	ev := refEvent{t, seq, fn}
	i, _ := slices.BinarySearchFunc(q.events, ev, compareRef)
	q.events = slices.Insert(q.events, i, ev)
	return func() bool {
		i := slices.IndexFunc(q.events, func(e refEvent) bool { return e.seq == seq })
		if i < 0 {
			return false
		}
		q.events = slices.Delete(q.events, i, i+1)
		return true
	}
}

func (q *refQueue) ScheduleArg(delay Time, fn func(any), arg any) func() bool {
	return q.ScheduleAt(q.now+delay, func() { fn(arg) })
}

func (q *refQueue) ScheduleBatch(times []Time, fn func(i int)) {
	for i, t := range times {
		q.ScheduleAt(t, func() { fn(i) })
	}
}

func (q *refQueue) Step() bool {
	if len(q.events) == 0 {
		return false
	}
	ev := q.events[0]
	q.events = q.events[1:]
	q.now = ev.at
	ev.fn()
	return true
}

func (q *refQueue) AdvanceTo(Time) bool { return false }

func (q *refQueue) Horizon() (bound, next Time) { return math.Inf(-1), math.Inf(1) }

func (q *refQueue) RunUntil(deadline Time) {
	for {
		at, ok := q.NextAt()
		if !ok || at > deadline {
			break
		}
		q.Step()
	}
	q.now = deadline
}

// offsets are the time steps a program can name. They are multiples of 0.5
// and repeat, so exact ties — between batch members, and between members
// and dynamic events — are the common case, not the rare one.
var offsets = [8]Time{0, 0, 0.5, 1, 1, 2.5, 7, math.Inf(1)}

// obs is one thing a program observed: an event firing, or a return value.
type obs struct {
	kind byte
	id   int
	t    Time
	ok   bool
}

// runOrderProgram interprets prog against q and returns everything the
// program could observe. Each op is one byte, its operands the bytes after
// it; a program that runs out of bytes reads zeros. Fired events read
// operands too — they schedule and cancel from inside callbacks — so two
// queues that fire in a different order diverge in the log at once.
func runOrderProgram(q orderQueue, prog []byte) []obs {
	var log []obs
	var cancels []func() bool
	var nextID int
	next := func() byte {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return b
	}
	// at returns a time a program byte names, relative to now; once the
	// clock has reached +Inf every time is +Inf.
	at := func() Time { return q.Now() + offsets[next()%8] }
	cancel := func() {
		if len(cancels) == 0 {
			return
		}
		i := int(next()) % len(cancels)
		log = append(log, obs{kind: 'c', id: i, ok: cancels[i]()})
	}
	var fire func(id int)
	var steps func(id int, gaps []Time)
	newID := func() int { nextID++; return nextID }
	scheduleOne := func(arg bool) {
		id := newID()
		if arg {
			cancels = append(cancels, q.ScheduleArg(offsets[next()%8], func(a any) { fire(a.(int)) }, id))
		} else {
			cancels = append(cancels, q.ScheduleAt(at(), func() { fire(id) }))
		}
	}
	fire = func(id int) {
		log = append(log, obs{kind: 'f', id: id, t: q.Now()})
		// Every reaction costs a byte, so every program terminates.
		if len(prog) == 0 {
			return
		}
		switch next() % 8 {
		case 0:
			scheduleOne(false)
		case 1:
			scheduleOne(true)
		case 2:
			cancel()
		case 3:
			// A new event at a program-named time, fired in place when the
			// queue proves it is next. This is the callback's last action,
			// as AdvanceTo requires; the reference always queues it.
			id, t := newID(), at()
			if q.AdvanceTo(t) {
				cancels = append(cancels, func() bool { return false })
				fire(id)
			} else {
				cancels = append(cancels, q.ScheduleAt(t, func() { fire(id) }))
			}
		case 4:
			// A chain of steps, each due a program-named gap after the one
			// before, run from here with no reaction of their own.
			gaps := make([]Time, 1+next()%4)
			for i := range gaps {
				gaps[i] = offsets[next()%8]
			}
			steps(newID(), gaps)
		}
	}
	// steps runs a chain as a device's loop does: it reads the horizon
	// once, takes each step the horizon admits in place on a local clock,
	// sets the clock once, and queues the first step it does not admit,
	// whose firing runs the rest the same way. The reference queues every
	// step.
	steps = func(id int, gaps []Time) {
		bound, horizon := q.Horizon()
		now := q.Now()
		for len(gaps) > 0 {
			t := now + gaps[0]
			if !(t <= bound && t < horizon) {
				break
			}
			now, gaps = t, gaps[1:]
			log = append(log, obs{kind: 'h', id: id, t: now})
		}
		q.AdvanceTo(now)
		if len(gaps) > 0 {
			rest := gaps[1:]
			q.ScheduleAt(now+gaps[0], func() {
				log = append(log, obs{kind: 'h', id: id, t: q.Now()})
				steps(id, rest)
			})
		}
	}
	for len(prog) > 0 {
		switch op := next() % 8; op {
		case 0:
			scheduleOne(false)
		case 1:
			scheduleOne(true)
		case 2, 3: // batch: 2 ascending (ties included), 3 in any order
			times := make([]Time, next()%6)
			base := q.Now()
			for i := range times {
				if op == 2 {
					base += offsets[next()%8]
					times[i] = base
				} else {
					times[i] = at()
				}
			}
			first := nextID + 1
			nextID += len(times)
			q.ScheduleBatch(times, func(i int) { fire(first + i) })
		case 4:
			cancel()
		case 5, 6:
			log = append(log, obs{kind: 's', ok: q.Step()})
		case 7:
			q.RunUntil(at())
		}
		t, ok := q.NextAt()
		log = append(log, obs{kind: 'n', id: q.Pending(), t: t, ok: ok}, obs{kind: 't', t: q.Now()})
	}
	for q.Step() {
	}
	return append(log, obs{kind: 't', t: q.Now()})
}

// FuzzEngineOrder checks the engine's one ordering contract — events fire
// by (time, scheduling order), whichever of ScheduleAt, ScheduleArg and
// ScheduleBatch queued them and whatever was canceled or recycled in
// between, and an event AdvanceTo or Horizon let fire in place is the one
// that would have fired next — against the reference above.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 0, 3, 0, 2, 5, 5, 5})                                  // ties fire in scheduling order
	f.Add([]byte{2, 5, 1, 0, 2, 0, 3, 0, 2, 5, 5, 0, 0, 5, 5, 5, 5})          // sorted batch vs dynamic events
	f.Add([]byte{3, 5, 6, 2, 6, 2, 3, 0, 3, 5, 1, 4, 5, 2, 0, 5, 5, 5})       // unsorted batch, member ties
	f.Add([]byte{0, 3, 5, 4, 0, 1, 2, 4, 0, 4, 1, 5, 4, 0})                   // cancel fired, live, stale
	f.Add([]byte{0, 7, 2, 3, 2, 7, 0, 7, 3, 5, 5, 0, 2, 5, 5})                // +Inf
	f.Add([]byte{3, 4, 3, 3, 3, 3, 7, 3, 0, 0, 1, 1, 2, 0, 7, 5, 7, 6, 4, 0}) // RunUntil through a batch
	f.Add([]byte{0, 3, 0, 5, 7, 7, 3, 2, 3, 3, 0, 0, 3, 6, 0, 5, 5})          // in place, then a tie queues
	f.Add([]byte{0, 3, 7, 3, 3, 6, 0, 3, 5, 3, 2, 5, 5})                      // in place past the RunUntil bound
	f.Add([]byte{0, 3, 7, 2, 0, 0, 5, 3, 0, 5, 5})                            // a hand Step after RunUntil refuses
	f.Add([]byte{0, 2, 7, 6, 4, 3, 3, 3, 2, 3})                               // a chain of steps all in place
	f.Add([]byte{0, 5, 0, 2, 7, 6, 4, 3, 3, 3, 2, 3, 0, 0})                   // a chain stopped by a pending event, twice
	f.Add([]byte{0, 2, 5, 4, 2, 2, 3, 7, 6, 5})                               // a chain under a hand Step queues
	// Cancel an entry whose replacement, the heap's last, belongs above it:
	// the removal must sift up, not only down.
	f.Add([]byte{0, 0, 0, 5, 0, 2, 0, 6, 0, 6, 0, 6, 0, 6, 0, 6, 0, 6, 0, 3, 4, 5,
		5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5})
	f.Fuzz(func(t *testing.T, prog []byte) {
		got := runOrderProgram(realQueue{NewEngine()}, prog)
		want := runOrderProgram(&refQueue{}, prog)
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Fatalf("observation %d diverges\nengine    %c %+v\nreference %c %+v",
					i, got[i].kind, got[i], want[i].kind, want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("engine observed %d things, reference %d", len(got), len(want))
		}
	})
}
