// Package realtime bridges the deterministic discrete-event engine to the
// wall clock, turning the batch simulator into a live runtime. A Bridge owns
// a sim.Engine on a single loop goroutine fed by one queue: virtual time is
// paced against time.Now with a configurable speedup factor, external work
// is posted to the queue as it occurs (Post, or Do for a one-off function),
// and event callbacks (group completions, query sinks) fire on the loop at
// their paced instants. Speedup 1 runs the runtime in real time; large
// speedups compress wall time for tests; Unpaced recovers the offline batch
// mode, where the engine drains as fast as the host allows.
//
// Everything scheduled on the engine still executes single-threaded and in
// deterministic order for a given posting sequence — the bridge adds no
// concurrency inside the simulation, only at its boundary.
package realtime

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"abacus/internal/sim"
)

// Unpaced disables pacing: the engine drains as fast as the host allows,
// recovering the offline batch mode.
const Unpaced = math.MaxFloat64

// ErrStopped is returned by Do and Flush once the bridge has stopped.
var ErrStopped = errors.New("realtime: bridge stopped")

// maxWait bounds one sleep of the loop; pacing re-derives the remaining wait
// on wake, so the cap only costs a spurious wakeup per hour.
const maxWait = time.Hour

// timerWait is how long the loop sleeps for an event gap virtual
// milliseconds ahead at speedup, clamped to [0, maxWait]. It rounds up: a
// gap shorter than a nanosecond of wall time would truncate to no wait, and
// a loop whose wall clock moves only when it sleeps would then spin.
func timerWait(gap, speedup float64) time.Duration {
	ns := math.Ceil(gap / speedup * float64(time.Millisecond))
	switch {
	case !(ns > 0):
		return 0
	case ns >= float64(maxWait):
		return maxWait
	}
	return time.Duration(ns)
}

// Msg is one unit of work posted to a bridge's loop. A message Post accepts
// is answered exactly once: Run on the loop goroutine, after every virtual
// event due by the current wall instant has fired, or Stopped (on the loop
// goroutine too) when the bridge stops before reaching it. Run may inspect
// and schedule against the engine freely.
type Msg interface {
	Run()
	Stopped()
}

// Bridge drives a sim.Engine as a live event loop.
type Bridge struct {
	eng     *sim.Engine
	speedup float64
	unpaced bool

	// queue is the loop's one input, appended by Post under mu. The loop
	// swaps it for spare, a loop-owned backing array of the same kind, so a
	// burst of posts is served in one wakeup without allocating. closed
	// refuses further posts once Stop has been called.
	mu     sync.Mutex
	queue  []Msg
	spare  []Msg
	closed bool

	wake    chan struct{} // cap 1: "the queue is non-empty, or closed"
	stopped chan struct{}

	// wallStart/virtStart anchor the pacing computation. Written once when
	// the bridge starts, then read only on the loop goroutine (catchUp).
	wallStart time.Time
	virtStart sim.Time

	// now mirrors the engine clock for cheap cross-goroutine reads.
	now atomic.Uint64
}

// New wraps the engine with a wall-clock pacer. speedup is virtual
// milliseconds per wall-clock millisecond: 1 is real time, 60 compresses a
// minute into a second, Unpaced (or +Inf) disables pacing entirely. The
// engine must only be touched through the bridge once Start is called.
func New(eng *sim.Engine, speedup float64) *Bridge {
	if eng == nil {
		panic("realtime: nil engine")
	}
	if math.IsNaN(speedup) || speedup <= 0 {
		panic(fmt.Sprintf("realtime: speedup %v must be positive (use Unpaced for batch mode)", speedup))
	}
	b := &Bridge{
		eng:     eng,
		speedup: speedup,
		unpaced: speedup == Unpaced || math.IsInf(speedup, 1),
		wake:    make(chan struct{}, 1),
		stopped: make(chan struct{}),
	}
	b.now.Store(math.Float64bits(eng.Now()))
	return b
}

// Unpaced reports whether the bridge runs in batch mode.
func (b *Bridge) Unpaced() bool { return b.unpaced }

// Now returns the loop's last published virtual time. It is safe from any
// goroutine; for an exact read, query the engine inside Do.
func (b *Bridge) Now() sim.Time { return math.Float64frombits(b.now.Load()) }

// StartAnchored launches the loop goroutine with its wall-clock origin pinned
// to epoch instead of the instant the loop happens to start. Sibling bridges
// anchored to the same epoch share one clock discipline: each derives its
// virtual clock from the identical wall origin, so N per-node engines advance
// in lockstep regardless of goroutine start order. It must be called exactly
// once; an epoch slightly in the past simply fast-forwards the bridge to
// where its siblings already are.
func (b *Bridge) StartAnchored(epoch time.Time) {
	if epoch.IsZero() {
		panic("realtime: zero anchor epoch")
	}
	b.wallStart = epoch
	go b.loop()
}

// Stop halts the loop and waits for it to exit. Messages still queued are
// answered with Stopped, so no poster is stranded; events still pending on
// the engine do not fire. Stop is idempotent.
func (b *Bridge) Stop() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.signal()
	<-b.stopped
}

// Post queues m for the loop, in posting order, and reports whether the
// bridge accepted it. An accepted message is answered exactly once (see
// Msg); a refused one, posted after Stop, is never called.
func (b *Bridge) Post(m Msg) bool {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return false
	}
	b.queue = append(b.queue, m)
	b.mu.Unlock()
	b.signal()
	return true
}

func (b *Bridge) signal() {
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// doMsg is Do's message: fn, and a one-slot reply that says whether it ran.
type doMsg struct {
	fn  func()
	ran chan bool
}

func (m *doMsg) Run()     { m.fn(); m.ran <- true }
func (m *doMsg) Stopped() { m.ran <- false }

// Do runs fn on the loop goroutine, as a message on the bridge's queue, and
// waits for it to return. Once the bridge has stopped it reports ErrStopped
// without running fn. Do and Post are the only safe ways to touch the
// engine while the bridge runs.
func (b *Bridge) Do(fn func()) error {
	m := &doMsg{fn: fn, ran: make(chan bool, 1)}
	if !b.Post(m) || !<-m.ran {
		return ErrStopped
	}
	return nil
}

// catchUp advances the engine to the wall-derived pacing target (everything
// due by this instant fires), or drains it entirely when unpaced. The loop
// runs it before every message, so each one observes the virtual time it
// would have seen had it been posted alone: in unpaced mode a batch of
// admissions decides exactly as one message per wakeup would.
func (b *Bridge) catchUp() {
	if b.unpaced {
		b.eng.Run()
	} else if t := b.target(); t > b.eng.Now() {
		b.eng.RunUntil(t)
	}
	b.now.Store(math.Float64bits(b.eng.Now()))
}

// target is the pacing target: the virtual instant corresponding to now on
// the wall clock. Loop goroutine only.
func (b *Bridge) target() sim.Time {
	return b.virtStart + b.speedup*float64(time.Since(b.wallStart))/float64(time.Millisecond)
}

// Flush fast-forwards the engine until its event queue is empty, ignoring
// pacing — in-flight work completes immediately in virtual time. It is the
// graceful-drain primitive: pending queries are answered without waiting
// out their paced schedule.
func (b *Bridge) Flush() error {
	return b.Do(func() { b.eng.Run() })
}

// Retire gracefully ends the bridge's life: in-flight virtual work completes
// immediately (Flush), then the loop is stopped. It returns the final virtual
// instant — the node's terminal clock reading, closing its lifetime window
// for node-time accounting. This is the node-retirement primitive for the
// elastic autoscaler: after Retire the engine is quiescent and owned by the
// caller again, with every query answered and no events pending.
//
// If the bridge was already stopped (for example a gateway-wide Drain raced
// the retirement), the flush reports ErrStopped and the engine may still
// hold unfired events; the returned time is the last published clock either
// way. Retire is idempotent.
func (b *Bridge) Retire() (sim.Time, error) {
	err := b.Flush()
	b.Stop()
	return b.Now(), err
}

// loop is the bridge's event loop: fire everything due by the wall-derived
// virtual target, sleep until the next event is due or a message is posted,
// then serve every queued message in posting order.
func (b *Bridge) loop() {
	defer close(b.stopped)
	b.virtStart = b.eng.Now()
	for {
		b.catchUp()

		var timer *time.Timer
		var timerC <-chan time.Time
		if !b.unpaced {
			if next, ok := b.eng.NextAt(); ok {
				timer = time.NewTimer(timerWait(next-b.eng.Now(), b.speedup))
				timerC = timer.C
			}
		}
		select {
		case <-b.wake:
		case <-timerC:
		}
		if timer != nil {
			timer.Stop()
		}

		b.mu.Lock()
		batch, closed := b.queue, b.closed
		b.queue = b.spare[:0]
		b.mu.Unlock()
		for _, m := range batch {
			if closed {
				m.Stopped()
				continue
			}
			b.catchUp()
			m.Run()
		}
		clear(batch)
		b.spare = batch[:0]
		if closed {
			return
		}
	}
}
