// Package realtime bridges the deterministic discrete-event engine to the
// wall clock, turning the batch simulator into a live runtime. A Bridge owns
// a sim.Engine on a single loop goroutine: virtual time is paced against
// time.Now with a configurable speedup factor, external work is injected as
// it occurs via Do, and event callbacks (group completions, query sinks)
// fire on the loop at their paced instants. Speedup 1 runs the runtime in
// real time; large speedups compress wall time for tests; Unpaced recovers
// the offline batch mode, where the engine drains as fast as the host
// allows.
//
// Everything scheduled on the engine still executes single-threaded and in
// deterministic order for a given injection sequence — the bridge adds no
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

// Bridge drives a sim.Engine as a live event loop.
type Bridge struct {
	eng     *sim.Engine
	speedup float64
	unpaced bool

	cmds     chan func()
	stop     chan struct{}
	stopped  chan struct{}
	stopOnce sync.Once

	// wallStart/virtStart anchor the pacing computation. Written once when
	// the bridge starts, then read only on the loop goroutine (CatchUp).
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
		cmds:    make(chan func()),
		stop:    make(chan struct{}),
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

// Stop halts the loop and waits for it to exit. Commands already queued are
// executed first so no Do caller is stranded; events still pending on the
// engine do not fire. Stop is idempotent.
func (b *Bridge) Stop() {
	b.stopOnce.Do(func() { close(b.stop) })
	<-b.stopped
}

// Do runs fn on the loop goroutine, after all virtual events due by the
// current wall instant have fired, and waits for it to return. fn may
// inspect and schedule against the engine freely; this is the only safe way
// to touch the engine while the bridge runs.
func (b *Bridge) Do(fn func()) error {
	done := make(chan struct{})
	wrapped := func() { defer close(done); fn() }
	select {
	case b.cmds <- wrapped:
	case <-b.stopped:
		return ErrStopped
	}
	select {
	case <-done:
		return nil
	case <-b.stopped:
		// The loop drains queued commands before closing stopped, so a
		// command accepted above either ran or never will.
		select {
		case <-done:
			return nil
		default:
			return ErrStopped
		}
	}
}

// CatchUp advances the engine to the wall-derived pacing target (everything
// due by this instant fires), or drains it entirely when unpaced. It must
// only be called from inside a Do callback — it touches the engine. Batch
// consumers call it between entries so each decision observes the virtual
// time it would have seen had it been injected alone, keeping batched
// admission equivalent to one injection per query.
func (b *Bridge) CatchUp() {
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
// virtual target, then sleep until the next event is due or work is
// injected.
func (b *Bridge) loop() {
	defer close(b.stopped)
	b.virtStart = b.eng.Now()
	for {
		b.CatchUp()

		var timer *time.Timer
		var timerC <-chan time.Time
		if !b.unpaced {
			if next, ok := b.eng.NextAt(); ok {
				wait := time.Duration((next - b.eng.Now()) / b.speedup * float64(time.Millisecond))
				if wait < 0 {
					wait = 0
				}
				if wait > maxWait {
					wait = maxWait
				}
				timer = time.NewTimer(wait)
				timerC = timer.C
			}
		}
		select {
		case fn := <-b.cmds:
			// Catch the clock up to the injection's wall instant so fn sees
			// the virtual time at which the external work actually occurred.
			b.CatchUp()
			fn()
			// Greedily serve commands already queued behind this one before
			// recomputing pacing timers: under a burst of injections one loop
			// wakeup handles the whole burst, and each command still gets the
			// same advance-then-run treatment it would have gotten alone.
		drain:
			for {
				select {
				case fn := <-b.cmds:
					b.CatchUp()
					fn()
				default:
					break drain
				}
			}
		case <-timerC:
		case <-b.stop:
			if timer != nil {
				timer.Stop()
			}
			b.drainCommands()
			return
		}
		if timer != nil {
			timer.Stop()
		}
	}
}

// drainCommands runs commands that were queued before the stop signal won
// the race, so their Do callers unblock.
func (b *Bridge) drainCommands() {
	for {
		select {
		case fn := <-b.cmds:
			fn()
		default:
			return
		}
	}
}
