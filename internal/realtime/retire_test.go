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

// countMsg is a posted message that counts how it was answered.
type countMsg struct {
	calls   atomic.Int32
	ran     bool
	stopped bool
	run     func() // optional, called by Run before it answers
	done    chan struct{}
}

func newCountMsg(run func()) *countMsg {
	return &countMsg{run: run, done: make(chan struct{}, 1)}
}

func (m *countMsg) Run() {
	if m.run != nil {
		m.run()
	}
	m.ran = true
	m.calls.Add(1)
	m.done <- struct{}{}
}

func (m *countMsg) Stopped() {
	m.stopped = true
	m.calls.Add(1)
	m.done <- struct{}{}
}

// TestStopDrainOrder pins the drain-order contract when a bridge stops with
// work queued behind a busy loop. One submitter alternates Post and Do:
// work executes in submission order with no gaps — if a later item ran,
// every earlier one ran first — an accepted post is answered exactly once,
// by Run or by Stopped, and neither a refused post nor a Do reported
// ErrStopped ever runs.
func TestStopDrainOrder(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, Unpaced)
	b.StartAnchored(time.Now())

	gate := make(chan struct{})
	busy := make(chan struct{})
	go func() {
		_ = b.Do(func() { close(busy); <-gate })
	}()
	<-busy // the loop is now wedged; subsequent work queues

	const n = 6
	var mu sync.Mutex
	var ran []int
	record := func(i int) func() {
		return func() {
			mu.Lock()
			ran = append(ran, i)
			mu.Unlock()
		}
	}
	errs := make([]error, n)
	msgs := make([]*countMsg, n)
	refused := make([]bool, n)
	orderDone := make(chan struct{})
	go func() {
		defer close(orderDone)
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				msgs[i] = newCountMsg(record(i))
				refused[i] = !b.Post(msgs[i])
			} else {
				errs[i] = b.Do(record(i))
			}
		}
	}()

	stopDone := make(chan struct{})
	go func() { defer close(stopDone); b.Stop() }()
	// Let the stop signal and the first queued work race, then release the
	// loop: the drain must still honor the contract either way.
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
		if m := msgs[i]; m != nil {
			switch calls := m.calls.Load(); {
			case refused[i] && calls != 0:
				t.Errorf("refused post %d was called %d times", i, calls)
			case !refused[i] && calls != 1:
				t.Errorf("accepted post %d was answered %d times, want once", i, calls)
			case m.ran != executed || (m.stopped && executed):
				t.Errorf("post %d: ran=%v stopped=%v, executed=%v", i, m.ran, m.stopped, executed)
			}
			continue
		}
		if executed && errs[i] != nil {
			t.Errorf("command %d ran but Do returned %v", i, errs[i])
		}
		if !executed && errs[i] == nil {
			t.Errorf("command %d reported success but never ran", i)
		}
	}
}

// TestStopCommandConservation hammers a stopping bridge from many goroutines,
// half calling Do and half posting messages: commands executed must exactly
// equal Do calls that returned nil, every accepted post must be answered
// exactly once, by Run or by Stopped, and a refused post never — no lost
// work, no ghost executions, no stranded caller.
func TestStopCommandConservation(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, Unpaced)
	b.StartAnchored(time.Now())

	const workers = 16
	var executed, acked, postsRun atomic.Int64
	posted := make([][]*countMsg, workers)
	refused := make([]*countMsg, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if w%2 == 1 {
					m := newCountMsg(func() { postsRun.Add(1) })
					if !b.Post(m) {
						refused[w] = m
						return
					}
					posted[w] = append(posted[w], m)
					<-m.done
					continue
				}
				if err := b.Do(func() { executed.Add(1) }); err != nil {
					return
				}
				acked.Add(1)
			}
		}()
	}
	// Retire once both kinds of work have gone through, or after a bound a
	// loaded host cannot miss; the checks below report a retirement that
	// came before either.
	deadline := time.Now().Add(10 * time.Second)
	for (acked.Load() == 0 || postsRun.Load() == 0) && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
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
	var ran int
	for w := 1; w < workers; w += 2 {
		for i, m := range posted[w] {
			if c := m.calls.Load(); c != 1 {
				t.Errorf("worker %d post %d answered %d times, want once", w, i, c)
			}
			if m.ran {
				ran++
			}
		}
		if c := refused[w].calls.Load(); c != 0 {
			t.Errorf("worker %d: refused post called %d times", w, c)
		}
	}
	if ran == 0 {
		t.Error("no post ran before retirement; test proved nothing")
	}
}
