package server

import (
	"math"
	"sync"
	"sync/atomic"

	"abacus/internal/admit"
	"abacus/internal/dnn"
	"abacus/internal/fleet"
	"abacus/internal/realtime"
	"abacus/internal/scaler"
	"abacus/internal/sched"
	"abacus/internal/trace"
)

// node is one per-GPU serving engine behind the gateway: its fleet stack
// (device, runtime, admitter, predict cache, calibration tracker), realtime
// bridge and idempotency state. Every non-atomic field is owned by the
// node's bridge loop goroutine; the router on handler goroutines reads only
// the published mirrors (load, clock, degraded) and the phase.
type node struct {
	*fleet.Stack
	id     int
	models []dnn.ModelID // hosted models, in node-local service order
	global []int         // local service index → gateway service index
	local  []int         // gateway service index → local index, -1 when not hosted

	bridge *realtime.Bridge

	pending    map[*sched.Query]*pending
	byID       map[string]*pending
	recent     *outcomeCache
	duplicates int64
	routed     int64 // queries the router sent here
	migratedIn int64 // routed here while a degraded sibling also hosted the service

	// Router-visible mirrors, published from the loop goroutine after every
	// admission-state change.
	loadMS   atomic.Uint64 // predicted backlog, float64 bits
	clockMS  atomic.Uint64 // virtual clock at that change, float64 bits
	degraded []atomic.Bool // per-local-service drift detector state

	// phase is the node's scaler.Phase. Fixed fleets stay Active; the
	// autoscaler moves elastic nodes under Server.scaleMu.
	phase atomic.Int32

	// Admission mailbox: handler goroutines enqueue admitMsgs here and a
	// per-node combiner goroutine (admitLoop, started by Server.Start) flows
	// whole batches through one bridge injection — one loop round trip per
	// burst instead of one per query. FIFO order is preserved, and in unpaced
	// mode the engine drains between batch entries, so admit/reject verdicts
	// stay byte-identical to the one-injection-per-query gateway.
	mboxMu   sync.Mutex
	mbox     []*admitMsg
	mboxFree []*admitMsg   // loop-owned spare backing array, ping-ponged with mbox
	mboxWake chan struct{} // cap 1: "the mailbox is non-empty"
	mboxStop bool
}

// admitMsg is one admission request in flight through a node's mailbox.
// The handler owns it before enqueue and after done fires; the node's
// combiner owns it in between. Pooled: done is a reusable 1-buffered
// channel, so the steady-state enqueue path allocates nothing.
type admitMsg struct {
	svc        int // node-local service index
	global     int // gateway-global service index
	in         dnn.Input
	deadlineMS float64
	requestID  string
	migrated   bool

	// Results, valid once done has fired.
	d        admit.Decision
	pend     *pending
	dup      *pending
	cached   *pending
	draining bool

	done chan struct{}
}

var admitMsgPool = sync.Pool{New: func() any {
	return &admitMsg{done: make(chan struct{}, 1)}
}}

func getAdmitMsg() *admitMsg { return admitMsgPool.Get().(*admitMsg) }

func putAdmitMsg(m *admitMsg) {
	done := m.done
	*m = admitMsg{done: done}
	admitMsgPool.Put(m)
}

// newNode builds one Active node of gateway s hosting the given model
// subset; global maps the node-local service order onto gateway service
// indices. A request ID that ages out of the node's idempotency cache loses
// its sticky pin.
func newNode(s *Server, id int, models []dnn.ModelID, global []int) (*node, error) {
	cfg := s.cfg
	n := &node{
		id:       id,
		models:   models,
		global:   global,
		local:    make([]int, len(cfg.Models)),
		pending:  make(map[*sched.Query]*pending),
		byID:     make(map[string]*pending),
		recent:   newOutcomeCache(dedupeWindow, func(rid string) { s.routes.Delete(rid) }),
		degraded: make([]atomic.Bool, len(models)),
		mboxWake: make(chan struct{}, 1),
	}
	for g := range n.local {
		n.local[g] = -1
	}
	for l, g := range global {
		n.local[g] = l
	}
	n.setPhase(scaler.Active)
	st, err := fleet.NewStack(fleet.Config{
		Models:       models,
		QoSFactor:    cfg.QoSFactor,
		Model:        cfg.Model,
		QueueCap:     cfg.QueueCap,
		PredictCache: cfg.PredictCache,
		Calib:        cfg.Calib,
		Specs:        s.specs,
		OnResult:     func(q *sched.Query) { s.onResult(n, q) },
	})
	if err != nil {
		return nil, err
	}
	n.Stack = st
	n.bridge = realtime.New(n.RT.Engine(), cfg.Speedup)
	return n, nil
}

// enqueue hands one admission request to the node's combiner. It reports
// false when the mailbox has already shut down (the gateway is draining);
// otherwise the caller must wait on m.done before reading results.
func (n *node) enqueue(m *admitMsg) bool {
	n.mboxMu.Lock()
	if n.mboxStop {
		n.mboxMu.Unlock()
		return false
	}
	n.mbox = append(n.mbox, m)
	select {
	case n.mboxWake <- struct{}{}:
	default:
	}
	n.mboxMu.Unlock()
	return true
}

// mailboxIdle reports whether no admission request is queued. Used by the
// autoscaler's drain to decide the node has gone quiescent.
func (n *node) mailboxIdle() bool {
	n.mboxMu.Lock()
	defer n.mboxMu.Unlock()
	return len(n.mbox) == 0
}

// stopMailbox shuts the mailbox down: queued messages are answered as
// draining and admitLoop exits once the wake channel drains. Idempotent;
// call after the bridge has stopped so no admission can slip past Drain.
func (n *node) stopMailbox() {
	n.mboxMu.Lock()
	if n.mboxStop {
		n.mboxMu.Unlock()
		return
	}
	n.mboxStop = true
	rest := n.mbox
	n.mbox = nil
	close(n.mboxWake)
	n.mboxMu.Unlock()
	for _, m := range rest {
		m.draining = true
		m.done <- struct{}{}
	}
}

// admitLoop is the node's combiner goroutine: it swaps the mailbox empty,
// runs the whole batch through a single bridge injection, and repeats. While
// the loop goroutine is deciding one batch, handler goroutines decode and
// enqueue the next and earlier handlers encode their responses — the
// decode → admit/submit → encode pipeline overlaps across requests.
func (n *node) admitLoop(s *Server) {
	for range n.mboxWake {
		for {
			n.mboxMu.Lock()
			if len(n.mbox) == 0 {
				n.mboxMu.Unlock()
				break
			}
			batch := n.mbox
			n.mbox = n.mboxFree[:0]
			n.mboxMu.Unlock()

			err := n.bridge.Do(func() {
				for i, m := range batch {
					if i > 0 {
						// Catch the engine up between entries so each verdict
						// sees exactly the state a one-injection-per-query
						// gateway would have seen: in unpaced mode the engine
						// drains fully (byte-identical decisions), in paced
						// mode completions due by now fire before the next
						// backlog estimate.
						n.bridge.CatchUp()
					}
					n.admitOne(s, m)
					m.done <- struct{}{}
				}
			})
			if err != nil {
				// Bridge stopped mid-flight: every queued handler gets the
				// draining verdict.
				for _, m := range batch {
					m.draining = true
					m.done <- struct{}{}
				}
			}
			clear(batch)
			n.mboxFree = batch[:0]
		}
	}
}

// admitOne renders one admission verdict on the loop goroutine: duplicate
// suppression, capture, then the node's admission transaction.
func (n *node) admitOne(s *Server, m *admitMsg) {
	if s.draining.Load() {
		m.draining = true
		return
	}
	if m.requestID != "" {
		if p, ok := n.byID[m.requestID]; ok {
			m.dup = p
			n.duplicates++
			return
		}
		if p, ok := n.recent.get(m.requestID); ok {
			m.cached = p
			n.duplicates++
			return
		}
	}
	now := n.RT.Engine().Now()
	if s.cfg.Capture != nil {
		s.cfg.Capture.Record(trace.Arrival{Time: float64(now), Service: m.global, Input: m.in})
	}
	q, d := n.Admit(now, m.svc, m.in, m.deadlineMS)
	m.d = d
	if q == nil {
		return
	}
	p := &pending{q: q, id: m.requestID, predMS: d.PredMS, workMS: d.WorkMS, done: make(chan struct{})}
	n.pending[q] = p
	if m.requestID != "" {
		n.byID[m.requestID] = p
	}
	n.routed++
	if m.migrated {
		n.migratedIn++
	}
	n.publish()
	m.pend = p
}

// publish refreshes the router-visible mirrors. Call from the loop goroutine
// after any change to admission state. The clock is published here rather
// than read from the bridge, which stores it only once the engine drains:
// a query's answer can reach its client first, and the client's next query
// must be routed on the clock that answer left behind.
func (n *node) publish() {
	n.loadMS.Store(math.Float64bits(n.Adm.BacklogMS()))
	n.clockMS.Store(math.Float64bits(n.RT.Engine().Now()))
	for i := range n.degraded {
		n.degraded[i].Store(n.Adm.Degrade().Active(i))
	}
}

// Load returns the last published predicted backlog (any goroutine).
func (n *node) Load() float64 { return math.Float64frombits(n.loadMS.Load()) }

// Clock returns the virtual clock at the last publish (any goroutine).
func (n *node) Clock() float64 { return math.Float64frombits(n.clockMS.Load()) }

// Phase returns the node's lifecycle phase (any goroutine).
func (n *node) Phase() scaler.Phase { return scaler.Phase(n.phase.Load()) }

func (n *node) setPhase(p scaler.Phase) { n.phase.Store(int32(p)) }

// Hosts reports whether the node serves gateway service svc.
func (n *node) Hosts(svc int) bool { return n.local[svc] >= 0 }

// Degraded returns the last published drift state of gateway service svc,
// which the node must host.
func (n *node) Degraded(svc int) bool { return n.degraded[n.local[svc]].Load() }
