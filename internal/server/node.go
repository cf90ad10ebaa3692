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

	gw     *Server
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

	// Retirement, loop-owned. A drain request (completeDrain) sets idle;
	// once no admitted query is outstanding the loop closes admissions, so
	// later arrivals answer as draining, and closes idle.
	idle   chan struct{}
	closed bool
}

// admitMsg is one admission request posted to a node's bridge. The handler
// owns it before Post and after done fires; the node's loop owns it in
// between. Pooled: done is a reusable 1-buffered channel, so the
// steady-state posting path allocates nothing.
type admitMsg struct {
	n          *node
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

// Run renders the verdict on the node's loop goroutine.
func (m *admitMsg) Run() {
	m.n.admitOne(m)
	m.done <- struct{}{}
}

// Stopped answers a message the stopping bridge never reached as draining.
func (m *admitMsg) Stopped() {
	m.draining = true
	m.done <- struct{}{}
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
// its sticky pin, unless a retry has since pinned it to another node.
func newNode(s *Server, id int, models []dnn.ModelID, global []int) (*node, error) {
	cfg := s.cfg
	n := &node{
		id:       id,
		models:   models,
		global:   global,
		local:    make([]int, len(cfg.Models)),
		pending:  make(map[*sched.Query]*pending),
		byID:     make(map[string]*pending),
		recent:   newOutcomeCache(dedupeWindow, func(rid string) { s.routes.CompareAndDelete(rid, id) }),
		degraded: make([]atomic.Bool, len(models)),
		gw:       s,
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

// admitOne renders one admission verdict on the loop goroutine: duplicate
// suppression, capture, then the node's admission transaction.
func (n *node) admitOne(m *admitMsg) {
	s := n.gw
	if s.draining.Load() || n.closed {
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

// retireIfIdle closes admissions and signals a requested retirement once no
// admitted query is outstanding — the moment chaos retires a draining node
// too. Loop goroutine only.
func (n *node) retireIfIdle() {
	if n.idle != nil && n.Adm.Outstanding() == 0 {
		n.closed = true
		close(n.idle)
		n.idle = nil
	}
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
