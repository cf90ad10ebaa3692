// Package server is the online serving gateway: an HTTP front end over the
// Abacus runtime driven in wall-clock time by internal/realtime. Requests
// arrive on POST /v1/infer, pass Clockwork-style predictor-driven admission
// control (reject now if the predicted completion misses the deadline), and
// wait for their query to complete on the paced virtual clock. The gateway
// also exposes /healthz, /statz (JSON per-service outcomes), and /metrics
// (Prometheus text exposition), and drains gracefully: in-flight queries are
// answered before the server stops admitting work for good.
//
// Robustness features (PR 3): per-request idempotency keys with duplicate
// suppression, a degraded mode that widens the admission margin when
// predicted-vs-observed latency diverges (internal/admit), request-body
// size caps and read timeouts against malformed and slow-loris clients,
// and fault/retry counters on /statz and /metrics.
//
// Sharded serving (PR 6): the gateway fronts N per-GPU nodes, each a full
// engine + bridge + admitter + calibration stack (see node.go). Placement
// seeds from the §7.8 overlap-gain grouping unless pinned explicitly; the
// router sends each query to the least-loaded healthy node hosting its
// model, migrating away from nodes whose per-service drift detector has
// tripped. RequestID routes are sticky so duplicate suppression keeps
// working across retries.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"abacus/internal/admit"
	"abacus/internal/calib"
	"abacus/internal/dnn"
	"abacus/internal/fleet"
	"abacus/internal/gpusim"
	"abacus/internal/predictor"
	"abacus/internal/realtime"
	"abacus/internal/scaler"
	"abacus/internal/sched"
	"abacus/internal/stats"
	"abacus/internal/trace"
)

// Config assembles a gateway.
type Config struct {
	// Models are the deployed services. With one node they must all co-locate
	// (1..predictor.MaxCoLocated); with several, each node's share is bounded
	// instead.
	Models []dnn.ModelID
	// Nodes is how many per-GPU serving nodes back the gateway (default 1,
	// the single-engine gateway; defaults to len(Placement) when a placement
	// is pinned).
	Nodes int
	// Placement pins each node's hosted models. Nil derives a placement: one
	// node hosts everything; several nodes replicate the §7.8 overlap-gain
	// groups round-robin so every group has migration targets. Every model
	// must be hosted by at least one node.
	Placement [][]dnn.ModelID
	// QoSFactor scales per-service QoS over max-input solo latency
	// (default 2, the paper's setting).
	QoSFactor float64
	// Speedup is the wall-clock pacing factor (virtual ms per wall ms;
	// default 1 = real time; realtime.Unpaced for batch mode).
	Speedup float64
	// QueueCap bounds admitted-but-unfinished queries per service
	// (default 64); beyond it the gateway sheds load with 429.
	QueueCap int
	// Model is the duration model for both the Abacus controller and the
	// admission predictor; nil selects the exact oracle. With several nodes
	// it is shared across their loop goroutines and must be safe for
	// concurrent use (the built-in models are pure).
	Model predictor.LatencyModel
	// DrainTimeout bounds Shutdown's graceful drain (default 10s).
	DrainTimeout time.Duration
	// Calib, when non-nil, enables online latency-model calibration: every
	// completed query feeds a per-service feedback tracker and both the
	// scheduler and admission predict through the corrected model. Each node
	// calibrates independently (its GPU, its feedback). Nil leaves
	// calibration off.
	Calib *calib.Config
	// MaxBodyBytes caps the /v1/infer request body (default 1 MiB); larger
	// bodies are rejected 400 and counted as malformed.
	MaxBodyBytes int64
	// ReadHeaderTimeout bounds how long a client may dribble request
	// headers (default 5s) — the slow-loris guard.
	ReadHeaderTimeout time.Duration
	// ReadTimeout bounds reading an entire request including its body
	// (default 30s). Response writing is unaffected, so paced inference
	// waits are not.
	ReadTimeout time.Duration
	// PredictCache bounds the per-node group-signature memoization cache
	// wrapped around the duration model (predictor.Memoized): steady-state
	// scheduling rounds re-predict the same group signatures, and the cache
	// answers repeats without re-running the MLP. 0 selects the default
	// (4096 signatures); negative disables caching. The cache holds the
	// model's raw predictions, below calibration, so a refit never makes
	// it stale.
	PredictCache int
	// Capture, when non-nil, records every validated, non-duplicate arrival
	// the gateway sees (virtual time, global service index, input) — a live
	// session becomes a replayable schedule that tracev2 can persist
	// byte-identically (see abacus gateway -trace-out). Recording happens on
	// the owning node's loop goroutine at admission time, so captured times
	// are the exact virtual instants admission reasoned about.
	Capture *trace.Capture
	// Autoscale, when non-nil, turns the fixed fleet into a live elastic one:
	// the gateway starts at MinNodes replicated nodes (every node hosts all
	// of Models), a wall-clock control loop observes offered QPS every
	// IntervalMS of virtual time, and nodes are added (warm-up probe trickle
	// first) and drained (gracefully, with a terminal stats snapshot) as
	// demand moves. Requires the derived replicated placement (Placement nil),
	// Nodes zero or equal to MinNodes, and wall pacing (not Unpaced).
	Autoscale *scaler.Config
}

// Server is the gateway. Construct with New, then Start before serving its
// Handler; Drain (or Shutdown) ends its life cycle.
type Server struct {
	cfg Config
	// fleet is every node ever built, in id order: an immutable slice that
	// the control loop replaces copy-on-write under scaleMu when it adds a
	// node, so the router reads one pointer and never locks. Fixed fleets
	// set it once in New.
	fleet     atomic.Pointer[[]*node]
	specs     *dnn.Specs     // kernel-spec table every node in fleet runs on
	qos       []float64      // global service index → QoS target (ms)
	probes    []atomic.Int64 // global service index → routing decisions (fleet.Route)
	byName    map[string]int // model name → global service index
	modelName []string       // global service index → canonical name (response echo without alloc)
	mux       *http.ServeMux
	httpSrv   atomic.Pointer[http.Server]

	// newConns are the accepted connections that have not sent a request
	// yet (http.StateNew). http.Server.Shutdown counts each as active for
	// 5 s, so Shutdown closes them itself once the listener is closed;
	// closingNew then closes any that the accept loop still hands over.
	connMu     sync.Mutex
	newConns   map[net.Conn]struct{}
	closingNew bool

	// routes pins a RequestID to the node that first accepted it (value:
	// node id), so retries land where the idempotency caches live. Entries
	// die with the node's outcome-cache slot (onEvict), on rejection, or when
	// the node retires (completeDrain).
	routes sync.Map

	draining atomic.Bool

	// Fault counters bumped on handler goroutines before any loop is
	// involved; per-node duplicate counts live on the nodes.
	malformed   atomic.Int64
	retriesSeen atomic.Int64

	// Per-service outcome counters, each behind its own mutex, so
	// concurrent handlers for different services never serialize on stats
	// accounting.
	svc []*svcStats

	// Elastic-autoscale state (see scale.go); ctrl is nil when Autoscale is
	// off. The controller itself is not goroutine-safe: every use, and every
	// node phase change, sits under scaleMu. epoch is written once in Start
	// before any scaling goroutine exists.
	ctrl      *scaler.Controller
	scaleMu   sync.Mutex
	epoch     time.Time
	arrivals  atomic.Int64 // offered queries since the last control tick
	scaleStop chan struct{}
	scaleDone chan struct{}
	stopScale sync.Once
	retiredSt []NodeStatz // terminal snapshots of retired nodes
}

// pending is one admitted query awaiting completion: done closes after the
// sink's final writes to q, so handlers may read q afterwards. Several
// handlers may wait on the same pending when duplicate requests attach to
// one in-flight query.
type pending struct {
	q  *sched.Query
	id string // idempotency key, "" when the client sent none
	// predMS and workMS are the admission verdict's figures that Resolve
	// and the response read. Keeping only these, not the whole
	// admit.Decision, holds each entry of the outcome caches (dedupeWindow
	// per node) to 48 bytes.
	predMS, workMS float64
	done           chan struct{}
}

// dedupeWindow is how many completed request IDs each node's idempotency
// cache remembers.
const dedupeWindow = 4096

// outcomeCache remembers the most recent completed request IDs so a retry
// that arrives after its original completed is answered from the cache
// instead of re-executing. onEvict (optional) fires when an ID ages out.
type outcomeCache struct {
	cap     int
	order   []string
	next    int
	m       map[string]*pending
	onEvict func(id string)
}

func newOutcomeCache(capacity int, onEvict func(id string)) *outcomeCache {
	return &outcomeCache{cap: capacity, m: make(map[string]*pending, capacity), onEvict: onEvict}
}

func (c *outcomeCache) add(id string, p *pending) {
	if id == "" {
		return
	}
	if len(c.order) < c.cap {
		c.order = append(c.order, id)
	} else {
		old := c.order[c.next]
		delete(c.m, old)
		if c.onEvict != nil {
			c.onEvict(old)
		}
		c.order[c.next] = id
		c.next = (c.next + 1) % c.cap
	}
	c.m[id] = p
}

func (c *outcomeCache) get(id string) (*pending, bool) {
	p, ok := c.m[id]
	return p, ok
}

// svcStats accumulates one service's outcomes, guarded by mu.
type svcStats struct {
	mu               sync.Mutex
	accepted         int64
	rejectedDeadline int64
	rejectedQueue    int64
	rejectedDraining int64
	rejectedDegraded int64
	completed        int64
	dropped          int64
	violated         int64
	good             int64
	latSum           float64
	lats             latWindow
}

// latWindow keeps the most recent completed-query latencies for percentile
// reporting without unbounded growth.
type latWindow struct {
	buf []float64
	n   int
}

const latWindowSize = 8192

func (w *latWindow) add(v float64) {
	if len(w.buf) < latWindowSize {
		w.buf = append(w.buf, v)
	} else {
		w.buf[w.n%latWindowSize] = v
	}
	w.n++
}

func (w *latWindow) snapshot() []float64 {
	out := make([]float64, len(w.buf))
	copy(out, w.buf)
	return out
}

// placement resolves the node → hosted-models assignment. The single-node
// default hosts cfg.Models verbatim, keeping the sharded gateway
// behaviorally identical to the single-engine one. Elastic fleets are
// uniform: every node, founder or added later, hosts every model, so any
// replica can absorb any query when a sibling drains away. Other multi-node
// defaults seed from the §7.8 overlap-gain grouping and replicate groups
// round-robin, so every service has at least one migration target when
// nodes outnumber groups.
func placement(cfg Config, profile gpusim.Profile) [][]dnn.ModelID {
	if cfg.Placement != nil {
		return cfg.Placement
	}
	groups := [][]dnn.ModelID{cfg.Models}
	if cfg.Nodes > 1 && cfg.Autoscale == nil {
		groupSize := min((len(cfg.Models)+cfg.Nodes-1)/cfg.Nodes, predictor.MaxCoLocated)
		groups = predictor.PartitionServices(cfg.Models, groupSize, 16, profile)
	}
	out := make([][]dnn.ModelID, cfg.Nodes)
	for i := range out {
		out[i] = groups[i%len(groups)]
	}
	return out
}

// New validates the configuration and builds the gateway (not yet running).
func New(cfg Config) (*Server, error) {
	if len(cfg.Models) == 0 {
		return nil, fmt.Errorf("server: no models configured")
	}
	if cfg.Nodes == 0 {
		if len(cfg.Placement) > 0 {
			cfg.Nodes = len(cfg.Placement)
		} else {
			cfg.Nodes = 1
		}
	}
	if cfg.Nodes < 0 {
		return nil, fmt.Errorf("server: %d nodes", cfg.Nodes)
	}
	var ctrl *scaler.Controller
	if cfg.Autoscale != nil {
		var err error
		if ctrl, err = scaler.New(*cfg.Autoscale); err != nil {
			return nil, err
		}
		min := ctrl.Config().MinNodes
		if cfg.Placement != nil {
			return nil, fmt.Errorf("server: autoscale requires the derived replicated placement, not a pinned one")
		}
		if cfg.Nodes != 1 && cfg.Nodes != min {
			return nil, fmt.Errorf("server: autoscale starts at MinNodes %d, not Nodes %d", min, cfg.Nodes)
		}
		cfg.Nodes = min
		if len(cfg.Models) > predictor.MaxCoLocated {
			return nil, fmt.Errorf("server: autoscale replicates all %d models per node, exceeding the co-location degree %d",
				len(cfg.Models), predictor.MaxCoLocated)
		}
		if cfg.Speedup == realtime.Unpaced || math.IsInf(cfg.Speedup, 1) {
			return nil, fmt.Errorf("server: autoscale needs wall pacing, not Unpaced")
		}
	}
	if cfg.Placement != nil && len(cfg.Placement) != cfg.Nodes {
		return nil, fmt.Errorf("server: placement covers %d nodes, want %d", len(cfg.Placement), cfg.Nodes)
	}
	if cfg.Speedup == 0 {
		cfg.Speedup = 1
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.ReadHeaderTimeout <= 0 {
		cfg.ReadHeaderTimeout = 5 * time.Second
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 30 * time.Second
	}
	if cfg.PredictCache == 0 {
		cfg.PredictCache = 4096
	}

	s := &Server{cfg: cfg, byName: make(map[string]int), specs: fleet.NewSpecs()}
	for i, m := range cfg.Models {
		name := m.String()
		if _, dup := s.byName[name]; dup {
			return nil, fmt.Errorf("server: model %s deployed twice", name)
		}
		s.byName[name] = i
		s.modelName = append(s.modelName, name)
		s.svc = append(s.svc, &svcStats{})
	}

	place := placement(cfg, gpusim.A100Profile())
	s.qos = make([]float64, len(cfg.Models))
	s.probes = make([]atomic.Int64, len(cfg.Models))
	var nodes []*node
	for id, models := range place {
		if len(models) == 0 {
			return nil, fmt.Errorf("server: node %d hosts no models", id)
		}
		if len(models) > predictor.MaxCoLocated {
			return nil, fmt.Errorf("server: node %d: %d models exceed the supported co-location degree %d",
				id, len(models), predictor.MaxCoLocated)
		}
		global := make([]int, len(models))
		seen := make(map[dnn.ModelID]bool, len(models))
		for local, m := range models {
			g, ok := s.byName[m.String()]
			if !ok {
				return nil, fmt.Errorf("server: node %d hosts %s, which is not in Models", id, m)
			}
			if seen[m] {
				return nil, fmt.Errorf("server: node %d hosts %s twice", id, m)
			}
			seen[m] = true
			global[local] = g
		}
		n, err := newNode(s, id, models, global)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, n)
	}
	for g, m := range cfg.Models {
		i := slices.IndexFunc(nodes, func(n *node) bool { return n.Hosts(g) })
		if i < 0 {
			return nil, fmt.Errorf("server: model %s hosted by no node", m)
		}
		s.qos[g] = nodes[i].RT.Services()[nodes[i].local[g]].QoS
	}
	s.fleet.Store(&nodes)

	s.ctrl = ctrl
	if ctrl != nil {
		s.scaleStop = make(chan struct{})
		s.scaleDone = make(chan struct{})
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/infer", s.handleInfer)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/statz", s.handleStatz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s, nil
}

// all returns every node ever built, in id order.
func (s *Server) all() []*node { return *s.fleet.Load() }

// NumNodes returns how many serving nodes have been built.
func (s *Server) NumNodes() int { return len(s.all()) }

// Handler returns the gateway's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Start launches every node's wall-clock bridge, all anchored to one epoch
// so the per-GPU virtual clocks share a wall origin. Each bridge's loop is
// its node's one goroutine. Call once, before serving traffic.
func (s *Server) Start() {
	s.epoch = time.Now()
	for _, n := range s.all() {
		n.bridge.StartAnchored(s.epoch)
	}
	if s.ctrl != nil {
		go s.scaleLoop()
	}
}

// Drain stops admitting new queries (they get 503), fast-forwards every
// node's virtual clock so in-flight queries complete and are answered, and
// stops the bridges. It is idempotent and safe from any goroutine; the HTTP
// listener should be shut down after Drain returns so responses still reach
// their callers.
func (s *Server) Drain() {
	s.draining.Store(true)
	if s.ctrl != nil {
		// Stop the control loop first so no node is added or drained while
		// the gateway shuts down.
		s.stopScale.Do(func() {
			close(s.scaleStop)
			<-s.scaleDone
		})
	}
	// Every node ever built drains; retired bridges answer ErrStopped,
	// which is fine.
	nodes := s.all()
	// Flush completes all admitted queries immediately in virtual time; the
	// sinks close their done channels, unblocking every waiting handler.
	// Stop then answers anything still queued as draining and refuses later
	// posts. ErrStopped just means a previous Drain already won.
	for _, n := range nodes {
		_ = n.bridge.Flush()
		n.bridge.Stop()
	}
}

// ServeListener serves the gateway on an existing listener (tests bind
// loopback port 0 and read the address back). Header and body read
// timeouts guard against slow-loris clients; response writing — where paced
// inference waits happen — is unbounded.
func (s *Server) ServeListener(ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: s.cfg.ReadHeaderTimeout,
		ReadTimeout:       s.cfg.ReadTimeout,
		ConnState:         s.trackNew,
	}
	// Shutdown runs its hooks after it has closed the listeners.
	srv.RegisterOnShutdown(s.closeNewConns)
	s.httpSrv.Store(srv)
	s.Start()
	err := srv.Serve(ln)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown gracefully drains and closes the listener: in-flight queries
// complete and are answered before the HTTP server exits.
func (s *Server) Shutdown(ctx context.Context) error {
	s.Drain()
	if srv := s.httpSrv.Load(); srv != nil {
		if _, ok := ctx.Deadline(); !ok {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.DrainTimeout)
			defer cancel()
		}
		return srv.Shutdown(ctx)
	}
	return nil
}

// trackNew is the HTTP server's ConnState hook: it keeps the set of
// connections that have not sent a request yet.
func (s *Server) trackNew(c net.Conn, state http.ConnState) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	switch {
	case state != http.StateNew:
		delete(s.newConns, c)
	case s.closingNew:
		c.Close()
	default:
		if s.newConns == nil {
			s.newConns = make(map[net.Conn]struct{})
		}
		s.newConns[c] = struct{}{}
	}
}

// closeNewConns closes every connection that has not sent a request; no
// request is in flight on one. Shutdown calls it once the listener is
// closed.
func (s *Server) closeNewConns() {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	s.closingNew = true
	for c := range s.newConns {
		c.Close()
	}
}

// onResult is a node runtime's sink; it runs on that node's loop goroutine.
func (s *Server) onResult(n *node, q *sched.Query) {
	p, ok := n.pending[q]
	if !ok {
		return
	}
	delete(n.pending, q)
	if p.id != "" {
		delete(n.byID, p.id)
		n.recent.add(p.id, p)
	}
	n.Resolve(q, admit.Decision{PredMS: p.predMS, WorkMS: p.workMS})
	n.publish()
	n.retireIfIdle()

	st := s.svc[n.global[q.Service.ID]]
	st.mu.Lock()
	if q.Dropped {
		st.dropped++
		st.violated++
	} else {
		st.completed++
		lat := q.Latency()
		st.latSum += lat
		st.lats.add(lat)
		if q.Violated() {
			st.violated++
		} else {
			st.good++
		}
	}
	st.mu.Unlock()

	close(p.done)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// contentTypeJSON is the shared Content-Type header value for the ingest
// path: assigning a preallocated slice into the header map costs nothing,
// where Header().Set would allocate the []string box per request.
var contentTypeJSON = []string{"application/json"}

// writeInfer renders resp through the pooled encoder scratch and writes it —
// the allocation-free replacement for writeJSON on the /v1/infer path.
// Output bytes are identical to json.NewEncoder(w).Encode(resp).
func writeInfer(w http.ResponseWriter, sc *inferScratch, code int, resp *InferResponse) {
	sc.out = AppendInferResponse(sc.out[:0], resp)
	w.Header()["Content-Type"] = contentTypeJSON
	w.WriteHeader(code)
	_, _ = w.Write(sc.out)
}

// respondFinished renders a finished (or dropped) pending into resp and
// writes it through the pooled encoder.
func (s *Server) respondFinished(w http.ResponseWriter, sc *inferScratch, resp *InferResponse, p *pending) {
	q := p.q
	resp.Accepted = true
	resp.ArrivalMS = q.Arrival
	resp.FinishMS = q.Finish
	resp.DeadlineMS = q.Deadline() - q.Arrival
	resp.PredictedMS = p.predMS
	if q.Dropped {
		resp.Dropped = true
		resp.Reason = "dropped"
		writeInfer(w, sc, http.StatusGatewayTimeout, resp)
		return
	}
	resp.LatencyMS = q.Latency()
	resp.Violated = q.Violated()
	writeInfer(w, sc, http.StatusOK, resp)
}

// route picks the serving node for one query of global service svc: the
// node its RequestID is pinned to while that node is routable and hosts
// svc, otherwise fleet.Route's pick. A stale pin is dropped, so this attempt
// and future retries remap.
func (s *Server) route(svc int, requestID string) (n *node, migrated bool) {
	nodes := s.all()
	if requestID != "" {
		if v, ok := s.routes.Load(requestID); ok {
			if n := routable(nodes, v.(int), svc); n != nil {
				return n, false
			}
			s.routes.Delete(requestID)
		}
	}
	return fleet.Route(nodes, svc, s.probes)
}

// routable returns node id when it may take a new query of svc: it is
// Warming or Active and hosts svc. Otherwise it returns nil.
func routable(nodes []*node, id, svc int) *node {
	if id >= len(nodes) {
		return nil
	}
	n := nodes[id]
	if p := n.Phase(); (p != scaler.Warming && p != scaler.Active) || !n.Hosts(svc) {
		return nil
	}
	return n
}

// handleInfer routes, admits, submits, and answers one query. The whole
// path runs on pooled scratch: the body lands in a reused buffer, the
// hand-rolled decoder returns views into it, and the response renders into
// a reused encode buffer — zero steady-state allocations for decode,
// validate, admission verdict, and encode (TestInferHotPathZeroAllocs).
// Admission itself is a pooled admitMsg posted to the node's bridge queue,
// so while one batch is deciding on the loop goroutine, other handlers
// decode and encode concurrently — the decode → admit → encode pipeline.
func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, InferResponse{Error: "POST required"})
		return
	}
	sc := getScratch()
	defer putScratch(sc)
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var err error
	if sc.body, err = readAll(body, sc.body[:0]); err == nil {
		err = sc.req.Parse(sc.body)
	}
	if err != nil {
		s.malformed.Add(1)
		resp := InferResponse{Error: "bad JSON: " + err.Error()}
		writeInfer(w, sc, http.StatusBadRequest, &resp)
		return
	}
	req := &sc.req
	svcIdx, in, err := s.validate(req)
	if err != nil {
		s.malformed.Add(1)
		resp := InferResponse{
			Model: string(req.Model), Batch: req.Batch, SeqLen: req.SeqLen, Error: err.Error(),
		}
		writeInfer(w, sc, http.StatusBadRequest, &resp)
		return
	}
	if req.Attempt > 0 {
		s.retriesSeen.Add(1)
	}
	// The canonical name equals the client's (validation is an exact match),
	// so echoing it avoids materializing the decoded view. The request ID is
	// copied out once: it outlives the scratch in routes/byID/recent.
	resp := InferResponse{Model: s.modelName[svcIdx], Batch: req.Batch, SeqLen: req.SeqLen}
	requestID := ""
	if len(req.RequestID) > 0 {
		requestID = string(req.RequestID)
	}
	if s.draining.Load() {
		s.countReject(svcIdx, reasonDraining)
		resp.Reason = reasonDraining
		resp.Error = "draining"
		writeInfer(w, sc, http.StatusServiceUnavailable, &resp)
		return
	}
	if s.ctrl != nil {
		// Offered load for the control loop: every valid, non-draining
		// arrival counts, whatever admission later decides.
		s.arrivals.Add(1)
	}

	n, migrated := s.route(svcIdx, requestID)
	storedRoute := false
	if requestID != "" {
		// Pin the ID to one node before admission so concurrent duplicates
		// serialize on a single loop, where byID/recent can suppress them.
		if v, loaded := s.routes.LoadOrStore(requestID, n.id); !loaded {
			storedRoute = true
		} else if owner := v.(int); owner != n.id {
			// A concurrent duplicate pinned the ID elsewhere; follow it while
			// the owner is routable, otherwise re-pin to the replica we
			// picked (best-effort).
			if o := routable(s.all(), owner, svcIdx); o != nil {
				n, migrated = o, false
			} else {
				s.routes.Store(requestID, n.id)
				storedRoute = true
			}
		}
	}

	m := getAdmitMsg()
	m.n = n
	m.svc, m.global = n.local[svcIdx], svcIdx
	m.in = in
	m.deadlineMS = req.DeadlineMS
	m.requestID = requestID
	m.migrated = migrated
	if n.bridge.Post(m) {
		<-m.done
	} else {
		m.draining = true
	}
	d := m.d
	pend, dup, cached, drainingVerdict := m.pend, m.dup, m.cached, m.draining
	putAdmitMsg(m)

	if drainingVerdict {
		if storedRoute {
			s.routes.Delete(requestID)
		}
		s.countReject(svcIdx, reasonDraining)
		resp.Reason = reasonDraining
		resp.Error = "draining"
		writeInfer(w, sc, http.StatusServiceUnavailable, &resp)
		return
	}
	if cached != nil {
		resp.Duplicate = true
		s.respondFinished(w, sc, &resp, cached)
		return
	}
	if dup != nil {
		resp.Duplicate = true
		select {
		case <-dup.done:
		case <-r.Context().Done():
			return
		}
		s.respondFinished(w, sc, &resp, dup)
		return
	}
	if !d.OK {
		// Best-effort: free the route slot so a retry may land on a
		// healthier replica. A duplicate racing this window re-pins.
		if storedRoute {
			s.routes.Delete(requestID)
		}
		s.countReject(svcIdx, d.Reason)
		resp.Reason = d.Reason
		resp.PredictedMS = d.PredMS
		resp.RetryAfterMS = d.RetryMS
		resp.Degraded = d.Degraded
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds(d.RetryMS)))
		writeInfer(w, sc, http.StatusTooManyRequests, &resp)
		return
	}

	st := s.svc[svcIdx]
	st.mu.Lock()
	st.accepted++
	st.mu.Unlock()

	select {
	case <-pend.done:
	case <-r.Context().Done():
		// Caller went away; the query still completes and is accounted.
		return
	}
	resp.Degraded = d.Degraded
	s.respondFinished(w, sc, &resp, pend)
}

// validate resolves the request onto a deployed service and checks the
// input against the model's served envelope (paper Table 1). The map lookup
// keyed on string(req.Model) does not allocate (the compiler elides the
// conversion for lookups); error paths may.
func (s *Server) validate(req *WireRequest) (int, dnn.Input, error) {
	idx, ok := s.byName[string(req.Model)]
	if !ok {
		return 0, dnn.Input{}, fmt.Errorf("model %q not deployed", req.Model)
	}
	in := dnn.Input{Batch: req.Batch, SeqLen: req.SeqLen}
	if err := dnn.Get(s.cfg.Models[idx]).CheckInput(in); err != nil {
		return 0, dnn.Input{}, err
	}
	if req.DeadlineMS < 0 {
		return 0, dnn.Input{}, fmt.Errorf("negative deadline %v", req.DeadlineMS)
	}
	if req.Attempt < 0 {
		return 0, dnn.Input{}, fmt.Errorf("negative attempt %d", req.Attempt)
	}
	return idx, in, nil
}

func (s *Server) countReject(svc int, reason string) {
	st := s.svc[svc]
	st.mu.Lock()
	defer st.mu.Unlock()
	switch reason {
	case reasonDeadline:
		st.rejectedDeadline++
	case reasonQueueFull:
		st.rejectedQueue++
	case reasonDegraded:
		st.rejectedDegraded++
	default:
		st.rejectedDraining++
	}
}

// retryAfterSeconds converts a virtual-ms backoff hint into wall seconds.
func (s *Server) retryAfterSeconds(retryMS float64) int {
	if s.all()[0].bridge.Unpaced() {
		return 1
	}
	sec := int(math.Ceil(retryMS / s.cfg.Speedup / 1000))
	if sec < 1 {
		sec = 1
	}
	return sec
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "draining": s.draining.Load()})
}

// Statz is the /statz payload. Top-level fields fold the whole cluster (a
// fold of one node is that node); Nodes carries the per-node detail, each
// entry snapshotted atomically on its own loop goroutine.
type Statz struct {
	NowMS         float64 `json:"now_ms"` // virtual clock (max across nodes)
	Speedup       float64 `json:"speedup"`
	Draining      bool    `json:"draining"`
	BacklogPredMS float64 `json:"backlog_pred_ms"`
	// Degrade reports the divergence tracker aggregate: whether any service
	// on any node currently widens its admission margin, how often the
	// detectors have flipped, and the worst observed/predicted latency EWMA.
	// Per-service detail lives on each ServiceStatz entry.
	Degrade admit.Status `json:"degrade"`
	// Calibration reports the online latency-model calibration state
	// (per-service correction slope/intercept, sample counts, residual
	// quantiles); nil when calibration is off. With several nodes each
	// service reports its best-fed replica (most samples).
	Calibration *calib.Status `json:"calibration,omitempty"`
	// PredictCache reports the group-signature memoization cache counters
	// summed across nodes; nil when the cache is disabled. Misses equal the
	// predictions the duration models actually computed — the honest measure
	// of model work.
	PredictCache *predictor.MemoStats `json:"predict_cache,omitempty"`
	// Faults are gateway-wide fault counters.
	Faults   FaultStatz     `json:"faults"`
	Services []ServiceStatz `json:"services"`
	// Nodes is the per-node detail, one entry per serving node. Under
	// autoscale it covers the live fleet (warming, active, and draining
	// nodes), each tagged with its Phase.
	Nodes []NodeStatz `json:"nodes,omitempty"`
	// Autoscale is the elastic control-loop state; nil for fixed fleets.
	Autoscale *AutoscaleStatz `json:"autoscale,omitempty"`
	// RetiredNodes are the terminal snapshots of nodes the autoscaler
	// drained: their counters stop at retirement instead of diluting the
	// live rows.
	RetiredNodes []NodeStatz `json:"retired_nodes,omitempty"`
}

// FaultStatz counts the faults the gateway has absorbed.
type FaultStatz struct {
	Malformed            int64 `json:"malformed"`
	DuplicatesSuppressed int64 `json:"duplicates_suppressed"`
	RetriesSeen          int64 `json:"retries_seen"`
}

// ServiceStatz is one service's /statz entry, aggregated across its
// hosting nodes.
type ServiceStatz struct {
	Service          int     `json:"service"`
	Model            string  `json:"model"`
	QoSMS            float64 `json:"qos_ms"`
	Accepted         int64   `json:"accepted"`
	RejectedDeadline int64   `json:"rejected_deadline"`
	RejectedQueue    int64   `json:"rejected_queue"`
	RejectedDraining int64   `json:"rejected_draining"`
	RejectedDegraded int64   `json:"rejected_degraded"`
	Completed        int64   `json:"completed"`
	Dropped          int64   `json:"dropped"`
	Violated         int64   `json:"violated"`
	QueueDepth       int     `json:"queue_depth"`
	// Per-service drift state: the widest admission margin any replica's
	// verdicts pay, whether any replica's drift detector is active, and the
	// worst divergence EWMA acted on.
	Margin      float64 `json:"margin"`
	DriftActive bool    `json:"drift_active"`
	Divergence  float64 `json:"divergence_ewma"`
	P50MS       float64 `json:"p50_ms"`
	P99MS       float64 `json:"p99_ms"`
	MeanMS      float64 `json:"mean_ms"`
	GoodputQPS  float64 `json:"goodput_qps"` // virtual-time basis
}

// NodeStatz is one serving node's /statz entry. Everything except NowMS is
// gathered in a single injection on the node's loop goroutine, so the
// snapshot is internally consistent.
type NodeStatz struct {
	Node   int      `json:"node"`
	Models []string `json:"models"`
	// Phase is the node's autoscale lifecycle phase (warming, active,
	// draining, retired); empty on fixed fleets.
	Phase         string  `json:"phase,omitempty"`
	NowMS         float64 `json:"now_ms"`
	BacklogPredMS float64 `json:"backlog_pred_ms"`
	QueueDepth    int     `json:"queue_depth"`
	// Routed counts admissions the router sent here; MigratedIn counts the
	// subset routed here because a degraded sibling was skipped.
	Routed               int64                `json:"routed"`
	MigratedIn           int64                `json:"migrated_in"`
	DuplicatesSuppressed int64                `json:"duplicates_suppressed"`
	Degrade              admit.Status         `json:"degrade"`
	Calibration          *calib.Status        `json:"calibration,omitempty"`
	PredictCache         *predictor.MemoStats `json:"predict_cache,omitempty"`
	Services             []NodeServiceStatz   `json:"services"`
}

// NodeServiceStatz is one hosted service's per-node state. Service is the
// gateway-global index.
type NodeServiceStatz struct {
	Service     int     `json:"service"`
	Model       string  `json:"model"`
	QueueDepth  int     `json:"queue_depth"`
	Margin      float64 `json:"margin"`
	DriftActive bool    `json:"drift_active"`
	Divergence  float64 `json:"divergence_ewma"`

	drift admit.Status // the service's drift state, which statz folds across replicas
}

// nodeStatz snapshots one node atomically on its loop goroutine. Calibration
// service indices are rewritten to gateway-global. Zero state when the
// bridge has stopped, matching the old single-engine behavior.
func (s *Server) nodeStatz(n *node) NodeStatz {
	st := NodeStatz{Node: n.id}
	for _, m := range n.models {
		st.Models = append(st.Models, m.String())
	}
	depths := make([]int, len(n.models))
	_ = n.bridge.Do(func() {
		n.Adm.CopyOutstanding(depths)
		st.BacklogPredMS = n.Adm.BacklogMS()
		st.Degrade = n.Adm.Degrade().Snapshot()
		for local, ds := range n.Adm.Degrade().ServiceSnapshots() {
			st.Services = append(st.Services, NodeServiceStatz{
				Service:     n.global[local],
				Model:       n.models[local].String(),
				QueueDepth:  depths[local],
				Margin:      ds.Margin,
				DriftActive: ds.Active,
				Divergence:  ds.Divergence,
				drift:       ds,
			})
		}
		if n.Tracker != nil {
			cs := n.Tracker.Snapshot()
			for i := range cs.Services {
				cs.Services[i].Service = n.global[cs.Services[i].Service]
			}
			st.Calibration = &cs
		}
		if n.Memo != nil {
			ms := n.Memo.Stats()
			st.PredictCache = &ms
		}
		st.Routed = n.routed
		st.MigratedIn = n.migratedIn
		st.DuplicatesSuppressed = n.duplicates
	})
	st.NowMS = n.bridge.Now()
	for _, e := range st.Services {
		st.QueueDepth += e.QueueDepth
	}
	return st
}

// statz snapshots the gateway. Per-node loop state comes from each node's
// own goroutine (zero after its bridge stops). The deployment view folds the
// nodes with admit.Status's, calib.Status's and predictor.MemoStats's
// Merge, and each service's drift state across its replicas the same way.
func (s *Server) statz() Statz {
	nodes, phases, as, retired := s.liveNodes()
	nodeSt := make([]NodeStatz, len(nodes))
	for i, n := range nodes {
		nodeSt[i] = s.nodeStatz(n)
		if as != nil {
			nodeSt[i].Phase = phases[i].String()
		}
	}

	out := Statz{
		Speedup:      s.cfg.Speedup,
		Draining:     s.draining.Load(),
		Nodes:        nodeSt,
		Autoscale:    as,
		RetiredNodes: retired,
	}
	var (
		duplicates int64
		cal        calib.Status
		memo       predictor.MemoStats
		drift      = make([]admit.Status, len(s.svc))
		depth      = make([]int, len(s.svc))
	)
	for _, n := range nodeSt {
		out.BacklogPredMS += n.BacklogPredMS
		if n.NowMS > out.NowMS {
			out.NowMS = n.NowMS
		}
		duplicates += n.DuplicatesSuppressed
		out.Degrade.Merge(n.Degrade)
		if n.Calibration != nil {
			cal.Merge(*n.Calibration)
			out.Calibration = &cal
		}
		if n.PredictCache != nil {
			memo.Merge(*n.PredictCache)
			out.PredictCache = &memo
		}
		for _, e := range n.Services {
			drift[e.Service].Merge(e.drift)
			depth[e.Service] += e.QueueDepth
		}
	}
	out.Faults = FaultStatz{
		Malformed:            s.malformed.Load(),
		DuplicatesSuppressed: duplicates,
		RetriesSeen:          s.retriesSeen.Load(),
	}

	now := out.NowMS
	for i, st := range s.svc {
		st.mu.Lock()
		entry := ServiceStatz{
			Service:          i,
			Model:            s.cfg.Models[i].String(),
			QoSMS:            s.qos[i],
			Accepted:         st.accepted,
			RejectedDeadline: st.rejectedDeadline,
			RejectedQueue:    st.rejectedQueue,
			RejectedDraining: st.rejectedDraining,
			RejectedDegraded: st.rejectedDegraded,
			Completed:        st.completed,
			Dropped:          st.dropped,
			Violated:         st.violated,
			QueueDepth:       depth[i],
			Margin:           drift[i].Margin,
			DriftActive:      drift[i].Active,
			Divergence:       drift[i].Divergence,
		}
		if lats := st.lats.snapshot(); len(lats) > 0 {
			ps := stats.Percentiles(lats, 50, 99)
			entry.P50MS, entry.P99MS = ps[0], ps[1]
			entry.MeanMS = st.latSum / float64(st.completed)
		}
		if now > 0 {
			entry.GoodputQPS = float64(st.good) / (now / 1000)
		}
		st.mu.Unlock()
		out.Services = append(out.Services, entry)
	}
	return out
}

func (s *Server) handleStatz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.statz())
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(renderMetrics(s.statz()))
}
