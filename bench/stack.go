package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"abacus/internal/admit"
	"abacus/internal/cluster"
	"abacus/internal/core"
	"abacus/internal/dnn"
	"abacus/internal/gpusim"
	"abacus/internal/predictor"
	"abacus/internal/sched"
	"abacus/internal/server"
	"abacus/internal/sim"
	"abacus/internal/stats"
)

// The bench-owned stack: one or more per-GPU serving stacks assembled from
// public constructors exactly as chaos.newHNode does (sim.NewEngine →
// gpusim.New → core.New → admit.New) on one shared engine, so that the
// traced pass can put a span around every layer boundary without touching
// the program. It is to be replaced by ROADMAP item 1's shared core
// constructor when that lands.

var profileA100 = gpusim.A100Profile()

// stackCfg says which stack a workload's requests are replayed through.
type stackCfg struct {
	models []dnn.ModelID
	nodes  int
	inner  predictor.LatencyModel // the duration model: oracle or trained MLP
	memo   int                    // predictor.Memoized capacity; 0 = no memo
	admit  bool                   // pair-ladder has no admitter
	// closedLoop drains the engine before every request, which is what the
	// unpaced gateway does between admissions; otherwise requests arrive at
	// their scheduled virtual times.
	closedLoop bool
}

// replayReq is one request of a workload, as the stack sees it.
type replayReq struct {
	atMS float64
	svc  int
	in   dnn.Input
	body []byte // wire form, for the decode span
}

type stackNode struct {
	rt   *core.Runtime
	adm  *admit.Admitter
	memo *predictor.Memoized
}

type inflight struct {
	req    int32
	node   *stackNode
	predMS float64
	workMS float64
}

// replayStats are the counters one replay leaves behind, read from the
// layers' public accessors.
type replayStats struct {
	requests, accepted, shed int64
	acceptNS, shedNS         int64 // admit span time by verdict
	steps                    int64 // sim.Engine.Step calls
	rounds, predictRounds    int64
	drops, groups, kernels   int64
	groupMembers, groupOps   float64
	checkpointPeakMB         float64
	utilization, busyShare   float64
	poolEvents               int64
	degradeTransitions       int64
	memoHits, memoMisses     uint64
	predCalls, predGroups    int64
	predNS                   int64
	mape                     float64
	good                     int64
	wall                     time.Duration
	times                    layerTimes
}

// replay runs reqs through a fresh stack. With rec == nil no span is
// recorded (the untraced comparison run); the counters are filled either way.
func replay(cfg stackCfg, reqs []replayReq, rec *recorder) replayStats {
	eng := sim.NewEngine()
	var st replayStats
	pending := make(map[*sched.Query]inflight, 256)
	var finished []*sched.Query
	timed := newTimedModel(cfg.inner, rec)

	nodes := make([]*stackNode, cfg.nodes)
	for i := range nodes {
		n := &stackNode{}
		model := timed.model()
		if cfg.memo > 0 {
			n.memo = predictor.NewMemoized(model, cfg.memo)
			model = n.memo
		}
		rt, err := core.New(core.Config{
			Models: cfg.models, Model: model, Profile: profileA100,
			Device:   gpusim.New(eng, profileA100),
			OnResult: func(q *sched.Query) { finished = append(finished, q) },
		})
		if err != nil {
			panic(err) // the model lists are the benchmark's own constants
		}
		n.rt = rt
		if cfg.admit {
			n.adm = admit.New(model, profileA100, rt.Services(), 64, 0.02,
				admit.NewDegrade(admit.DegradeConfig{}, len(cfg.models)))
		}
		nodes[i] = n
	}
	load := func(i int) float64 {
		if nodes[i].adm == nil {
			return 0
		}
		return nodes[i].adm.BacklogMS()
	}

	var wire server.WireRequest
	var out []byte
	resp := server.InferResponse{}
	names := make([]string, len(cfg.models))
	for i, m := range cfg.models {
		names[i] = m.String()
	}

	t0 := time.Now()
	root := rec.begin(spanReplay, -1, -1)

	// drive steps the engine up to virtual time until (or dry when until is
	// +Inf), then encodes every response that became ready.
	drive := func(until float64) {
		sp := rec.begin(spanDrive, -1, root)
		timed.parent = sp
		for {
			at, ok := eng.NextAt()
			if !ok || at > until {
				break
			}
			eng.Step()
			st.steps++
		}
		rec.end(sp)
		for _, q := range finished {
			p := pending[q]
			delete(pending, q)
			if p.node.adm != nil {
				p.node.adm.Finish(q.Service.ID, p.workMS)
				p.node.adm.Degrade().Observe(q.Service.ID, p.predMS, q.Latency())
			}
			if !q.Violated() {
				st.good++
			}
			sp := rec.begin(spanEncode, p.req, root)
			resp = server.InferResponse{Model: names[q.Service.ID], Batch: q.Input.Batch, SeqLen: q.Input.SeqLen,
				Accepted: true, ArrivalMS: q.Arrival, FinishMS: q.Finish, LatencyMS: q.Latency(),
				DeadlineMS: q.Deadline() - q.Arrival, PredictedMS: p.predMS, Dropped: q.Dropped, Violated: q.Violated()}
			out = server.AppendInferResponse(out[:0], &resp)
			rec.end(sp)
		}
		finished = finished[:0]
	}

	for i, r := range reqs {
		id := int32(i)
		at := r.atMS
		if cfg.closedLoop {
			drive(math.Inf(1))
			at = eng.Now()
		} else {
			drive(at)
		}
		st.requests++

		sp := rec.begin(spanDecode, id, root)
		if err := wire.Parse(r.body); err != nil {
			panic(err) // bodies are generated by the benchmark
		}
		rec.end(sp)

		sp = rec.begin(spanRoute, id, root)
		n := nodes[cluster.Pick(len(nodes), load)]
		rec.end(sp)

		var d admit.Decision
		if n.adm != nil {
			sp = rec.begin(spanAdmit, id, root)
			timed.parent = sp
			a0 := time.Now()
			d = n.adm.Decide(at, r.svc, r.in, 0)
			if d.OK {
				n.adm.Admitted(r.svc, d.WorkMS)
			}
			ns := int64(time.Since(a0))
			rec.end(sp)
			if !d.OK {
				st.shed++
				st.shedNS += ns
				sp = rec.begin(spanEncode, id, root)
				resp = server.InferResponse{Model: names[r.svc], Batch: r.in.Batch, SeqLen: r.in.SeqLen,
					Reason: d.Reason, PredictedMS: d.PredMS, RetryAfterMS: d.RetryMS, Degraded: d.Degraded}
				out = server.AppendInferResponse(out[:0], &resp)
				rec.end(sp)
				continue
			}
			st.acceptNS += ns
		}
		st.accepted++

		sp = rec.begin(spanSubmit, id, root)
		q := n.rt.SubmitSLO(r.svc, r.in, at, 0)
		pending[q] = inflight{req: id, node: n, predMS: d.PredMS, workMS: d.WorkMS}
		rec.end(sp)
	}
	drive(math.Inf(1))
	rec.end(root)
	st.wall = time.Since(t0)

	var util, busy float64
	for _, n := range nodes {
		ctrl := n.rt.Controller()
		st.rounds += ctrl.Rounds()
		st.predictRounds += ctrl.PredictRounds()
		st.drops += ctrl.Drops()
		members, ops := ctrl.GroupStats()
		g := n.rt.Executor().Groups()
		st.groupMembers += members * float64(g)
		st.groupOps += ops * float64(g)
		st.groups += g
		if mb := n.rt.Executor().PeakCheckpointedBytes() / (1 << 20); mb > st.checkpointPeakMB {
			st.checkpointPeakMB = mb
		}
		st.kernels += n.rt.Device().Launched()
		util += n.rt.Device().Utilization()
		busy += n.rt.Device().BusyTime()
		if n.adm != nil {
			st.degradeTransitions += n.adm.Degrade().Snapshot().Transitions
		}
		if n.memo != nil {
			ms := n.memo.Stats()
			st.memoHits += ms.Hits
			st.memoMisses += ms.Misses
		}
	}
	if st.groups > 0 {
		st.groupMembers /= float64(st.groups)
		st.groupOps /= float64(st.groups)
	}
	st.utilization = util / float64(len(nodes))
	if now := eng.Now(); now > 0 {
		st.busyShare = busy / now / float64(len(nodes))
	}
	st.poolEvents = int64(eng.AllocatedEvents())
	st.predCalls, st.predGroups, st.predNS = timed.calls.Load(), timed.groups.Load(), timed.ns.Load()
	st.mape = timed.mapeVsOracle()
	if rec != nil {
		st.times = rec.fold()
	}
	return st
}

// timedModel is the timing decorator on predictor.LatencyModel: it counts
// calls and groups, times each call as a predict span under whatever span
// the stack says is current, and keeps every 64th group with its prediction
// so the oracle can re-score it afterwards. It sits below the memo, as the
// gateway's own model does, so a call is a prediction the model really made.
type timedModel struct {
	inner  predictor.LatencyModel
	rec    *recorder
	parent int32 // current parent span; -1 inside the real gateway
	// off, when set and true, makes the decorator a plain pass-through: the
	// real gateway's untraced blocks.
	off func() bool

	calls, groups, ns atomic.Int64

	seen    atomic.Int64
	mu      sync.Mutex
	sampled []predictor.Group
	said    []float64
}

const (
	sampleEvery = 64
	sampleCap   = 2048
)

func newTimedModel(inner predictor.LatencyModel, rec *recorder) *timedModel {
	return &timedModel{inner: inner, rec: rec, parent: -1}
}

// model returns the decorator as the narrowest interface the inner model
// offers: the span search takes its allocation-free encoded path only for an
// EncodedPredictor, and the decorator must not change which path runs.
func (t *timedModel) model() predictor.LatencyModel {
	if enc, ok := t.inner.(predictor.EncodedPredictor); ok {
		return &timedEncoded{timedModel: t, enc: enc}
	}
	return t
}

func (t *timedModel) begin() (int32, time.Time) {
	return t.rec.begin(spanPredict, -1, t.parent), time.Now()
}

func (t *timedModel) finish(sp int32, t0 time.Time, groups int) {
	t.ns.Add(int64(time.Since(t0)))
	t.rec.end(sp)
	t.calls.Add(1)
	t.groups.Add(int64(groups))
}

// due reports whether this group is the 64th since the last one kept.
func (t *timedModel) due() bool { return t.seen.Add(1)%sampleEvery == 0 }

func (t *timedModel) keep(g predictor.Group, said float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.sampled) < sampleCap {
		t.sampled = append(t.sampled, append(predictor.Group(nil), g...))
		t.said = append(t.said, said)
	}
}

func (t *timedModel) Predict(g predictor.Group) float64 {
	if t.off != nil && t.off() {
		return t.inner.Predict(g)
	}
	sp, t0 := t.begin()
	v := t.inner.Predict(g)
	t.finish(sp, t0, 1)
	if t.due() {
		t.keep(g, v)
	}
	return v
}

func (t *timedModel) PredictBatch(gs []predictor.Group) []float64 {
	if t.off != nil && t.off() {
		return t.inner.PredictBatch(gs)
	}
	sp, t0 := t.begin()
	out := t.inner.PredictBatch(gs)
	t.finish(sp, t0, len(gs))
	for i, g := range gs {
		if t.due() {
			t.keep(g, out[i])
		}
	}
	return out
}

// mapeVsOracle re-scores the sampled groups with the exact oracle and
// returns the mean absolute percentage error of what the model said.
func (t *timedModel) mapeVsOracle() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.sampled) == 0 {
		return 0
	}
	truth := predictor.Oracle{Profile: profileA100}.PredictBatch(t.sampled)
	return stats.MAPE(t.said, truth)
}

// timedEncoded adds the encoded fast path for a trained predictor.
type timedEncoded struct {
	*timedModel
	enc predictor.EncodedPredictor
}

func (t *timedEncoded) Codec() predictor.Codec { return t.enc.Codec() }

func (t *timedEncoded) PredictEncoded(rows [][]float64, dst []float64) {
	if t.off != nil && t.off() {
		t.enc.PredictEncoded(rows, dst)
		return
	}
	sp, t0 := t.begin()
	t.enc.PredictEncoded(rows, dst)
	t.finish(sp, t0, len(rows))
	for i, row := range rows {
		if !t.due() {
			continue
		}
		g, err := t.enc.Codec().Decode(row)
		if err != nil {
			panic(err) // the span search only encodes groups it validated
		}
		t.keep(g, dst[i])
	}
}
