package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"time"

	"abacus/internal/dnn"
	"abacus/internal/predictor"
	"abacus/internal/serving"
	"abacus/internal/trace"
)

// pair-ladder: the paper's §7.3 experiment. serving.Run with PolicyAbacus on
// Res152+IncepV3, the trained MLP with no memo in front, open-loop Poisson
// arrivals with random Table-1 inputs at six fixed rates. The rungs were
// placed from the measured goodput curve (see README): goodput falls gently
// with load — about one point per 8 qps — so a rung next to the 0.95 floor
// would flip peak_qps_at_qos from seed to seed. The in-capacity rungs end at
// 36 qps (goodput ≈ 0.968) and the overload rungs start at 56 (≈ 0.930),
// each four standard deviations of a 60 s rung's goodput away from the floor.
var ladderRungs = []float64{16, 24, 32, 36, 56, 72}

const (
	ladderInCapacity = 4      // rungs below this index are the in-capacity set
	rungVirtualMS    = 60_000 // arrival window of one rung
)

type ladder struct {
	cfg      runCfg
	mlp      *predictor.Predictor
	arrivals [][]trace.Arrival
}

func setupLadder(cfg runCfg) (instance, error) {
	mlp, err := trainMLP(cfg)
	if err != nil {
		return nil, err
	}
	l := &ladder{cfg: cfg, mlp: mlp}
	for i, qps := range ladderRungs {
		arr := trace.NewGenerator(pairModels, subSeed(cfg.seed, uint64(i))).Poisson(qps, rungVirtualMS*cfg.scale)
		l.arrivals = append(l.arrivals, arr)
	}
	// Warm-up: one rung end to end, so the heap has its working size and
	// the zoo is built before anything is timed.
	l.runRung(2)
	return l, nil
}

func (l *ladder) close() {}

func (l *ladder) runRung(i int) serving.Result {
	return serving.Run(serving.RunConfig{
		Policy: serving.PolicyAbacus, Models: pairModels, Arrivals: l.arrivals[i], Model: l.mlp,
	})
}

// ladderPass is what one pass over the six rungs simulated.
type ladderPass struct {
	rungs   []tally
	drained []bool
	ratios  []float64 // latency ÷ QoS of every completed query, all rungs
	latMS   []float64
	nodeMS  float64 // virtual time the GPU was held, summed over rungs
	digest  uint64  // of every record, to compare repeats bit for bit
}

func (l *ladder) analyse(results []serving.Result) ladderPass {
	p := ladderPass{rungs: make([]tally, len(results)), drained: make([]bool, len(results))}
	h := fnv.New64a()
	hash := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	for i, res := range results {
		arr := l.arrivals[i]
		var maxQoS, lastFinish float64
		for _, s := range res.Services {
			maxQoS = math.Max(maxQoS, s.QoS)
		}
		for _, rec := range res.Records {
			hash(math.Float64bits(rec.Finish))
			hash(uint64(rec.Service<<1 | b2i(rec.Dropped)))
			lastFinish = math.Max(lastFinish, rec.Finish)
			switch {
			case rec.Dropped:
				p.rungs[i].add(outDropped)
			case rec.Violated:
				p.rungs[i].add(outViolated)
			default:
				p.rungs[i].add(outGood)
			}
			if !rec.Dropped {
				p.ratios = append(p.ratios, rec.Latency/rec.QoS)
				p.latMS = append(p.latMS, rec.Latency)
			}
		}
		// A query the run never emitted was still queued when the drain
		// window closed: it failed, and the rung did not drain.
		for n := len(res.Records); n < len(arr); n++ {
			p.rungs[i].add(outFailed)
		}
		p.drained[i] = len(res.Records) == len(arr) &&
			lastFinish <= arr[len(arr)-1].Time+2*maxQoS
		p.nodeMS += res.DurationMS
	}
	p.digest = h.Sum64()
	return p
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (l *ladder) measure(r *report) {
	var costs []hostCost
	var first ladderPass
	results := make([]serving.Result, len(ladderRungs))
	unitsUntil(time.Duration(l.cfg.seconds*float64(time.Second)), 2, 64, func(pass int) {
		// Each rung is a unit of its own kind: six shorter units catch a
		// quiet moment of the host more often than one long pass does.
		for i := range ladderRungs {
			h0 := readHost()
			results[i] = l.runRung(i)
			costs = append(costs, costBetween(h0, readHost(), i, len(l.arrivals[i])))
		}
		p := l.analyse(results)
		if pass == 0 {
			first = p
		} else if p.digest != first.digest {
			r.problem("pass %d simulated a different ladder than pass 0 (digest %x != %x)", pass, p.digest, first.digest)
		}
		for _, t := range p.rungs {
			r.attempted += t.sent
			r.failed += t.by[outFailed]
		}
	})
	r.setHostCosts(costs)

	var in, over, all tally
	peak, open := 0.0, true
	for i, t := range first.rungs {
		if err := t.conserved(); err != nil {
			r.problem("rung %v qps: %v", ladderRungs[i], err)
		}
		if !first.drained[i] {
			r.problem("rung %v qps: backlog not drained within 2x QoS of the last arrival", ladderRungs[i])
		}
		if i < ladderInCapacity {
			in.merge(t)
		} else {
			over.merge(t)
		}
		all.merge(t)
		if open && t.goodput() >= qosFloor && first.drained[i] {
			peak = ladderRungs[i]
		} else {
			open = false
		}
	}
	r.set("goodput", in.goodput())
	r.set("goodput_overload", over.goodput())
	r.set("peak_qps_at_qos", peak)
	p50, p99, _ := medianAndTail(first.ratios)
	r.set("lat_p50_over_qos", p50)
	r.set("lat_p99_over_qos", p99)
	w50, w99, _ := medianAndTail(first.latMS)
	r.setSimulatedWall(w50, w99, all.sent, first.nodeMS)
	r.set("gpu_s_per_kgood", first.nodeMS/float64(all.by[outGood]))
}

// replayRequests lays the six rungs end to end on one timeline, each
// followed by a gap long enough for its backlog to drain, so one bench-owned
// stack replays the whole ladder.
func (l *ladder) replayRequests() []replayReq {
	bodies := newBodyCache(pairModels)
	var reqs []replayReq
	offset := 0.0
	for _, arr := range l.arrivals {
		for _, a := range arr {
			reqs = append(reqs, replayReq{atMS: offset + a.Time, svc: a.Service, in: a.Input, body: bodies.get(a.Service, a.Input)})
		}
		offset += rungVirtualMS*l.cfg.scale + 2000
	}
	return reqs
}

func (l *ladder) layers(r *report) {
	t0 := time.Now()
	var n int
	for i, qps := range ladderRungs {
		n += len(trace.NewGenerator(pairModels, subSeed(l.cfg.seed, uint64(i))).Poisson(qps, rungVirtualMS*l.cfg.scale))
	}
	r.set("workload.materialize_us_per_arrival", float64(time.Since(t0))/1e3/float64(n))
	r.set("cluster.route_imbalance", 1) // one node
	tracedReplay(r, l.cfg, stackCfg{models: pairModels, nodes: 1, inner: l.mlp}, l.replayRequests(),
		time.Duration(l.cfg.seconds*float64(time.Second)))
}

// bodyCache renders each distinct (service, input) once as a /v1/infer body.
type bodyCache struct {
	models []dnn.ModelID
	m      map[bodyKey][]byte
}

type bodyKey struct {
	svc int
	in  dnn.Input
}

func newBodyCache(models []dnn.ModelID) *bodyCache {
	return &bodyCache{models: models, m: map[bodyKey][]byte{}}
}

func (c *bodyCache) get(svc int, in dnn.Input) []byte {
	k := bodyKey{svc, in}
	if b, ok := c.m[k]; ok {
		return b
	}
	b := inferBody(c.models[svc], in)
	c.m[k] = b
	return b
}
