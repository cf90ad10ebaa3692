package main

import (
	"bytes"
	"fmt"
	"time"

	"abacus/internal/chaos"
	"abacus/internal/predictor"
	"abacus/internal/scaler"
	"abacus/internal/sched"
	"abacus/internal/trace"
)

// elastic-day: the fleet control plane in virtual time. chaos.Run on the
// built-in diurnal-autoscale scenario (MAF day, autoscale 1..4 nodes,
// memoized oracle) with a retrying client and node 0 throttled to half speed
// through the morning ramp.
type elastic struct {
	cfg runCfg
	sc  chaos.Scenario
}

const (
	throttleStartMS = 20_000 // the morning ramp of the 240 s day
	throttleEndMS   = 50_000
)

func elasticScenario(cfg runCfg, dayShare float64) (chaos.Scenario, error) {
	sc, ok := chaos.Lookup("diurnal-autoscale")
	if !ok || sc.MAF == nil || sc.Autoscale == nil {
		return sc, fmt.Errorf("chaos scenario diurnal-autoscale is not the elastic MAF day any more")
	}
	k := cfg.scale * dayShare
	sc.Seed = cfg.seed
	sc.Models = pairModels
	maf := *sc.MAF
	maf.Seed = cfg.seed
	maf.DurationMS *= k
	sc.MAF = &maf
	as := *sc.Autoscale
	as.IntervalMS *= k
	as.WarmupMS *= k
	sc.Autoscale = &as
	sc.PredictCache = 4096
	sc.Retry = &chaos.RetryConfig{}
	sc.Script = chaos.Script{Windows: []chaos.Window{{
		Kind: chaos.KindGPUThrottle, Start: throttleStartMS * k, End: throttleEndMS * k, Magnitude: 0.5, Node: 0,
	}}}
	return sc, nil
}

func setupElastic(cfg runCfg) (instance, error) {
	sc, err := elasticScenario(cfg, 1)
	if err != nil {
		return nil, err
	}
	// Warm-up: half a day, so the heap has its working size.
	warm, err := elasticScenario(cfg, 0.5)
	if err != nil {
		return nil, err
	}
	if _, err := chaos.Run(warm); err != nil {
		return nil, err
	}
	return &elastic{cfg: cfg, sc: sc}, nil
}

func (e *elastic) close() {}

func (e *elastic) measure(r *report) {
	var costs []hostCost
	var first *chaos.Report
	var firstJSON []byte
	unitsUntil(time.Duration(e.cfg.seconds*float64(time.Second)), 2, 64, func(i int) {
		h0 := readHost()
		rep, err := chaos.Run(e.sc)
		h1 := readHost()
		if err != nil {
			r.problem("repeat %d: %v", i, err)
			return
		}
		costs = append(costs, costBetween(h0, h1, 0, int(rep.Sent)))
		r.attempted += rep.Sent
		js, err := rep.JSON()
		if err != nil {
			r.problem("repeat %d: %v", i, err)
		}
		if first == nil {
			first, firstJSON = rep, js
		} else if !bytes.Equal(js, firstJSON) {
			r.problem("repeat %d produced a different report than repeat 0", i)
		}
	})
	if first == nil {
		return
	}
	r.setHostCosts(costs)

	t := tally{sent: first.Sent}
	t.by[outGood] = first.Good
	t.by[outViolated] = first.Violated
	t.by[outDropped] = first.Dropped
	t.by[outRefused] = first.GaveUp
	if err := t.conserved(); err != nil {
		r.problem("%v", err)
	}
	// chaos.Report.Goodput is good ÷ admitted; the benchmark's is good ÷ sent.
	r.set("goodput", t.goodput())
	// The stressed subset is what the throttled node accepted. Refusals are
	// not attributed to a node in chaos.Report; they count in goodput above.
	if len(first.Nodes) == 0 || first.Nodes[0].Admitted == 0 {
		r.problem("node 0 admitted nothing")
		r.set("goodput_overload", 0)
	} else {
		r.set("goodput_overload", float64(first.Nodes[0].Good)/float64(first.Nodes[0].Admitted))
	}
	// One load level, the whole day, at its realised mean rate.
	peak := 0.0
	if t.goodput() >= qosFloor {
		peak = first.QPS
	}
	r.set("peak_qps_at_qos", peak)
	// The report has latency in ms over all services; normalise by the
	// completion-weighted mean QoS target.
	var qos, done float64
	for i, svc := range sched.Services(e.sc.Models, 2, profileA100) {
		qos += svc.QoS * float64(first.Services[i].Completed)
		done += float64(first.Services[i].Completed)
	}
	qos /= done
	r.set("lat_p50_over_qos", first.P50MS/qos)
	r.set("lat_p99_over_qos", first.P99MS/qos)
	r.setSimulatedWall(first.P50MS, first.P99MS, first.Sent, first.Autoscale.EndMS)
	r.set("gpu_s_per_kgood", first.Autoscale.NodeMS/float64(first.Good))
}

func (e *elastic) layers(r *report) {
	budget := time.Duration(e.cfg.seconds * float64(time.Second))
	start := time.Now()

	t0 := time.Now()
	arrivals := trace.NewGenerator(e.sc.Models, e.sc.Seed).MAF(*e.sc.MAF)
	r.set("workload.materialize_us_per_arrival", float64(time.Since(t0))/1e3/float64(len(arrivals)))

	rep, err := chaos.Run(e.sc)
	if err != nil {
		r.problem("%v", err)
		return
	}
	r.attempted += rep.Sent
	as := rep.Autoscale
	r.set("scaler.ticks", float64(as.Ticks))
	r.set("scaler.scale_outs", float64(as.ScaleOuts))
	r.set("scaler.scale_ins", float64(as.ScaleIns))
	r.set("scaler.node_ms", as.NodeMS)
	r.set("scaler.saved_share", as.SavedFrac)
	r.set("chaos.migrations", float64(rep.Migrations))
	r.set("chaos.retries", float64(rep.Retries))
	r.set("chaos.gave_up", float64(rep.GaveUp))
	var most, sum float64
	for _, n := range rep.Nodes {
		sum += float64(n.Routed)
		if float64(n.Routed) > most {
			most = float64(n.Routed)
		}
	}
	r.set("cluster.route_imbalance", ratio(most*float64(len(rep.Nodes)), sum))

	// scaler.tick_ns: the controller alone, fed the day's own load curve.
	ctrl, err := scaler.New(*e.sc.Autoscale)
	if err != nil {
		r.problem("%v", err)
		return
	}
	const ticks = 20_000
	t0 = time.Now()
	for i := 0; i < ticks; i++ {
		now := float64(i+1) * e.sc.Autoscale.IntervalMS
		adv := ctrl.Tick(now, 30+27*float64(i%48-24)/24)
		for _, id := range adv.Drain {
			ctrl.Retire(id, now)
		}
	}
	r.set("scaler.tick_ns", float64(time.Since(t0))/ticks)

	bodies := newBodyCache(e.sc.Models)
	reqs := make([]replayReq, len(arrivals))
	for i, a := range arrivals {
		reqs[i] = replayReq{atMS: a.Time, svc: a.Service, in: a.Input, body: bodies.get(a.Service, a.Input)}
	}
	// The replay stack is a fixed two-node fleet: what the scaler does to
	// the real one is in the chaos.Report counters above.
	tracedReplay(r, e.cfg, stackCfg{
		models: e.sc.Models, nodes: 2, admit: true, memo: e.sc.PredictCache,
		inner: predictor.Oracle{Profile: profileA100},
	}, reqs, budget-time.Since(start))
}
