package main

import (
	"math"
	"sync"
	"time"

	"abacus/internal/dnn"
	"abacus/internal/predictor"
	"abacus/internal/server"
	"abacus/internal/trace"
	"abacus/internal/workload"
)

// fleet-paced: the only workload with a queue and a wall clock. A gateway
// paced at four virtual ms per wall ms, two nodes each hosting Res152 and
// IncepV3, the trained MLP behind the default memo. An open-loop schedule
// compiled from a workload.Spec repeats one 20 s-virtual cycle: service 0
// runs at 20 qps and flashes to 120 qps for 4 s, service 1 holds 20 qps with
// gamma-0.3 gaps, inputs random — the flash is about twice what the two
// nodes can serve, so admission sheds, and varied inputs make the memo miss.
const (
	pacedSpeedup   = 4
	cycleVirtualMS = 20_000
	flashStartMS   = 8_000 // within each cycle
	flashEndMS     = 12_000
	baseQPS        = 20 // per service
	flashQPS       = 120
	pacedWorkers   = 64
	pacedWarmup    = 256
	// A request handed to its worker more than lateMS after it was due is
	// late; a run with more than maxLateShare of them is invalid rather than
	// slow. An idle time.Sleep in the sandbox this was written in overshoots
	// by 0.6 ms at the median and 1.9 ms at p99 (a kernel nanosleep on a
	// locked thread is no better at p99 and doubles the CPU per request), so
	// the issue's "p99 under 1 ms" is below the timer floor, and one 200 ms
	// stall of the VM during a flash — they happen every few runs — makes a
	// hundred requests late: the rule has to tolerate that and still catch a
	// generator that cannot keep up.
	lateMS       = 5.0
	maxLateShare = 0.05
)

type paced struct {
	cfg      runCfg
	gw       *gateway
	mlp      *predictor.Predictor
	cycles   int
	cycleMS  float64 // virtual length of one cycle, scaled
	arrivals []trace.Arrival
	bodies   [][]byte // wire form of each arrival, rendered before any goroutine reads it
	compiled *workload.Compiled
}

func pacedSpec(cycles int, cycleMS float64) *workload.Spec {
	k := cycleMS / cycleVirtualMS
	var flash []workload.PhaseSpec
	for c := 0; c < cycles; c++ {
		at := float64(c) * cycleMS
		flash = append(flash, workload.PhaseSpec{
			Kind: workload.PhaseFlash, StartMS: at, EndMS: at + cycleMS, QPS: baseQPS, PeakQPS: flashQPS,
			PeakStartMS: at + flashStartMS*k, PeakEndMS: at + flashEndMS*k,
		})
	}
	return &workload.Spec{
		Name: "fleet-paced", DurationMS: float64(cycles) * cycleMS,
		Services: []workload.ServiceSpec{
			{Service: 0, Phases: flash},
			{Service: 1, Process: workload.ProcessSpec{Kind: workload.ProcGamma, Shape: 0.3},
				Phases: []workload.PhaseSpec{{Kind: workload.PhaseConstant, QPS: baseQPS}}},
		},
	}
}

func setupPaced(cfg runCfg) (instance, error) {
	mlp, err := trainMLP(cfg)
	if err != nil {
		return nil, err
	}
	p := &paced{cfg: cfg, mlp: mlp, cycleMS: cycleVirtualMS * cfg.scale}
	// As many whole cycles as fit three quarters of the measured time; the
	// last quarter measures host cost (see measure).
	p.cycles = int(0.75 * cfg.seconds * 1000 * pacedSpeedup / (cycleVirtualMS * cfg.scale))
	if min := 1 + b2i(cfg.traced); p.cycles < min {
		p.cycles = min // the traced pass needs one cycle untraced and one traced
	}
	p.compiled, err = pacedSpec(p.cycles, p.cycleMS).Bind(pairModels, cfg.seed)
	if err != nil {
		return nil, err
	}
	p.arrivals = p.compiled.Materialize()
	cache := newBodyCache(pairModels)
	for _, a := range p.arrivals {
		p.bodies = append(p.bodies, cache.get(a.Service, a.Input))
	}

	two := [][]dnn.ModelID{pairModels, pairModels}
	p.gw, err = startGateway(server.Config{Models: pairModels, Placement: two, Speedup: pacedSpeedup}, mlp, cfg.traced)
	if err != nil {
		return nil, err
	}
	// Warm-up: every (service, input) once or more through eight closed-loop
	// clients — pools, memo, solo cache — each response validated in full.
	var wg sync.WaitGroup
	errs := make([]error, 8)
	n := cfg.scaled(pacedWarmup, len(errs))
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newConn(p.gw.h)
			for i := w; i < n && i < len(p.arrivals); i += len(errs) {
				a := p.arrivals[i]
				if code := c.roundTrip(p.bodies[i]); code == 200 && errs[w] == nil {
					errs[w] = checkResponse(c.w.buf, pairModels[a.Service].String())
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			p.gw.stop()
			return nil, err
		}
	}
	return p, nil
}

func (p *paced) close() { p.gw.stop() }

// pacedSample is one request of the open-loop run, as its worker saw it.
type pacedSample struct {
	verdict
	wallMS float64 // from the instant the request was due to its answer
	lagMS  float64 // wall completion minus virtual finish ÷ speedup
	lateMS float64 // how long after its due time the generator handed it over
}

type pacedJob struct {
	idx int
	due time.Time
}

// drive sends the first cycles cycles of the schedule open loop: one
// generator goroutine sleeps to each due time and hands the request to one
// of 64 pre-started workers, so a slow gateway cannot slow the arrivals.
// atBoundary runs on the generator when the schedule crosses into each new
// cycle, and once at the end.
func (p *paced) drive(cycles int, atBoundary func(cycle int)) []pacedSample {
	arrivals := p.arrivals
	for i, a := range arrivals {
		if a.Time >= float64(cycles)*p.cycleMS {
			arrivals = arrivals[:i]
			break
		}
	}
	samples := make([]pacedSample, len(arrivals))
	// Buffered to the whole schedule: the generator never waits for a worker.
	jobs := make(chan pacedJob, len(arrivals))
	var wg sync.WaitGroup
	for w := 0; w < pacedWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newConn(p.gw.h)
			for j := range jobs {
				late := time.Since(j.due)
				code := c.roundTrip(p.bodies[j.idx])
				done := time.Now()
				s := &samples[j.idx]
				s.verdict = readVerdict(code, c.w.buf)
				s.wallMS = float64(done.Sub(j.due)) / float64(time.Millisecond)
				s.lateMS = float64(late) / float64(time.Millisecond)
				s.lagMS = float64(done.Sub(p.gw.epoch))/float64(time.Millisecond) - s.finishMS/pacedSpeedup
			}
		}()
	}
	start := time.Now()
	cycle := 0
	atBoundary(0)
	for i, a := range arrivals {
		for c := int(a.Time / p.cycleMS); cycle < c; {
			cycle++
			atBoundary(cycle)
		}
		due := start.Add(time.Duration(a.Time / pacedSpeedup * float64(time.Millisecond)))
		time.Sleep(time.Until(due))
		jobs <- pacedJob{idx: i, due: due}
	}
	close(jobs)
	time.Sleep(time.Until(start.Add(time.Duration(float64(cycles) * p.cycleMS / pacedSpeedup * float64(time.Millisecond)))))
	atBoundary(cycles)
	wg.Wait()
	return samples
}

func (p *paced) measure(r *report) {
	budget := time.Duration(p.cfg.seconds * float64(time.Second))
	start := time.Now()
	before, err := p.gw.statz()
	if err != nil {
		r.problem("%v", err)
		return
	}
	h0 := readHost()
	samples := p.drive(p.cycles, func(int) {})
	h1 := readHost()
	after, err := p.gw.statz()
	if err != nil {
		r.problem("%v", err)
		return
	}

	var all, flash tally
	var wall, ratios, late []float64
	tooLate := 0
	for i, s := range samples {
		all.add(s.outcome)
		if t := math.Mod(p.arrivals[i].Time, p.cycleMS) * cycleVirtualMS / p.cycleMS; t >= flashStartMS && t < flashEndMS {
			flash.add(s.outcome)
		}
		if s.lateMS > lateMS {
			tooLate++
		}
		late = append(late, s.lateMS)
		wall = append(wall, s.wallMS)
		if s.outcome == outGood || s.outcome == outViolated {
			ratios = append(ratios, s.latencyMS/s.deadlineMS)
		}
	}
	r.attempted, r.failed = all.sent, all.by[outFailed]
	if err := all.conserved(); err != nil {
		r.problem("%v", err)
	}
	if all.by[outFailed] > 0 {
		r.problem("%d responses were not a parsable 200, 429 or 504", all.by[outFailed])
	}
	lateP50, lateP99, _ := medianAndTail(late)
	r.note("generator lateness p50 %.3f ms, p99 %.3f ms; %d refused, %d dropped by the controller",
		lateP50, lateP99, all.by[outRefused], all.by[outDropped])
	r.note("paced phase: %.1f answers/s, %.0f us process CPU per request (mostly the Go runtime waking for timers: diagnostic, not a metric)",
		float64(len(ratios))/h1.wall.Sub(h0.wall).Seconds(), costBetween(h0, h1, 0, len(samples)).cpuUSPerReq())
	if share := float64(tooLate) / float64(len(samples)); share > maxLateShare {
		r.problem("generator ran late: %.1f%% of requests were handed over more than %v ms after they were due, so the run is invalid, not slow",
			100*share, lateMS)
	}
	if len(ratios) == 0 {
		r.problem("no request was answered")
		return
	}
	r.set("goodput", all.goodput())
	r.set("goodput_overload", flash.goodput())
	// Under a flash twice its capacity the gateway sheds the excess and
	// serves the rest: the rate it then answers within QoS, per virtual
	// second of flash, is the peak it sustains.
	flashS := float64(p.cycles) * (flashEndMS - flashStartMS) / 1000
	r.set("peak_qps_at_qos", float64(flash.by[outGood])/flashS)
	p50, p99, _ := medianAndTail(ratios)
	r.set("lat_p50_over_qos", p50)
	r.set("lat_p99_over_qos", p99)
	w50, w99, _ := medianAndTail(wall)
	r.set("wall_p50_ms", w50)
	r.set("wall_p99_ms", w99)
	r.set("gpu_s_per_kgood", (nodeMS(after)-nodeMS(before))/float64(all.by[outGood]))

	// Host cost. In the paced run CPU per request is mostly the Go runtime
	// waking threads for sub-millisecond timers — identical runs measured
	// 300 to 640 us — so it cannot be held to a bound. The cost this
	// workload adds over the others is the MLP behind a missing memo under
	// admission, and that is measured where it repeats: the same schedule
	// replayed in virtual time through the bench-owned stack.
	reqs := p.replayRequests()
	sc := p.replayStack()
	var costs []hostCost
	unitsUntil(budget-time.Since(start), 2, 16, func(int) {
		h0 := readHost()
		replay(sc, reqs, nil)
		costs = append(costs, costBetween(h0, readHost(), 0, len(reqs)))
	})
	r.setHostCosts(costs)
}

func (p *paced) replayRequests() []replayReq {
	reqs := make([]replayReq, len(p.arrivals))
	for i, a := range p.arrivals {
		reqs[i] = replayReq{atMS: a.Time, svc: a.Service, in: a.Input, body: p.bodies[i]}
	}
	return reqs
}

func (p *paced) replayStack() stackCfg {
	return stackCfg{models: pairModels, nodes: 2, admit: true, memo: 4096, inner: p.mlp}
}

func (p *paced) layers(r *report) {
	budget := time.Duration(p.cfg.seconds * float64(time.Second))
	t0 := time.Now()
	n := len(p.compiled.Materialize())
	r.set("workload.materialize_us_per_arrival", float64(time.Since(t0))/1e3/float64(n))

	// The real gateway: one cycle untraced, then one traced. The trace
	// overhead is taken from the replay below: between two paced cycles the
	// runtime's timer wake-ups differ by more than tracing costs.
	samples := p.drive(2, func(cycle int) { p.gw.tracing.Store(cycle%2 == 1) })
	p.gw.tracing.Store(false)
	var lag, late []float64
	for _, s := range samples {
		late = append(late, s.lateMS)
		if s.outcome == outGood || s.outcome == outViolated {
			lag = append(lag, s.lagMS)
		}
	}
	r.attempted += int64(len(samples))
	if len(lag) > 0 {
		l50, l99, _ := medianAndTail(lag)
		r.set("realtime.lag_p50_ms", l50)
		r.set("realtime.lag_p99_ms", l99)
	}
	_, g99, _ := medianAndTail(late)
	r.set("realtime.gen_late_p99_ms", g99)
	handlerUS := p.gw.handlerSpans(r, p.cfg.traceOut)
	r.set("server.handler_us", handlerUS)
	if st, err := p.gw.statz(); err != nil {
		r.problem("%v", err)
	} else {
		statzLayers(r, st)
	}

	attributed := tracedReplay(r, p.cfg, p.replayStack(), p.replayRequests(), budget-time.Since(t0))
	r.set("server.residual_us", handlerUS-attributed)
}
