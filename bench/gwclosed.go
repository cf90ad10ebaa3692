package main

import (
	"math/rand"
	"strconv"
	"sync"
	"time"

	"abacus/internal/dnn"
	"abacus/internal/predictor"
	"abacus/internal/realtime"
	"abacus/internal/server"
)

// gw-closed: ingest saturation on the wall clock. An unpaced two-node
// gateway with the default oracle and memo, both nodes hosting all four
// models so that every request takes the replica-filtering route path (the
// default placement for four models on two nodes gives each model a single
// host and a trivial route). Two closed-loop clients send eight fixed bodies;
// fixed inputs keep the memo at ~100% hits, so a predictor change should not
// move this workload.
var (
	closedModels  = []dnn.ModelID{dnn.ResNet152, dnn.InceptionV3, dnn.ResNet50, dnn.VGG16}
	closedBatches = []int{4, 16}
)

const (
	closedClients   = 2
	blockPerClient  = 8192 // × 2 clients = one 16 k block
	warmupPerClient = 8192
	maxBlocks       = 64
	idEvery         = 4  // every 4th request carries a fresh request_id
	resendEvery     = 64 // every 64th re-sends the previous one once
)

type gwClosed struct {
	cfg       runCfg
	gw        *gateway
	prefixes  [][]byte // the eight bodies, without the closing brace
	models    []string
	heavy     []bool    // the larger batch of each model
	order     [][]uint8 // per client: body index of each request of a block
	clients   []*closedClient
	perClient int
	resends   int64 // re-sent request IDs so far, warm-up included
}

type closedClient struct {
	c    *conn
	n    int64 // requests sent so far
	id   []byte
	body []byte
	last int // body index of the previous request
}

func setupGWClosed(cfg runCfg) (instance, error) {
	two := [][]dnn.ModelID{closedModels, closedModels}
	gw, err := startGateway(server.Config{Models: closedModels, Placement: two, Speedup: realtime.Unpaced}, nil, cfg.traced)
	if err != nil {
		return nil, err
	}
	g := &gwClosed{cfg: cfg, gw: gw, perClient: cfg.scaled(blockPerClient, resendEvery)}
	for _, m := range closedModels {
		for i, b := range closedBatches {
			body := inferBody(m, dnn.Input{Batch: b})
			g.prefixes = append(g.prefixes, body[:len(body)-1])
			g.models = append(g.models, m.String())
			g.heavy = append(g.heavy, i == len(closedBatches)-1)
		}
	}
	// Every block is the same multiset of bodies in an order drawn from the
	// seed, so blocks are identical work and --seed moves only the
	// interleaving. Of every 32 requests each body gets 4, except the first
	// (5) and the last (3): each body has one latency, so with equal shares
	// the median latency ratio would sit on the boundary between two bodies
	// and jump from one to the other with the seed.
	var shares []uint8
	for k := range g.prefixes {
		n := 4
		if k == 0 {
			n = 5
		} else if k == len(g.prefixes)-1 {
			n = 3
		}
		for ; n > 0; n-- {
			shares = append(shares, uint8(k))
		}
	}
	for c := 0; c < closedClients; c++ {
		rng := rand.New(rand.NewSource(subSeed(cfg.seed, uint64(c))))
		order := make([]uint8, g.perClient)
		for i := range order {
			order[i] = shares[i%len(shares)]
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		g.order = append(g.order, order)
		g.clients = append(g.clients, &closedClient{c: newConn(gw.h), id: []byte("c" + strconv.Itoa(c) + "-")})
	}
	// Warm-up: pools, memo, solo cache, sticky and dedupe caches; every
	// response is validated in full.
	warm := newClosedSamples(closedClients, cfg.scaled(warmupPerClient, resendEvery))
	if err := g.runBlock(warm, cfg.scaled(warmupPerClient, resendEvery), true); err != nil {
		gw.stop()
		return nil, err
	}
	return g, nil
}

func (g *gwClosed) close() { g.gw.stop() }

// closedSamples is what the clients record: per-client slices, so the two
// goroutines never share a cache line they write.
type closedSamples struct {
	wallMS [][]float32
	ratio  [][]float32
	all    []tally
	heavy  []tally
	dups   []int64
}

func newClosedSamples(clients, capacity int) *closedSamples {
	s := &closedSamples{all: make([]tally, clients), heavy: make([]tally, clients), dups: make([]int64, clients)}
	for c := 0; c < clients; c++ {
		s.wallMS = append(s.wallMS, make([]float32, 0, capacity))
		s.ratio = append(s.ratio, make([]float32, 0, capacity))
	}
	return s
}

// runBlock has every client send n requests back to back. With validate set
// each 200 is checked in full (the warm-up); otherwise only the verdict
// fields are read.
func (g *gwClosed) runBlock(s *closedSamples, n int, validate bool) error {
	var wg sync.WaitGroup
	errs := make([]error, len(g.clients))
	for ci, cl := range g.clients {
		wg.Add(1)
		go func(ci int, cl *closedClient) {
			defer wg.Done()
			order := g.order[ci]
			for i := 0; i < n; i++ {
				k := int(order[i%len(order)])
				resend := cl.n%resendEvery == 1 && cl.n > 0
				if resend {
					k = cl.last // the body, request_id included, goes out again
				} else {
					cl.body = append(cl.body[:0], g.prefixes[k]...)
					if cl.n%idEvery == 0 {
						cl.body = append(cl.body, `,"request_id":"`...)
						cl.body = append(cl.body, cl.id...)
						cl.body = strconv.AppendInt(cl.body, cl.n, 10)
						cl.body = append(cl.body, '"')
					}
					cl.body = append(cl.body, '}')
				}
				cl.n++
				cl.last = k

				t0 := time.Now()
				code := cl.c.roundTrip(cl.body)
				wall := time.Since(t0)
				v := readVerdict(code, cl.c.w.buf)
				if validate && code == 200 && errs[ci] == nil {
					errs[ci] = checkResponse(cl.c.w.buf, g.models[k])
				}
				if v.duplicate != resend {
					v.outcome = outFailed // a re-send must be suppressed, and nothing else
				}
				s.all[ci].add(v.outcome)
				if g.heavy[k] {
					s.heavy[ci].add(v.outcome)
				}
				if resend {
					s.dups[ci]++
				}
				s.wallMS[ci] = append(s.wallMS[ci], float32(wall)/float32(time.Millisecond))
				if v.outcome == outGood || v.outcome == outViolated {
					s.ratio[ci] = append(s.ratio[ci], float32(v.latencyMS/v.deadlineMS))
				}
			}
		}(ci, cl)
	}
	wg.Wait()
	for _, d := range s.dups {
		g.resends += d
	}
	for i := range s.dups {
		s.dups[i] = 0
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (g *gwClosed) measure(r *report) {
	s := newClosedSamples(closedClients, maxBlocks*g.perClient)
	before, err := g.gw.statz()
	if err != nil {
		r.problem("%v", err)
		return
	}
	var costs []hostCost
	unitsUntil(time.Duration(g.cfg.seconds*float64(time.Second)), 4, maxBlocks, func(int) {
		h0 := readHost()
		_ = g.runBlock(s, g.perClient, false) // errors arise only when validating
		costs = append(costs, costBetween(h0, readHost(), 0, closedClients*g.perClient))
	})
	after, err := g.gw.statz()
	if err != nil {
		r.problem("%v", err)
		return
	}
	r.setHostCosts(costs)

	var all, heavy tally
	var ratios []float64
	for c := 0; c < closedClients; c++ {
		all.merge(s.all[c])
		heavy.merge(s.heavy[c])
		ratios = append(ratios, widen(s.ratio[c])...)
	}
	// Wall latency percentiles are taken per block, then the best block's,
	// for the reason setHostCosts gives.
	var w50, w99 []float64
	for b := range costs {
		var wall []float64
		for c := 0; c < closedClients; c++ {
			wall = append(wall, widen(s.wallMS[c][b*g.perClient:(b+1)*g.perClient])...)
		}
		p50, p99, _ := medianAndTail(wall)
		w50, w99 = append(w50, p50), append(w99, p99)
	}
	r.attempted, r.failed = all.sent, all.by[outFailed]
	if err := all.conserved(); err != nil {
		r.problem("%v", err)
	}
	if all.by[outFailed] > 0 || all.by[outDropped] > 0 {
		r.problem("%d responses were neither a parsable 200 nor a 429 (%d of them 504 drops)",
			all.by[outFailed]+all.by[outDropped], all.by[outDropped])
	}
	if got := after.Faults.DuplicatesSuppressed; got != g.resends {
		r.problem("gateway suppressed %d duplicates, clients re-sent %d request IDs", got, g.resends)
	}
	if len(ratios) == 0 {
		r.problem("no request was answered")
		return
	}
	r.set("goodput", all.goodput())
	// A closed loop cannot overload the gateway; the nearest thing to a
	// stressed subset is the larger batch of each model, which runs closest
	// to its QoS target.
	r.set("goodput_overload", heavy.goodput())
	// One load level: what two closed-loop clients offer, in requests per
	// virtual second (the unpaced clocks advance only as work is simulated).
	virtualS := (after.NowMS - before.NowMS) / 1000
	peak := 0.0
	if all.goodput() >= qosFloor {
		peak = float64(all.sent) / virtualS
	}
	r.set("peak_qps_at_qos", peak)
	p50, p99, _ := medianAndTail(ratios)
	r.set("lat_p50_over_qos", p50)
	r.set("lat_p99_over_qos", p99)
	r.setBest("wall_p50_ms", w50)
	r.setBest("wall_p99_ms", w99)
	r.set("gpu_s_per_kgood", (nodeMS(after)-nodeMS(before))/float64(all.by[outGood]))
}

func widen(xs []float32) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

func (g *gwClosed) layers(r *report) {
	budget := time.Duration(g.cfg.seconds * float64(time.Second))
	start := time.Now()
	r.set("workload.materialize_us_per_arrival", 0) // fixed bodies, nothing materialised

	// The real gateway, blocks alternately untraced and traced.
	s := newClosedSamples(closedClients, maxBlocks*g.perClient)
	var plain, traced []float64
	unitsUntil(budget/2, 4, maxBlocks, func(i int) {
		g.gw.tracing.Store(i%2 == 1)
		h0 := readHost()
		_ = g.runBlock(s, g.perClient, false)
		c := costBetween(h0, readHost(), 0, closedClients*g.perClient)
		if i%2 == 1 {
			traced = append(traced, c.cpuUSPerReq())
		} else {
			plain = append(plain, c.cpuUSPerReq())
		}
		r.attempted += int64(closedClients * g.perClient)
	})
	g.gw.tracing.Store(false)
	r.set("host.trace_overhead_share", median(traced)/median(plain)-1)
	handlerUS := g.gw.handlerSpans(r, g.cfg.traceOut)
	r.set("server.handler_us", handlerUS)
	if st, err := g.gw.statz(); err != nil {
		r.problem("%v", err)
	} else {
		statzLayers(r, st)
	}

	// The same mix through the bench-owned stack, one request at a time as
	// the unpaced gateway runs them.
	reqs := make([]replayReq, 0, maxReplayRequests)
	for i := 0; len(reqs) < cap(reqs) && i < g.perClient; i++ {
		for c := 0; c < closedClients; c++ {
			k := int(g.order[c][i])
			reqs = append(reqs, replayReq{svc: k / len(closedBatches),
				in:   dnn.Input{Batch: closedBatches[k%len(closedBatches)]},
				body: append(append([]byte(nil), g.prefixes[k]...), '}')})
		}
	}
	attributed := tracedReplay(r, g.cfg, stackCfg{
		models: closedModels, nodes: 2, admit: true, memo: 4096, closedLoop: true,
		inner: predictor.Oracle{Profile: profileA100},
	}, reqs, budget-time.Since(start))
	r.set("server.residual_us", handlerUS-attributed)
}
