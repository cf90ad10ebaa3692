package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"time"

	"abacus/internal/predictor"
	"abacus/internal/server"
)

// gateway is a real server.Server driven in process. When built for the
// traced pass it carries the two probes that fit around the program from
// outside: an http.Handler wrapper giving one handler span per request, and
// the timing decorator under the model. Both are switched by tracing, so one
// gateway serves the traced blocks and the untraced ones they are compared
// with.
type gateway struct {
	srv     *server.Server
	h       http.Handler
	timed   *timedModel // nil unless built for the traced pass
	rec     *recorder
	tracing atomic.Bool
	seq     atomic.Int32
	epoch   time.Time // just before Start: the origin of the paced virtual clocks
}

// startGateway builds and starts the gateway. inner is the duration model
// (nil: the gateway's own default oracle).
func startGateway(cfg server.Config, inner predictor.LatencyModel, traced bool) (*gateway, error) {
	g := &gateway{}
	cfg.Model = inner
	if traced {
		if inner == nil {
			inner = predictor.Oracle{Profile: profileA100}
		}
		g.rec = newRecorder(1 << 20)
		g.timed = newTimedModel(inner, g.rec)
		g.timed.off = func() bool { return !g.tracing.Load() }
		cfg.Model = g.timed.model()
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	g.srv = srv
	g.h = srv.Handler()
	if traced {
		g.h = http.HandlerFunc(g.serveTraced)
	}
	g.epoch = time.Now()
	srv.Start()
	return g, nil
}

func (g *gateway) serveTraced(w http.ResponseWriter, r *http.Request) {
	if !g.tracing.Load() {
		g.srv.Handler().ServeHTTP(w, r)
		return
	}
	sp := g.rec.begin(spanHandler, g.seq.Add(1), -1)
	g.srv.Handler().ServeHTTP(w, r)
	g.rec.end(sp)
}

func (g *gateway) stop() { g.srv.Drain() }

// handlerSpans folds the handler and predict spans recorded inside the real
// gateway, writes them beside the replay's trace, and returns the mean
// handler span in microseconds.
func (g *gateway) handlerSpans(r *report, traceOut string) float64 {
	lt := g.rec.fold()
	if d := g.rec.dropped.Load(); d > 0 || lt.broken > 0 {
		r.problem("gateway trace: %d spans did not fit, %d badly nested", d, lt.broken)
	}
	if traceOut != "" {
		path := strings.TrimSuffix(traceOut, ".json") + "-gateway.json"
		if err := g.rec.write(path, r.workload); err != nil {
			r.problem("writing trace: %v", err)
		}
	}
	return ratio(float64(lt.total[spanHandler])/1e3, float64(lt.count[spanHandler]))
}

// statz reads /statz the way an operator would.
func (g *gateway) statz() (server.Statz, error) {
	w := httptest.NewRecorder()
	g.srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/statz", nil))
	var st server.Statz
	if w.Code != http.StatusOK {
		return st, fmt.Errorf("/statz answered %d", w.Code)
	}
	err := json.Unmarshal(w.Body.Bytes(), &st)
	return st, err
}

// nodeMS sums the nodes' virtual clocks: the node-time the fleet has
// consumed since it started.
func nodeMS(st server.Statz) (sum float64) {
	for _, n := range st.Nodes {
		sum += n.NowMS
	}
	return sum
}

// checkResponse validates one 200 response in full against the request that
// caused it — the warm-up does this for every response; the measured phase
// reads only the fields it needs.
func checkResponse(body []byte, model string) error {
	var resp server.InferResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("unparsable response %q: %v", body, err)
	}
	if resp.Model != model || !resp.Accepted || resp.LatencyMS <= 0 || resp.DeadlineMS <= 0 ||
		resp.FinishMS < resp.ArrivalMS {
		return fmt.Errorf("implausible response %q for model %s", body, model)
	}
	return nil
}

// statzLayers reports the gateway's own admission counters, and how evenly
// the router spread the accepted queries over the nodes.
func statzLayers(r *report, st server.Statz) {
	var acc, rq, rd, rg float64
	for _, s := range st.Services {
		acc += float64(s.Accepted)
		rq += float64(s.RejectedQueue)
		rd += float64(s.RejectedDeadline)
		rg += float64(s.RejectedDegraded)
	}
	r.set("server.accepted", acc)
	r.set("server.rejected_queue", rq)
	r.set("server.rejected_deadline", rd)
	r.set("server.rejected_degraded", rg)
	r.set("server.duplicates_suppressed", float64(st.Faults.DuplicatesSuppressed))
	var most, sum, migrated float64
	for _, n := range st.Nodes {
		sum += float64(n.Routed)
		migrated += float64(n.MigratedIn)
		if float64(n.Routed) > most {
			most = float64(n.Routed)
		}
	}
	r.set("server.migrated_in", migrated)
	r.set("cluster.route_imbalance", ratio(most*float64(len(st.Nodes)), sum))
}
