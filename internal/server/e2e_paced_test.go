//go:build paced

// The wall-clock-paced end-to-end tests. What they assert depends on how far
// the host lets the simulator fall behind the paced schedule, so they are
// not part of `go test ./...`; run them with `go test -tags paced
// ./internal/server` (`make test-paced`). A failure logs the host's lag.
// Everything that does not need pacing is asserted unpaced in
// e2e_unpaced_test.go.

package server

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"abacus/internal/dnn"
	"abacus/internal/trace"
)

// watchLag watches how far each node's virtual clock falls behind the
// paced schedule until the returned stop runs, and logs it if the test
// fails. A paced bridge publishes its clock each time it catches up with the
// wall clock, so the published clock minus speedup × elapsed wall time is
// the virtual time the bridge has been busy catching up: the host's lag.
// Every 10 ms it samples every node; the log gives the worst sample of each
// wall second.
func watchLag(t *testing.T, s *Server, speedup float64) (stop func()) {
	t.Helper()
	virt0 := make([]float64, len(s.all()))
	for i, n := range s.all() {
		if err := n.bridge.Do(func() {}); err != nil { // publish a caught-up clock
			t.Fatal(err)
		}
		virt0[i] = n.bridge.Now()
	}
	wall0 := time.Now()
	var worst []float64 // per wall second, virtual ms (negative: behind)
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			wall := time.Since(wall0)
			paced := speedup * float64(wall) / float64(time.Millisecond)
			sec := int(wall / time.Second)
			for len(worst) <= sec {
				worst = append(worst, math.Inf(1))
			}
			for i, n := range s.all() {
				worst[sec] = min(worst[sec], n.bridge.Now()-virt0[i]-paced)
			}
		}
	}()
	var once sync.Once
	stop = func() { once.Do(func() { close(quit); <-done }) }
	t.Cleanup(func() {
		stop()
		if t.Failed() {
			var b strings.Builder
			for sec, lag := range worst {
				fmt.Fprintf(&b, "\n  second %d: worst lag %+.1f virtual ms", sec, lag)
			}
			t.Logf("host lag at speedup %v (published virtual clock minus paced wall time):%s", speedup, b.String())
		}
	})
	return stop
}

// TestEndToEndFast replays a seeded Poisson trace through the live gateway at
// high speedup and checks what depends on the host keeping up: at least half
// of the arrivals complete, and few admitted queries violate their deadline
// under the oracle predictor. At this speedup the simulator lags the
// compressed wall-clock schedule, so arrivals bunch into micro-bursts; an
// occasional group member with slack headroom can then land past its
// deadline (the fig15 near-zero shape), hence the small tolerance.
func TestEndToEndFast(t *testing.T) {
	models := []dnn.ModelID{dnn.ResNet152, dnn.InceptionV3}
	const speedup = 200
	arrivals := trace.NewGenerator(models, 7).Poisson(40, 4000)

	srv, c := startServer(t, Config{Models: models, Speedup: speedup})
	stop := watchLag(t, srv, speedup)
	res, err := RunLoad(context.Background(), LoadConfig{
		Client:   c,
		Models:   models,
		Arrivals: arrivals,
		Speedup:  speedup,
	})
	stop()
	if err != nil {
		t.Fatal(err)
	}
	tot := res.Total
	if tot.Errors > 0 || tot.Unavailable > 0 {
		t.Fatalf("transport trouble: %+v", tot)
	}
	if tot.Completed < len(arrivals)/2 {
		t.Fatalf("only %d/%d completed at a sub-saturation rate (%d rejected on deadline)",
			tot.Completed, len(arrivals), tot.RejectedDeadline)
	}
	if limit := 1 + tot.Completed/50; tot.Violated > limit {
		t.Errorf("%d/%d admitted queries violated their deadline with the oracle predictor (limit %d)",
			tot.Violated, tot.Completed, limit)
	}
}

// TestEndToEndRealtimeMatchesOffline is the full acceptance run: the gateway
// paced at speedup=1 serves the same seeded workload the offline simulator
// predicts, and the delivered p99 must land within 15% of the offline value —
// the paper's predictability claim, measured over a real socket. Skipped in
// -short mode (it runs ~4s of wall-clock traffic).
func TestEndToEndRealtimeMatchesOffline(t *testing.T) {
	if testing.Short() {
		t.Skip("realtime pacing run skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation makes simulation slower than real time, breaking speedup=1 pacing")
	}
	models := []dnn.ModelID{dnn.ResNet152, dnn.InceptionV3}
	// 30 QPS is well below the pair's measured Abacus capacity (~82 r/s in
	// the fig17 sweep) and below the admission controller's sequential bound
	// (~77 QPS), so the comparison runs in the stable regime. The relaxed
	// QoS factor keeps the conservative admission bound from clipping
	// Poisson bursts: live and offline then serve the identical query set.
	arrivals := trace.NewGenerator(models, 11).Poisson(30, 4000)

	srv, c := startServer(t, Config{Models: models, Speedup: 1, QoSFactor: 6})
	stop := watchLag(t, srv, 1)
	res, err := RunLoad(context.Background(), LoadConfig{
		Client:   c,
		Models:   models,
		Arrivals: arrivals,
		Speedup:  1,
	})
	stop()
	if err != nil {
		t.Fatal(err)
	}
	tot := res.Total
	if tot.Errors > 0 {
		t.Fatalf("transport errors: %+v", tot)
	}
	if tot.Violated != 0 {
		t.Errorf("%d live deadline violations with the oracle predictor", tot.Violated)
	}
	if tot.Completed < len(arrivals)*9/10 {
		t.Fatalf("only %d/%d completed live at a sub-saturation rate", tot.Completed, len(arrivals))
	}

	// Replay at the gateway's own deadlines, discovered over the wire the
	// way the loadgen binary does it.
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	qos := make([]float64, len(st.Services))
	for i, s := range st.Services {
		qos[i] = s.QoSMS
	}
	offline := OfflineBaseline(models, qos, arrivals, nil)
	offP99 := offline.TailLatency(-1, 99)
	if offP99 <= 0 {
		t.Fatalf("offline baseline produced p99 %v", offP99)
	}
	rel := math.Abs(tot.P99MS-offP99) / offP99
	t.Logf("live p99 %.2fms vs offline p99 %.2fms (Δ %.1f%%), completed %d/%d",
		tot.P99MS, offP99, rel*100, tot.Completed, len(arrivals))
	if rel > 0.15 {
		t.Errorf("live p99 %.2fms deviates %.1f%% from offline %.2fms (limit 15%%)",
			tot.P99MS, rel*100, offP99)
	}
}
