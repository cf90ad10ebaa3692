// Command abacus-loadgen drives a running abacus-gateway over HTTP: an
// open-loop mode replaying a seeded Poisson schedule, a workload spec, or a
// trace file against the wall clock, and a closed-loop mode with a fixed
// number of in-flight requesters (optionally with per-worker think times).
// It discovers the deployment from /statz, and in open-loop mode replays the
// identical schedule through the offline simulator to report
// predicted-vs-delivered latency for the same seed.
//
// Usage:
//
//	abacus-loadgen -target http://127.0.0.1:8080 -qps 30 -seconds 10 -seed 1
//	abacus-loadgen -spec examples/workloads/flash-crowd.json
//	abacus-loadgen -closed -concurrency 8 -requests 500 -think-ms 200
//	abacus-loadgen -trace arrivals.tv2 -no-compare     # a tracev2 file
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"time"

	"abacus/internal/cli"
	"abacus/internal/dnn"
	"abacus/internal/server"
	"abacus/internal/trace"
	"abacus/internal/workload"
)

var fail = cli.Failer("abacus-loadgen")

func main() {
	target := flag.String("target", "http://127.0.0.1:8080", "gateway base URL")
	qps := flag.Float64("qps", 30, "aggregate offered load, queries per second")
	seconds := flag.Float64("seconds", 10, "schedule duration in virtual seconds")
	seed := flag.Int64("seed", 1, "workload seed")
	speedup := flag.Float64("speedup", 0, "schedule pacing factor (0: match the gateway's)")
	deadlineMS := flag.Float64("deadline-ms", 0, "per-request SLO override in virtual ms (0: service QoS)")
	traceIn := flag.String("trace", "", "replay a tracev2 arrival trace instead of generating Poisson load")
	specFile := flag.String("spec", "", "compile a JSON workload spec into the arrival schedule instead of Poisson load")
	closed := flag.Bool("closed", false, "closed-loop mode: keep -concurrency requests in flight")
	concurrency := flag.Int("concurrency", 4, "closed-loop in-flight requesters")
	requests := flag.Int("requests", 0, "closed-loop total requests (0: schedule length)")
	thinkMS := flag.Float64("think-ms", 0, "closed-loop mean think time between a worker's requests, virtual ms (0: none)")
	thinkDist := flag.String("think-dist", "exp", "closed-loop think-time distribution: exp, lognormal, constant, or pareto")
	thinkSigma := flag.Float64("think-sigma", 0, "lognormal think-time sigma")
	thinkAlpha := flag.Float64("think-alpha", 0, "pareto think-time tail exponent")
	noCompare := flag.Bool("no-compare", false, "skip the offline simulator comparison")
	drop := flag.Float64("drop", 0, "probability each inference request or its response is lost in transit (exercises the retry path)")
	dropSeed := flag.Int64("drop-seed", 1, "seed for the lossy-transport drop coins")
	retries := flag.Int("retries", 0, "max attempts per request through the retry layer (0: 3 when -drop is set, else none)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(cli.Version())
		return
	}

	ctx := context.Background()
	var lossy *server.LossyTransport
	var hc *http.Client
	if *drop > 0 {
		if *drop > 1 {
			fail(fmt.Errorf("-drop %g outside [0, 1]", *drop))
		}
		lossy = server.NewLossyTransport(nil, *drop, *dropSeed)
		hc = &http.Client{Transport: lossy}
	}
	client := server.NewClient(*target, hc)
	if err := client.WaitReady(ctx, 5*time.Second); err != nil {
		fail(err)
	}
	st, err := client.Stats(ctx)
	if err != nil {
		fail(err)
	}
	models := make([]dnn.ModelID, len(st.Services))
	qos := make([]float64, len(st.Services))
	for i, svc := range st.Services {
		m, err := dnn.ModelIDByName(svc.Model)
		if err != nil {
			fail(fmt.Errorf("gateway serves unknown model %q: %w", svc.Model, err))
		}
		models[i] = m
		qos[i] = svc.QoSMS
	}
	pace := *speedup
	if pace <= 0 {
		pace = st.Speedup
	}
	fmt.Printf("gateway serves %v (speedup %g)\n", models, st.Speedup)

	var arrivals []trace.Arrival
	switch {
	case *traceIn != "" && *specFile != "":
		fail(fmt.Errorf("-trace and -spec are mutually exclusive"))
	case *traceIn != "":
		f, err := os.Open(*traceIn)
		if err != nil {
			fail(err)
		}
		meta, got, err := workload.ReadTrace(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		if meta.Services > len(models) {
			fail(fmt.Errorf("%s spans %d services, gateway serves %d", *traceIn, meta.Services, len(models)))
		}
		arrivals = got
		fmt.Printf("replaying %d arrivals from %s (tracev2 %q, seed %d)\n",
			len(arrivals), *traceIn, meta.Name, meta.Seed)
	case *specFile != "":
		data, err := os.ReadFile(*specFile)
		if err != nil {
			fail(err)
		}
		spec, err := workload.Parse(data)
		if err != nil {
			fail(err)
		}
		c, err := spec.Bind(models, *seed)
		if err != nil {
			fail(err)
		}
		arrivals = c.Materialize()
		fmt.Printf("compiled %s: %d arrivals over %.1fs (seed %d)\n",
			*specFile, len(arrivals), c.Spec.DurationMS/1000, c.Seed)
	default:
		arrivals = trace.NewGenerator(models, *seed).Poisson(*qps, *seconds*1000)
		fmt.Printf("generated %d arrivals (%.0f QPS over %.0fs, seed %d)\n",
			len(arrivals), *qps, *seconds, *seed)
	}

	maxAttempts := *retries
	if maxAttempts <= 0 && *drop > 0 {
		maxAttempts = 3
	}
	var retry *server.RetryPolicy
	if maxAttempts > 1 {
		retry = &server.RetryPolicy{MaxAttempts: maxAttempts, JitterSeed: *dropSeed}
	}
	var think *workload.ThinkSpec
	if *thinkMS > 0 {
		think = &workload.ThinkSpec{Kind: *thinkDist, MeanMS: *thinkMS, Sigma: *thinkSigma, Alpha: *thinkAlpha}
		if err := think.Validate(); err != nil {
			fail(err)
		}
		if !*closed {
			fail(fmt.Errorf("-think-ms only applies to -closed mode"))
		}
	}
	res, err := server.RunLoad(ctx, server.LoadConfig{
		Client:      client,
		Models:      models,
		Arrivals:    arrivals,
		Speedup:     pace,
		DeadlineMS:  *deadlineMS,
		Closed:      *closed,
		Concurrency: *concurrency,
		Requests:    *requests,
		Think:       think,
		Seed:        *seed,
		Retry:       retry,
	})
	if err != nil {
		fail(err)
	}

	for i := range res.PerService {
		printStats(models[i].String(), &res.PerService[i])
	}
	printStats("TOTAL", &res.Total)
	fmt.Printf("[%d requests in %.1fs wall]\n", res.Total.Sent, res.WallSeconds)
	if lossy != nil {
		fmt.Printf("lossy transport: dropped %d before send, %d after send; %d retries, %d duplicates suppressed\n",
			lossy.DroppedBeforeSend(), lossy.DroppedAfterSend(), res.Total.Retries, res.Total.Duplicates)
	}

	if !*noCompare && !*closed && res.Total.Completed > 0 {
		offline := server.OfflineBaseline(models, qos, arrivals, nil)
		offP99 := offline.TailLatency(-1, 99)
		liveP99 := res.Total.P99MS
		delta := math.NaN()
		if offP99 > 0 {
			delta = 100 * (liveP99 - offP99) / offP99
		}
		fmt.Printf("offline simulator (same seed): p99 %.2f ms vs live %.2f ms (Δ %+.1f%%), goodput %.1f q/s\n",
			offP99, liveP99, delta, offline.Goodput())
	}
}

func printStats(name string, s *server.LoadStats) {
	fmt.Printf("%-8s sent=%d accepted=%d completed=%d violated=%d dropped=%d rej(deadline/queue)=%d/%d 503=%d err=%d",
		name, s.Sent, s.Accepted, s.Completed, s.Violated, s.Dropped,
		s.RejectedDeadline, s.RejectedQueue, s.Unavailable, s.Errors)
	if s.Completed > 0 {
		fmt.Printf(" p50=%.2fms p99=%.2fms goodput=%.1f q/s", s.P50MS, s.P99MS, s.GoodputQPS)
	}
	fmt.Println()
}
