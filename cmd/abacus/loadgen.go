package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"abacus/internal/dnn"
	"abacus/internal/server"
	"abacus/internal/trace"
	"abacus/internal/workload"
)

// loadgenCmd drives a running gateway over HTTP: an open-loop mode
// replaying a seeded Poisson schedule, a workload spec, or a trace file
// against the wall clock, and a closed-loop mode with a fixed number of
// in-flight requesters (optionally with per-worker think times). It
// discovers the deployment from /statz, and in open-loop mode replays the
// identical schedule through the offline simulator to report
// predicted-vs-delivered latency for the same seed.
//
//	abacus loadgen -target http://127.0.0.1:8080 -qps 30 -seconds 10 -seed 1
//	abacus loadgen -spec examples/workloads/flash-crowd.json
//	abacus loadgen -closed -concurrency 8 -requests 500 -think-ms 200
//	abacus loadgen -trace arrivals.tv2 -no-compare     # a tracev2 file
func loadgenCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	target := fs.String("target", "http://127.0.0.1:8080", "gateway base URL")
	qps := fs.Float64("qps", 30, "aggregate offered load, queries per second")
	seconds := fs.Float64("seconds", 10, "schedule duration in virtual seconds")
	seed := fs.Int64("seed", 1, "workload seed")
	speedup := fs.Float64("speedup", 0, "schedule pacing factor (0: match the gateway's)")
	deadlineMS := fs.Float64("deadline-ms", 0, "per-request SLO override in virtual ms (0: service QoS)")
	traceIn := fs.String("trace", "", "replay a tracev2 arrival trace instead of generating Poisson load")
	specFile := fs.String("spec", "", "compile a JSON workload spec into the arrival schedule instead of Poisson load")
	closed := fs.Bool("closed", false, "closed-loop mode: keep -concurrency requests in flight")
	concurrency := fs.Int("concurrency", 4, "closed-loop in-flight requesters")
	requests := fs.Int("requests", 0, "closed-loop total requests (0: schedule length)")
	thinkMS := fs.Float64("think-ms", 0, "closed-loop mean think time between a worker's requests, virtual ms (0: none)")
	thinkDist := fs.String("think-dist", "exp", "closed-loop think-time distribution: exp, lognormal, constant, or pareto")
	thinkSigma := fs.Float64("think-sigma", 0, "lognormal think-time sigma")
	thinkAlpha := fs.Float64("think-alpha", 0, "pareto think-time tail exponent")
	noCompare := fs.Bool("no-compare", false, "skip the offline simulator comparison")
	drop := fs.Float64("drop", 0, "probability each inference request or its response is lost in transit (exercises the retry path)")
	dropSeed := fs.Int64("drop-seed", 1, "seed for the lossy-transport drop coins")
	retries := fs.Int("retries", 0, "max attempts per request through the retry layer (0: 3 when -drop is set, else none)")
	return func(stdout, _ io.Writer) error {
		// Every flag is checked before the first request, so a bad
		// combination fails at once instead of after the readiness wait.
		if *drop < 0 || *drop > 1 {
			return fmt.Errorf("-drop %g outside [0, 1]", *drop)
		}
		if *traceIn != "" && *specFile != "" {
			return fmt.Errorf("-trace and -spec are mutually exclusive")
		}
		var think *workload.ThinkSpec
		if *thinkMS > 0 {
			if !*closed {
				return fmt.Errorf("-think-ms only applies to -closed mode")
			}
			think = &workload.ThinkSpec{Kind: *thinkDist, MeanMS: *thinkMS, Sigma: *thinkSigma, Alpha: *thinkAlpha}
			if err := think.Validate(); err != nil {
				return err
			}
		}

		ctx := context.Background()
		var lossy *server.LossyTransport
		var hc *http.Client
		if *drop > 0 {
			lossy = server.NewLossyTransport(nil, *drop, *dropSeed)
			hc = &http.Client{Transport: lossy}
		}
		client := server.NewClient(*target, hc)
		if err := client.WaitReady(ctx, 5*time.Second); err != nil {
			return err
		}
		st, err := client.Stats(ctx)
		if err != nil {
			return err
		}
		models := make([]dnn.ModelID, len(st.Services))
		qos := make([]float64, len(st.Services))
		for i, svc := range st.Services {
			if models[i], err = dnn.ModelIDByName(svc.Model); err != nil {
				return fmt.Errorf("gateway serves unknown model %q: %w", svc.Model, err)
			}
			qos[i] = svc.QoSMS
		}
		pace := *speedup
		if pace <= 0 {
			pace = st.Speedup
		}
		fmt.Fprintf(stdout, "gateway serves %v (speedup %g)\n", models, st.Speedup)

		var arrivals []trace.Arrival
		switch {
		case *traceIn != "":
			if _, arrivals, err = replayTrace(stdout, *traceIn, models); err != nil {
				return err
			}
		case *specFile != "":
			spec, err := loadSpec(*specFile)
			if err != nil {
				return err
			}
			c, err := spec.Bind(models, *seed)
			if err != nil {
				return err
			}
			arrivals = c.Materialize()
			fmt.Fprintf(stdout, "compiled %s: %d arrivals over %.1fs (seed %d)\n",
				*specFile, len(arrivals), c.Spec.DurationMS/1000, c.Seed)
		default:
			arrivals = trace.NewGenerator(models, *seed).Poisson(*qps, *seconds*1000)
			fmt.Fprintf(stdout, "generated %d arrivals (%.0f QPS over %.0fs, seed %d)\n",
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
			return err
		}

		for i := range res.PerService {
			printStats(stdout, models[i].String(), &res.PerService[i])
		}
		printStats(stdout, "TOTAL", &res.Total)
		fmt.Fprintf(stdout, "[%d requests in %.1fs wall]\n", res.Total.Sent, res.WallSeconds)
		if lossy != nil {
			fmt.Fprintf(stdout, "lossy transport: dropped %d before send, %d after send; %d retries, %d duplicates suppressed\n",
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
			fmt.Fprintf(stdout, "offline simulator (same seed): p99 %.2f ms vs live %.2f ms (Δ %+.1f%%), goodput %.1f q/s\n",
				offP99, liveP99, delta, offline.Goodput())
		}
		return nil
	}
}

// printStats prints one outcome row. The outcome counters — accepted (which
// includes completed and dropped), the three 429 classes, 503, transport
// errors and undecodable responses — are disjoint and sum to sent; violated
// is a subset of completed.
func printStats(w io.Writer, name string, s *server.LoadStats) {
	fmt.Fprintf(w, "%-8s sent=%d accepted=%d completed=%d violated=%d dropped=%d rej(deadline/queue/degraded)=%d/%d/%d 503=%d err=%d decode-err=%d",
		name, s.Sent, s.Accepted, s.Completed, s.Violated, s.Dropped,
		s.RejectedDeadline, s.RejectedQueue, s.RejectedDegraded, s.Unavailable, s.Errors, s.DecodeErrors)
	if s.Completed > 0 {
		fmt.Fprintf(w, " p50=%.2fms p99=%.2fms goodput=%.1f q/s", s.P50MS, s.P99MS, s.GoodputQPS)
	}
	fmt.Fprintln(w)
}
