package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"abacus/internal/calib"
	"abacus/internal/server"
	"abacus/internal/trace"
	"abacus/internal/workload"
)

// gatewayCmd serves co-located DNN services over HTTP: the Abacus runtime
// paced against the wall clock, with predictor-driven admission control,
// /statz JSON counters, and Prometheus /metrics. SIGINT/SIGTERM drain
// gracefully: in-flight queries are answered before the listener closes.
//
//	abacus gateway -addr 127.0.0.1:8080 -models Res152,IncepV3
//	abacus gateway -models Res101,Res152,VGG19,Bert -speedup 10 -queue-cap 32
//	abacus gateway -models Res152,IncepV3 -nodes 4       # replicated cluster
//	abacus gateway -models Res152,IncepV3 -autoscale -max-nodes 4   # elastic fleet
//	abacus gateway -models Res50,Res152,IncepV3 -placement 'Res50,Res152;IncepV3'
//	abacus gateway -spec examples/workloads/flash-crowd.json   # preflight a workload
//	abacus gateway -trace-out session.trace              # capture arrivals to tracev2
func gatewayCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	modelsList := modelsFlag(fs, "Res152,IncepV3")
	nodes := fs.Int("nodes", 1, "per-GPU serving nodes behind the gateway; models are sharded by the overlap-gain grouping unless -placement pins them")
	placementList := fs.String("placement", "", "pin the per-node placement: semicolon-separated nodes of comma-separated models (e.g. 'Res152,IncepV3;Res50'); overrides -nodes")
	speedup := fs.Float64("speedup", 1, "virtual ms per wall ms (1 = real time)")
	queueCap := fs.Int("queue-cap", 64, "admitted-but-unfinished queries per service before shedding")
	qosFactor := fs.Float64("qos-factor", 2, "QoS target as a multiple of max-input solo latency")
	predictorFile := fs.String("predictor", "", "trained predictor JSON (see train -model-out; default: exact oracle)")
	calibrate := fs.Bool("calibrate", false, "enable online latency-model calibration (per-service feedback-corrected predictions on /statz)")
	predictCache := predictCacheFlag(fs)
	calibSeed := fs.Int64("calib-seed", 1, "seed for the calibration feedback reservoirs")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful drain bound on shutdown")
	elastic := autoscaleFlags(fs)
	specFile := fs.String("spec", "", "preflight a JSON workload spec against this deployment and print its offered-load digest before serving")
	traceOut := fs.String("trace-out", "", "capture every admitted-path arrival and write it as a tracev2 file on drain")
	return func(stdout, stderr io.Writer) error {
		models, err := parseModels(*modelsList)
		if err != nil {
			return err
		}
		placement, err := parsePlacement(*placementList)
		if err != nil {
			return err
		}
		cfg := server.Config{
			Models:       models,
			Nodes:        *nodes,
			Placement:    placement,
			QoSFactor:    *qosFactor,
			Speedup:      *speedup,
			QueueCap:     *queueCap,
			DrainTimeout: *drainTimeout,
			PredictCache: *predictCache,
			// Nodes stays as flagged: the gateway itself rejects anything but
			// the default (1) or exactly -min-nodes.
			Autoscale: elastic(),
		}
		if *predictCache <= 0 {
			cfg.PredictCache = -1 // flag 0 = off; Config 0 = default
		}
		if *predictorFile != "" {
			if cfg.Model, err = loadPredictor(*predictorFile); err != nil {
				return err
			}
		}
		if *calibrate {
			cfg.Calib = &calib.Config{Seed: *calibSeed}
		}
		specName := "gateway-capture" // the capture's trace name unless -spec names one
		if *specFile != "" {
			// Preflight: the spec must bind against exactly this deployment, so
			// a loadgen pointed at us with the same spec is guaranteed to
			// validate.
			spec, err := loadSpec(*specFile)
			if err != nil {
				return err
			}
			c, err := spec.Bind(models, 1)
			if err != nil {
				return fmt.Errorf("%s does not bind against this deployment: %w", *specFile, err)
			}
			specName = c.Spec.Name
			printSummary(stdout, fmt.Sprintf("workload %q preflight ok:", c.Spec.Name), c)
		}
		var capture *trace.Capture
		if *traceOut != "" {
			capture = trace.NewCapture()
			cfg.Capture = capture
		}

		gw, err := server.New(cfg)
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		note := ""
		switch a := cfg.Autoscale; {
		case a != nil:
			note = fmt.Sprintf(", autoscaling %d..%d nodes", a.MinNodes, a.MaxNodes)
		case gw.NumNodes() > 1:
			note = fmt.Sprintf(", %d nodes", gw.NumNodes())
		}
		if *calibrate {
			note += ", calibrating"
		}
		fmt.Fprintf(stdout, "abacus gateway serving %v on http://%s (speedup %g, queue cap %d%s)\n",
			models, ln.Addr(), *speedup, *queueCap, note)

		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sigc)
		served := make(chan error, 1)
		go func() { served <- gw.ServeListener(ln) }()

		select {
		case sig := <-sigc:
			fmt.Fprintf(stderr, "abacus gateway: %v — draining\n", sig)
			ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout+5*time.Second)
			defer cancel()
			if err := gw.Shutdown(ctx); err != nil {
				return err
			}
			<-served
			fmt.Fprintln(stderr, "abacus gateway: drained")
		case err := <-served:
			if err != nil {
				return err
			}
		}

		if capture != nil {
			// Replaying the capture through loadgen -trace re-offers the exact
			// load this gateway saw, on the same virtual timestamps.
			arrivals := capture.Snapshot()
			if err := writeTrace(*traceOut, workload.CaptureMeta(specName, len(models), arrivals), arrivals); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "abacus gateway: wrote %d captured arrivals to %s\n", len(arrivals), *traceOut)
		}
		return nil
	}
}
