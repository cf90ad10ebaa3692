// Command abacus-gateway serves co-located DNN services over HTTP: the
// Abacus runtime paced against the wall clock, with predictor-driven
// admission control, /statz JSON counters, and Prometheus /metrics.
// SIGINT/SIGTERM drain gracefully: in-flight queries are answered before
// the listener closes.
//
// Usage:
//
//	abacus-gateway -addr 127.0.0.1:8080 -models Res152,IncepV3
//	abacus-gateway -models Res101,Res152,VGG19,Bert -speedup 10 -queue-cap 32
//	abacus-gateway -models Res152,IncepV3 -nodes 4       # replicated cluster
//	abacus-gateway -models Res152,IncepV3 -autoscale -max-nodes 4   # elastic fleet
//	abacus-gateway -models Res50,Res152,IncepV3 -placement 'Res50,Res152;IncepV3'
//	abacus-gateway -spec examples/workloads/flash-crowd.json   # preflight a workload
//	abacus-gateway -trace session.trace                  # capture arrivals to tracev2
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"abacus"
	"abacus/internal/calib"
	"abacus/internal/cli"
	"abacus/internal/scaler"
	"abacus/internal/server"
	"abacus/internal/trace"
	"abacus/internal/workload"
)

var fail = cli.Failer("abacus-gateway")

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	modelsFlag := flag.String("models", "Res152,IncepV3", "comma-separated co-located models")
	nodesFlag := flag.Int("nodes", 1, "per-GPU serving nodes behind the gateway; models are sharded by the overlap-gain grouping unless -placement pins them")
	placementFlag := flag.String("placement", "", "pin the per-node placement: semicolon-separated nodes of comma-separated models (e.g. 'Res152,IncepV3;Res50'); overrides -nodes")
	speedup := flag.Float64("speedup", 1, "virtual ms per wall ms (1 = real time)")
	queueCap := flag.Int("queue-cap", 64, "admitted-but-unfinished queries per service before shedding")
	qosFactor := flag.Float64("qos-factor", 2, "QoS target as a multiple of max-input solo latency")
	predictorFile := flag.String("predictor", "", "trained predictor JSON (see abacus-train -model-out; default: exact oracle)")
	calibrate := flag.Bool("calibrate", false, "enable online latency-model calibration (per-service feedback-corrected predictions on /statz)")
	predictCache := flag.Int("predict-cache", 4096, "group-signature prediction cache capacity (0 disables)")
	calibSeed := flag.Int64("calib-seed", 1, "seed for the calibration feedback reservoirs")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful drain bound on shutdown")
	autoscaleFlag := flag.Bool("autoscale", false, "elastic fleet: a control loop adds and drains replicated nodes between -min-nodes and -max-nodes as offered load moves (incompatible with -nodes > 1 and -placement)")
	minNodes := flag.Int("min-nodes", 1, "autoscale floor: nodes the fleet never shrinks below")
	maxNodes := flag.Int("max-nodes", 8, "autoscale ceiling: nodes the fleet never grows beyond")
	warmupMS := flag.Float64("warmup-ms", 1500, "autoscale warm-up window: a new node takes only the probe trickle for this long, virtual ms")
	capacityQPS := flag.Float64("capacity-qps", 30, "autoscale sizing: sustainable per-node load, virtual QPS")
	scaleIntervalMS := flag.Float64("scale-interval-ms", 1000, "autoscale control-loop observation interval, virtual ms")
	specFile := flag.String("spec", "", "preflight a JSON workload spec against this deployment and print its offered-load digest before serving")
	traceOut := flag.String("trace", "", "capture every admitted-path arrival and write it as a tracev2 file on drain")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(cli.Version())
		return
	}

	models, err := cli.ParseModels(*modelsFlag)
	if err != nil {
		fail(err)
	}
	placement, err := cli.ParsePlacement(*placementFlag)
	if err != nil {
		fail(err)
	}
	cfg := server.Config{
		Models:       models,
		Nodes:        *nodesFlag,
		Placement:    placement,
		QoSFactor:    *qosFactor,
		Speedup:      *speedup,
		QueueCap:     *queueCap,
		DrainTimeout: *drainTimeout,
		PredictCache: *predictCache,
	}
	if *predictCache <= 0 {
		cfg.PredictCache = -1 // flag 0 = off; Config 0 = default
	}
	if *autoscaleFlag {
		// Nodes stays as flagged: the gateway itself rejects anything but the
		// default (1) or exactly -min-nodes.
		cfg.Autoscale = &scaler.Config{
			MinNodes:    *minNodes,
			MaxNodes:    *maxNodes,
			CapacityQPS: *capacityQPS,
			WarmupMS:    *warmupMS,
			IntervalMS:  *scaleIntervalMS,
		}
	}
	if *predictorFile != "" {
		f, err := os.Open(*predictorFile)
		if err != nil {
			fail(err)
		}
		p, err := abacus.LoadPredictor(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		cfg.Model = p
	}
	if *calibrate {
		cfg.Calib = &calib.Config{Seed: *calibSeed}
	}
	specName := ""
	if *specFile != "" {
		// Preflight: the spec must bind against exactly this deployment, so a
		// loadgen pointed at us with the same spec is guaranteed to validate.
		data, err := os.ReadFile(*specFile)
		if err != nil {
			fail(err)
		}
		spec, err := workload.Parse(data)
		if err != nil {
			fail(err)
		}
		c, err := spec.Bind(models, 1)
		if err != nil {
			fail(fmt.Errorf("%s does not bind against this deployment: %w", *specFile, err))
		}
		specName = c.Spec.Name
		fmt.Printf("workload %q preflight ok:\n", c.Spec.Name)
		for _, s := range c.Summary() {
			fmt.Printf("  svc %d %s: mean %.4g qps, peak %.4g qps\n", s.Service, s.Model, s.MeanQPS, s.PeakQPS)
		}
	}
	var capture *trace.Capture
	if *traceOut != "" {
		capture = trace.NewCapture()
		cfg.Capture = capture
	}

	gw, err := server.New(cfg)
	if err != nil {
		fail(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	calNote := ""
	if *calibrate {
		calNote = ", calibrating"
	}
	nodeNote := ""
	if gw.NumNodes() > 1 {
		nodeNote = fmt.Sprintf(", %d nodes", gw.NumNodes())
	}
	if *autoscaleFlag {
		nodeNote = fmt.Sprintf(", autoscaling %d..%d nodes", *minNodes, *maxNodes)
	}
	fmt.Printf("abacus-gateway serving %v on http://%s (speedup %g, queue cap %d%s%s)\n",
		models, ln.Addr(), *speedup, *queueCap, nodeNote, calNote)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	served := make(chan error, 1)
	go func() { served <- gw.ServeListener(ln) }()

	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "abacus-gateway: %v — draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout+5*time.Second)
		defer cancel()
		if err := gw.Shutdown(ctx); err != nil {
			fail(err)
		}
		<-served
		fmt.Fprintln(os.Stderr, "abacus-gateway: drained")
	case err := <-served:
		if err != nil {
			fail(err)
		}
	}

	if capture != nil {
		if err := writeCapture(*traceOut, specName, len(models), capture); err != nil {
			fail(err)
		}
	}
}

// writeCapture persists the session's recorded arrivals as a tracev2 file;
// replaying it through abacus-loadgen -trace re-offers the exact load this
// gateway saw, on the same virtual timestamps.
func writeCapture(path, name string, services int, capture *trace.Capture) error {
	if name == "" {
		name = "gateway-capture"
	}
	arrivals := capture.Snapshot()
	meta := workload.CaptureMeta(name, services, arrivals)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := workload.WriteTrace(f, meta, arrivals); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "abacus-gateway: wrote %d captured arrivals to %s\n", len(arrivals), path)
	return nil
}
