// Command abacus-serve runs a single-GPU serving simulation: co-located
// DNN services under one of the four schedulers, with Poisson load.
//
// Usage:
//
//	abacus-serve -models Res152,IncepV3 -policy Abacus -qps 50 -seconds 20
//	abacus-serve -models Res101,Res152,VGG19,Bert -policy FCFS -qps 100
package main

import (
	"flag"
	"fmt"
	"os"

	"abacus"
	"abacus/internal/cli"
	"abacus/internal/trace"
	"abacus/internal/workload"
)

var fail = cli.Failer("abacus-serve")

func main() {
	modelsFlag := flag.String("models", "Res152,IncepV3", "comma-separated model names (Res50,Res101,Res152,IncepV3,VGG16,VGG19,Bert)")
	policyFlag := flag.String("policy", "Abacus", "scheduler: FCFS, SJF, EDF, or Abacus")
	qps := flag.Float64("qps", 50, "aggregate offered load, queries per second")
	seconds := flag.Float64("seconds", 20, "simulated duration")
	seed := flag.Int64("seed", 1, "workload seed")
	trained := flag.Bool("trained-predictor", false, "train the MLP predictor instead of using the exact oracle")
	predictorFile := flag.String("predictor", "", "load a trained predictor (see abacus-train -model-out)")
	samples := flag.Int("samples", 500, "profiling samples per combination when training")
	csvOut := flag.String("csv", "", "write per-query records to this CSV file")
	traceIn := flag.String("trace", "", "replay a tracev2 arrival trace (see abacus-workload) instead of generating Poisson load")
	traceOut := flag.String("trace-out", "", "write the arrival trace to this tracev2 file")
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
	policy, err := cli.ParsePolicy(*policyFlag)
	if err != nil {
		fail(err)
	}

	cfg := abacus.SystemConfig{Models: models, Policy: policy, Seed: *seed}
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
		cfg.Predictor = p
	} else if *trained && policy == abacus.PolicyAbacus {
		fmt.Fprintf(os.Stderr, "training predictor (%d samples per combination)...\n", *samples)
		p, err := abacus.TrainPredictor(models, abacus.TrainConfig{
			SamplesPerCombo: *samples,
			MaxCoLocated:    len(models),
			Seed:            *seed,
		})
		if err != nil {
			fail(err)
		}
		cfg.Predictor = p
	}

	sys, err := abacus.NewSystem(cfg)
	if err != nil {
		fail(err)
	}
	for i, q := range sys.QoSTargets() {
		fmt.Printf("service %-8v QoS target %.1f ms\n", models[i], q)
	}
	var arrivals []trace.Arrival
	meta := workload.Meta{Name: "serve-poisson", Seed: *seed, DurationMS: *seconds * 1000, Services: len(models)}
	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err != nil {
			fail(err)
		}
		meta, arrivals, err = workload.ReadTrace(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		if meta.Services > len(models) {
			fail(fmt.Errorf("%s spans %d services, the deployment serves %d", *traceIn, meta.Services, len(models)))
		}
		fmt.Printf("replaying %d arrivals from %s (tracev2 %q, seed %d)\n",
			len(arrivals), *traceIn, meta.Name, meta.Seed)
	} else {
		arrivals = trace.NewGenerator(models, *seed).Poisson(*qps, meta.DurationMS)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail(err)
		}
		if err := workload.WriteTrace(f, meta, arrivals); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %d arrivals to %s\n", len(arrivals), *traceOut)
	}
	report := sys.ServeArrivals(arrivals)
	fmt.Println(report)
	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			fail(err)
		}
		if err := report.WriteCSV(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %d query records to %s\n", report.Queries(), *csvOut)
	}
	fmt.Printf("p99 latency (all services): %.2f ms, SM utilization %.1f%%\n",
		report.TailLatency(-1, 99), 100*report.Utilization())
}
