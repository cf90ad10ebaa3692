package main

import (
	"flag"
	"fmt"
	"io"

	"abacus"
	"abacus/internal/trace"
	"abacus/internal/workload"
)

// serveCmd runs a single-GPU serving simulation: co-located DNN services
// under one of the schedulers, with Poisson load or a replayed trace.
//
//	abacus serve -models Res152,IncepV3 -policy Abacus -qps 50 -seconds 20
//	abacus serve -models Res101,Res152,VGG19,Bert -policy FCFS -qps 100
func serveCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	modelsList := modelsFlag(fs, "Res152,IncepV3")
	policyName := fs.String("policy", "Abacus", "scheduler: FCFS, SJF, EDF, or Abacus")
	qps := fs.Float64("qps", 50, "aggregate offered load, queries per second")
	seconds := fs.Float64("seconds", 20, "simulated duration")
	seed := fs.Int64("seed", 1, "workload seed")
	trained := fs.Bool("trained-predictor", false, "train the MLP predictor instead of using the exact oracle")
	predictorFile := fs.String("predictor", "", "load a trained predictor (see train -model-out)")
	samples := fs.Int("samples", 500, "profiling samples per combination when training")
	csvOut := fs.String("csv", "", "write per-query records to this CSV file")
	traceIn := fs.String("trace", "", "replay a tracev2 arrival trace (see workload -o) instead of generating Poisson load")
	traceOut := fs.String("trace-out", "", "write the arrival trace to this tracev2 file")
	return func(stdout, stderr io.Writer) error {
		models, err := parseModels(*modelsList)
		if err != nil {
			return err
		}
		policy, err := parsePolicy(*policyName)
		if err != nil {
			return err
		}

		cfg := abacus.SystemConfig{Models: models, Policy: policy, Seed: *seed}
		if *predictorFile != "" {
			if cfg.Predictor, err = loadPredictor(*predictorFile); err != nil {
				return err
			}
		} else if *trained && policy == abacus.PolicyAbacus {
			fmt.Fprintf(stderr, "training predictor (%d samples per combination)...\n", *samples)
			p, err := abacus.TrainPredictor(models, abacus.TrainConfig{
				SamplesPerCombo: *samples,
				MaxCoLocated:    len(models),
				Seed:            *seed,
			})
			if err != nil {
				return err
			}
			cfg.Predictor = p
		}

		sys, err := abacus.NewSystem(cfg)
		if err != nil {
			return err
		}
		for i, q := range sys.QoSTargets() {
			fmt.Fprintf(stdout, "service %-8v QoS target %.1f ms\n", models[i], q)
		}
		var arrivals []trace.Arrival
		meta := workload.Meta{Name: "serve-poisson", Seed: *seed, DurationMS: *seconds * 1000, Services: len(models)}
		if *traceIn != "" {
			if meta, arrivals, err = replayTrace(stdout, *traceIn, models); err != nil {
				return err
			}
		} else {
			arrivals = trace.NewGenerator(models, *seed).Poisson(*qps, meta.DurationMS)
		}
		if *traceOut != "" {
			if err := writeTrace(*traceOut, meta, arrivals); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %d arrivals to %s\n", len(arrivals), *traceOut)
		}
		report := sys.ServeArrivals(arrivals)
		fmt.Fprintln(stdout, report)
		if *csvOut != "" {
			if err := writeFile(*csvOut, report.WriteCSV); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %d query records to %s\n", report.Queries(), *csvOut)
		}
		fmt.Fprintf(stdout, "p99 latency (all services): %.2f ms, SM utilization %.1f%%\n",
			report.TailLatency(-1, 99), 100*report.Utilization())
		return nil
	}
}
