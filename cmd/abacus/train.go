package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"abacus/internal/predictor"
	"abacus/internal/runner"
)

// trainCmd performs the offline phase of Abacus: it profiles operator
// groups on the simulated device (instance-based sampling, §5.4),
// optionally persists the samples, trains the three candidate duration
// models (§5.5), and reports their held-out prediction errors.
//
//	abacus train -models Res50,Res152 -samples 2000 -out samples.json
//	abacus train -in samples.json
func trainCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	modelsList := modelsFlag(fs, "Res50,Res101,Res152,IncepV3,VGG16,VGG19,Bert")
	samplesPer := fs.Int("samples", 500, "samples per model combination")
	maxK := fs.Int("maxk", 2, "largest co-location degree to sample (1..4)")
	runs := fs.Int("runs", 3, "measurements per sample (paper: 100)")
	seed := fs.Int64("seed", 1, "sampling/training seed")
	out := fs.String("out", "", "write collected samples to this JSON file")
	modelOut := fs.String("model-out", "", "write the trained MLP predictor to this JSON file")
	in := fs.String("in", "", "load samples from this JSON file instead of collecting")
	parallelFlag(fs)
	return func(stdout, _ io.Writer) error {
		start := time.Now()
		var samples []predictor.Sample
		if *in != "" {
			f, err := os.Open(*in)
			if err != nil {
				return err
			}
			samples, err = predictor.LoadSamples(f)
			f.Close()
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "loaded %d samples from %s\n", len(samples), *in)
		} else {
			models, err := parseModels(*modelsList)
			if err != nil {
				return err
			}
			cfg := predictor.DefaultSamplerConfig()
			cfg.Seed = *seed
			cfg.Runs = *runs
			kmax := min(*maxK, len(models))
			samples = predictor.CollectDegrees(models, kmax, *samplesPer, cfg)
			perK := make([]int, kmax)
			for _, s := range samples {
				perK[len(s.Group)-1]++
			}
			for k, n := range perK {
				fmt.Fprintf(stdout, "collected %d samples at co-location degree %d\n", n, k+1)
			}
		}

		if *out != "" {
			if err := writeFile(*out, func(w io.Writer) error { return predictor.SaveSamples(w, samples) }); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %d samples to %s\n", len(samples), *out)
		}

		codec := predictor.NewCodec()
		techniques := []predictor.Technique{
			predictor.TechLinearRegression, predictor.TechSVR, predictor.TechMLP,
		}
		// The three candidate techniques train concurrently on the shared
		// read-only sample set; MAPEs print in technique order.
		mapes, err := runner.MapErr(len(techniques), 0, func(i int) (float64, error) {
			cfg := predictor.TrainConfig{Technique: techniques[i], Seed: *seed}
			if techniques[i] == predictor.TechMLP {
				cfg.LogTarget = true
			}
			_, mape, err := predictor.TrainEval(samples, codec, cfg)
			return mape, err
		})
		if err != nil {
			return err
		}
		for i, tech := range techniques {
			fmt.Fprintf(stdout, "%-18s held-out MAPE %.2f%%\n", tech, 100*mapes[i])
		}

		if *modelOut != "" {
			cfg := predictor.DefaultTrainConfig()
			cfg.Seed = *seed
			p, err := predictor.Train(samples, codec, cfg)
			if err != nil {
				return err
			}
			if err := writeFile(*modelOut, p.Save); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote trained predictor to %s\n", *modelOut)
		}
		fmt.Fprintf(stdout, "[done in %.1fs with %d workers]\n", time.Since(start).Seconds(), runner.DefaultParallel())
		return nil
	}
}
