package experiments

import (
	"fmt"

	"abacus/internal/dnn"
	"abacus/internal/predictor"
	"abacus/internal/runner"
	"abacus/internal/stats"
)

func init() {
	register("fig10", Fig10)
	register("fig10-nwise", Fig10NWise)
}

// Fig10 reproduces Figure 10 (§5.5): prediction error of the three duration
// modeling techniques — linear regression, SVM, and the MLP — trained per
// co-location pair and as one unified model over all pairs, plus the MLP's
// k-fold cross-validation error. The reproduction targets: MLP in the
// single-digit percent range, LR/SVM several times worse, and the unified
// MLP as good as per-pair models.
func Fig10(opts Options) []Table {
	cfg := predictor.DefaultSamplerConfig()
	cfg.Seed = opts.Seed
	cfg.Runs = 3
	codec := predictor.NewCodec()

	pairs := evalPairs(opts)
	techniques := []predictor.Technique{
		predictor.TechLinearRegression, predictor.TechSVR, predictor.TechMLP,
	}

	t := Table{
		ID:     "fig10",
		Title:  "Duration-model prediction error (MAPE, 80/20 split)",
		Header: []string{"pair", "LinearRegression", "SVM", "MLP"},
	}

	epochs := 0 // model defaults
	if opts.Quick {
		epochs = 200
	}

	techniqueConfig := func(tech predictor.Technique) predictor.TrainConfig {
		tc := predictor.TrainConfig{Technique: tech, Epochs: epochs, Seed: opts.Seed}
		if tech == predictor.TechMLP {
			tc.LogTarget = true
		}
		return tc
	}

	// Stage 1: profile every pair concurrently. Each pair's collection
	// samples from a fresh sampler seeded from cfg, so per-pair sample
	// streams are the same at any parallelism, and the unified set
	// concatenates in pair order.
	perPair := runner.Map(len(pairs), 0, func(i int) []predictor.Sample {
		return predictor.Collect(pairs[i], 2, opts.SamplesPerPair, cfg)
	})
	var all []predictor.Sample
	for _, samples := range perPair {
		all = append(all, samples...)
	}

	// Stage 2: per technique, train/evaluate one model per pair
	// concurrently.
	errSums := make([]float64, len(techniques))
	mapes := make([][]float64, len(techniques)) // [technique][pair]
	for ti, tech := range techniques {
		_, ms, err := predictor.TrainEvalEach(perPair, codec, techniqueConfig(tech), 0)
		if err != nil {
			panic(err)
		}
		mapes[ti] = ms
		for _, m := range ms {
			errSums[ti] += m
		}
	}
	for i, pair := range pairs {
		row := []string{pairName(pair)}
		for ti := range techniques {
			row = append(row, pct(mapes[ti][i]))
		}
		t.AddRow(row...)
	}

	// Unified model over every pair's samples ("all" column of the paper);
	// the three techniques train concurrently on the shared read-only set.
	allMapes := runner.Map(len(techniques), 0, func(ti int) float64 {
		_, mape, err := predictor.TrainEval(all, codec, techniqueConfig(techniques[ti]))
		if err != nil {
			panic(err)
		}
		return mape
	})
	allRow := []string{"all (unified)"}
	var unifiedMLP float64
	for ti, tech := range techniques {
		if tech == predictor.TechMLP {
			unifiedMLP = allMapes[ti]
		}
		allRow = append(allRow, pct(allMapes[ti]))
	}
	t.AddRow(allRow...)

	// MLP cross validation (the paper's rightmost bars).
	cvCfg := predictor.TrainConfig{Technique: predictor.TechMLP, Epochs: epochs, LogTarget: true, Seed: opts.Seed}
	cvErrs, err := predictor.CrossValidate(all, codec, cvCfg, 5)
	if err != nil {
		panic(err)
	}

	n := float64(len(pairs))
	t.Notes = append(t.Notes,
		"per-pair averages: LR="+pct(errSums[0]/n)+" SVM="+pct(errSums[1]/n)+" MLP="+pct(errSums[2]/n)+
			" (paper: 23.5% / 21.5% / 5.5%)",
		"unified MLP over all pairs: "+pct(unifiedMLP)+" (paper: 5.7%)",
		"MLP 5-fold cross-validation: "+pct(stats.Mean(cvErrs))+" ± "+pct(stats.StdDev(cvErrs)))
	return []Table{t}
}

// Fig10NWise measures the unified MLP's error on triplet- and
// quadruplet-wise operator groups (§5.5 reports 4.9% and 6.4%).
func Fig10NWise(opts Options) []Table {
	cfg := predictor.DefaultSamplerConfig()
	cfg.Seed = opts.Seed
	cfg.Runs = 3
	epochs := 0
	if opts.Quick {
		epochs = 200
	}
	return []Table{nwiseAccuracy(opts, cfg, predictor.NewCodec(), epochs)}
}

// nwiseAccuracy builds the beyond-pairwise accuracy table.
func nwiseAccuracy(opts Options, cfg predictor.SamplerConfig, codec predictor.Codec, epochs int) Table {
	quad := []dnn.ModelID{dnn.ResNet101, dnn.ResNet152, dnn.VGG19, dnn.Bert}
	t := Table{
		ID:     "fig10-nwise",
		Title:  "Unified MLP error beyond pairwise co-location",
		Header: []string{"co-location degree", "samples", "MAPE"},
	}
	perCombo := opts.SamplesPerPair
	degrees := []int{3, 4}
	rows := runner.Map(len(degrees), 0, func(di int) []string {
		k := degrees[di]
		// Train on degrees 1..k so the model sees the full group-size range
		// it must serve; evaluate on fresh degree-k groups only.
		train := predictor.CollectDegrees(quad, k, perCombo, cfg)
		tc := predictor.TrainConfig{Technique: predictor.TechMLP, Epochs: epochs, LogTarget: true, Seed: opts.Seed}
		p, err := predictor.Train(train, codec, tc)
		if err != nil {
			panic(err)
		}
		evalCfg := cfg
		evalCfg.Seed = cfg.Seed + 10_000
		eval := predictor.Collect(quad, k, perCombo/4+1, evalCfg)
		return []string{fmt.Sprintf("%d-wise", k), fmt.Sprintf("%d", len(train)), pct(p.Evaluate(eval))}
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes, "paper: 4.9% (triplets), 6.4% (quadruplets) with the unified model")
	return t
}
