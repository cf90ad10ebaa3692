package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"abacus/internal/admit"
	"abacus/internal/chaos"
)

// chaosCmd runs named or scripted fault-injection scenarios against the
// full serving stack in virtual time and asserts QoS floors. Reports are
// byte-deterministic for a given seed and script at any -parallel width, so
// CI can diff them instead of tolerating flake.
//
//	abacus chaos                             # run the built-in suite
//	abacus chaos -scenario throttle50-degraded -assert-goodput 0.99
//	abacus chaos -script faults.json -models Res152,IncepV3 -qps 40
//	abacus chaos -spec examples/workloads/flash-crowd.json -assert-goodput 0.97
//	abacus chaos -o report.json              # also write the -json array to a file
func chaosCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	name := fs.String("scenario", "", "named built-in scenario (default: the whole suite); see -list")
	list := fs.Bool("list", false, "list built-in scenarios and exit")
	scriptFile := fs.String("script", "", "fault script file, a JSON {\"windows\": [...]} object (see internal/chaos), replacing the built-ins")
	specFile := fs.String("spec", "", "workload spec file (JSON, see internal/workload) driving arrivals for a -script-style run; combinable with -script faults")
	modelsList := modelsFlag(fs, "Res152,IncepV3")
	nodes := fs.Int("nodes", 1, "per-GPU nodes for -script runs; every node hosts every model, and windows may be node-scoped")
	qps := fs.Float64("qps", 30, "aggregate offered load for -script runs, queries per second")
	seconds := fs.Float64("seconds", 10, "arrival window for -script runs, virtual seconds")
	seed := fs.Int64("seed", 11, "seed for arrivals, fault coins, and retry jitter in -script runs")
	degrade := fs.Bool("degrade", true, "enable the degraded-mode controller in -script runs")
	retry := fs.Bool("retry", false, "give -script runs a retrying virtual client")
	predictCache := predictCacheFlag(fs)
	elastic := autoscaleFlags(fs)
	assertGoodput := fs.Float64("assert-goodput", 0, "fail unless every report's goodput meets this floor")
	jsonOut := fs.Bool("json", false, "emit reports as JSON instead of text")
	outFile := fs.String("o", "", "also write the JSON report array to this file")
	parallelFlag(fs)
	return func(stdout, stderr io.Writer) error {
		if *list {
			for _, sc := range chaos.Scenarios() {
				fmt.Fprintln(stdout, sc.Name)
			}
			return nil
		}

		var scenarios []chaos.Scenario
		switch {
		case *scriptFile != "" || *specFile != "":
			models, err := parseModels(*modelsList)
			if err != nil {
				return err
			}
			sc := chaos.Scenario{
				Models:       models,
				Nodes:        *nodes,
				QPS:          *qps,
				DurationMS:   *seconds * 1000,
				Seed:         *seed,
				PredictCache: *predictCache,
			}
			if *scriptFile != "" {
				data, err := os.ReadFile(*scriptFile)
				if err != nil {
					return err
				}
				if sc.Script, err = chaos.ParseScript(data); err != nil {
					return err
				}
				base := filepath.Base(*scriptFile)
				sc.Name = strings.TrimSuffix(base, filepath.Ext(base))
			}
			if *specFile != "" {
				if sc.Workload, err = loadSpec(*specFile); err != nil {
					return err
				}
				if sc.Name == "" {
					sc.Name = sc.Workload.Name
				}
			}
			if !*degrade {
				sc.Degrade = admit.DegradeConfig{Disabled: true}
			}
			if *retry {
				sc.Retry = &chaos.RetryConfig{}
			}
			if sc.Autoscale = elastic(); sc.Autoscale != nil {
				sc.Nodes = sc.Autoscale.MinNodes
			}
			scenarios = []chaos.Scenario{sc}
		case *name != "":
			sc, ok := chaos.Lookup(*name)
			if !ok {
				return fmt.Errorf("unknown scenario %q (try -list)", *name)
			}
			scenarios = []chaos.Scenario{sc}
		default:
			scenarios = chaos.Scenarios()
		}

		reports, err := chaos.RunAll(scenarios, 0)
		if err != nil {
			return err
		}
		var reportJSON []byte
		if *jsonOut || *outFile != "" {
			if reportJSON, err = json.MarshalIndent(reports, "", "  "); err != nil {
				return err
			}
			reportJSON = append(reportJSON, '\n')
		}
		if *jsonOut {
			if _, err := stdout.Write(reportJSON); err != nil {
				return err
			}
		} else {
			for _, rep := range reports {
				fmt.Fprint(stdout, rep.Text())
			}
		}
		if *outFile != "" {
			if err := os.WriteFile(*outFile, reportJSON, 0o644); err != nil {
				return err
			}
		}

		if *assertGoodput > 0 {
			bad := 0
			for _, rep := range reports {
				if rep.Goodput < *assertGoodput {
					fmt.Fprintf(stderr, "abacus chaos: %s goodput %.4f below floor %.4f\n",
						rep.Name, rep.Goodput, *assertGoodput)
					bad++
				}
			}
			if bad > 0 {
				return fmt.Errorf("%d of %d reports below the goodput floor", bad, len(reports))
			}
		}
		return nil
	}
}
