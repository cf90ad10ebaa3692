// Command abacus-chaos runs named or scripted fault-injection scenarios
// against the full serving stack in virtual time and asserts QoS floors.
// Reports are byte-deterministic for a given seed and script at any
// -parallel width, so CI can diff them instead of tolerating flake.
//
// Usage:
//
//	abacus-chaos                             # run the built-in suite
//	abacus-chaos -scenario throttle50-degraded -assert-goodput 0.99
//	abacus-chaos -script faults.json -models Res152,IncepV3 -qps 40
//	abacus-chaos -workload examples/workloads/flash-crowd.json -assert-goodput 0.97
//	abacus-chaos -o report.json              # also write the -json array to a file
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"abacus/internal/admit"
	"abacus/internal/chaos"
	"abacus/internal/cli"
	"abacus/internal/scaler"
	"abacus/internal/workload"
)

var fail = cli.Failer("abacus-chaos")

func main() {
	scenarioFlag := flag.String("scenario", "", "named built-in scenario (default: the whole suite); see -list")
	list := flag.Bool("list", false, "list built-in scenarios and exit")
	scriptFile := flag.String("script", "", "fault script file, a JSON {\"windows\": [...]} object (see internal/chaos), replacing the built-ins")
	workloadFile := flag.String("workload", "", "workload spec file (JSON, see internal/workload) driving arrivals for a -script-style run; combinable with -script faults")
	modelsFlag := flag.String("models", "Res152,IncepV3", "comma-separated model names for -script runs")
	nodes := flag.Int("nodes", 1, "per-GPU nodes for -script runs; every node hosts every model, and windows may be node-scoped")
	qps := flag.Float64("qps", 30, "aggregate offered load for -script runs, queries per second")
	durationMS := flag.Float64("duration", 10000, "arrival window for -script runs, virtual ms")
	seed := flag.Int64("seed", 11, "seed for arrivals, fault coins, and retry jitter in -script runs")
	parallel := flag.Int("parallel", runtime.NumCPU(), "scenario worker-pool width (reports are identical at any width)")
	degrade := flag.Bool("degrade", true, "enable the degraded-mode controller in -script runs")
	retry := flag.Bool("retry", false, "give -script runs a retrying virtual client")
	predictCache := flag.Int("predict-cache", 0, "oracle memo-cache capacity for -script runs (0 = off; reports are identical either way)")
	autoscale := flag.Bool("autoscale", false, "give -script runs the live elastic autoscaler between -min-nodes and -max-nodes (replaces -nodes)")
	minNodes := flag.Int("min-nodes", 1, "autoscale floor for -script runs")
	maxNodes := flag.Int("max-nodes", 8, "autoscale ceiling for -script runs")
	warmupMS := flag.Float64("warmup-ms", 1500, "autoscale warm-up window for -script runs, virtual ms")
	capacityQPS := flag.Float64("capacity-qps", 30, "autoscale per-node sustainable load for -script runs, virtual QPS")
	scaleIntervalMS := flag.Float64("scale-interval-ms", 1000, "autoscale control-loop interval for -script runs, virtual ms")
	assertGoodput := flag.Float64("assert-goodput", 0, "exit 1 unless every report's goodput meets this floor")
	jsonOut := flag.Bool("json", false, "emit reports as JSON instead of text")
	outFile := flag.String("o", "", "also write the JSON report array to this file")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(cli.Version())
		return
	}
	if *list {
		for _, sc := range chaos.Scenarios() {
			fmt.Println(sc.Name)
		}
		return
	}

	var elastic *scaler.Config
	if *autoscale {
		elastic = &scaler.Config{
			MinNodes:    *minNodes,
			MaxNodes:    *maxNodes,
			CapacityQPS: *capacityQPS,
			WarmupMS:    *warmupMS,
			IntervalMS:  *scaleIntervalMS,
		}
	}
	scenarios, err := selectScenarios(*scenarioFlag, *scriptFile, *workloadFile, *modelsFlag, *nodes, *qps, *durationMS, *seed, *degrade, *retry, *predictCache, elastic)
	if err != nil {
		fail(err)
	}

	reports, err := chaos.RunAll(scenarios, *parallel)
	if err != nil {
		fail(err)
	}

	var reportJSON []byte
	if *jsonOut || *outFile != "" {
		if reportJSON, err = json.MarshalIndent(reports, "", "  "); err != nil {
			fail(err)
		}
		reportJSON = append(reportJSON, '\n')
	}
	if *jsonOut {
		if _, err := os.Stdout.Write(reportJSON); err != nil {
			fail(err)
		}
	} else {
		for _, rep := range reports {
			fmt.Print(rep.Text())
		}
	}
	if *outFile != "" {
		if err := os.WriteFile(*outFile, reportJSON, 0o644); err != nil {
			fail(err)
		}
	}

	if *assertGoodput > 0 {
		bad := false
		for _, rep := range reports {
			if rep.Goodput < *assertGoodput {
				fmt.Fprintf(os.Stderr, "abacus-chaos: %s goodput %.4f below floor %.4f\n",
					rep.Name, rep.Goodput, *assertGoodput)
				bad = true
			}
		}
		if bad {
			os.Exit(1)
		}
	}
}

// selectScenarios resolves the flag combination into the scenario list.
func selectScenarios(name, scriptFile, workloadFile, modelsFlag string, nodes int, qps, durationMS float64, seed int64, degrade, retry bool, predictCache int, elastic *scaler.Config) ([]chaos.Scenario, error) {
	if scriptFile != "" || workloadFile != "" {
		models, err := cli.ParseModels(modelsFlag)
		if err != nil {
			return nil, err
		}
		sc := chaos.Scenario{
			Models:       models,
			Nodes:        nodes,
			QPS:          qps,
			DurationMS:   durationMS,
			Seed:         seed,
			PredictCache: predictCache,
		}
		if scriptFile != "" {
			data, err := os.ReadFile(scriptFile)
			if err != nil {
				return nil, err
			}
			script, err := chaos.ParseScript(data)
			if err != nil {
				return nil, err
			}
			sc.Script = script
			base := filepath.Base(scriptFile)
			sc.Name = strings.TrimSuffix(base, filepath.Ext(base))
		}
		if workloadFile != "" {
			data, err := os.ReadFile(workloadFile)
			if err != nil {
				return nil, err
			}
			spec, err := workload.Parse(data)
			if err != nil {
				return nil, err
			}
			sc.Workload = spec
			if sc.Name == "" {
				sc.Name = spec.Name
			}
		}
		if !degrade {
			sc.Degrade = admit.DegradeConfig{Disabled: true}
		}
		if retry {
			sc.Retry = &chaos.RetryConfig{}
		}
		if elastic != nil {
			sc.Autoscale = elastic
			sc.Nodes = elastic.MinNodes
		}
		return []chaos.Scenario{sc}, nil
	}
	if name != "" {
		sc, ok := chaos.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("unknown scenario %q (try -list)", name)
		}
		return []chaos.Scenario{sc}, nil
	}
	return chaos.Scenarios(), nil
}
