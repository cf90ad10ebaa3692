// Command abacus-cluster replays a MAF-like trace on a simulated GPU
// cluster, comparing Kubernetes routing + node-level Abacus against a
// Clockwork-style central scheduler (§7.6, Figure 22).
//
// Usage:
//
//	abacus-cluster -nodes 4 -gpus 1 -qps 170 -minutes 10
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"abacus/internal/cli"
	"abacus/internal/cluster"
	"abacus/internal/trace"
)

var fail = cli.Failer("abacus-cluster")

func main() {
	nodes := flag.Int("nodes", 4, "cluster nodes")
	gpus := flag.Int("gpus", 1, "GPUs per node")
	qps := flag.Float64("qps", 170, "base offered load (diurnal + bursts applied on top)")
	minutes := flag.Float64("minutes", 10, "trace duration")
	qos := flag.Float64("qos", 100, "QoS target in ms")
	seed := flag.Int64("seed", 1, "trace seed")
	parallel := flag.Int("parallel", runtime.NumCPU(),
		"worker count for the side-by-side policy runs (results are identical at any setting)")
	modelsFlag := flag.String("models", "Res101,Res152,VGG19,Bert", "quad-wise deployment")
	csvPrefix := flag.String("csv", "", "write per-policy timelines to <prefix>-<policy>.csv")
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

	durationMS := *minutes * 60_000
	gen := trace.NewGenerator(models, *seed)
	arrivals := gen.MAF(trace.DefaultMAFConfig(*qps, durationMS, *seed))
	fmt.Printf("replaying %d arrivals over %.0f minutes on %d GPUs\n",
		len(arrivals), *minutes, *nodes**gpus)

	// Both fleets replay the same (read-only) arrival slice side by side.
	var cfgs []cluster.Config
	for _, policy := range []cluster.Policy{cluster.KubeAbacus, cluster.Clockwork} {
		cfgs = append(cfgs, cluster.Config{
			Policy:      policy,
			Nodes:       *nodes,
			GPUsPerNode: *gpus,
			Models:      models,
			QoS:         *qos,
			Arrivals:    arrivals,
		})
	}
	start := time.Now()
	results := cluster.RunPolicies(cfgs, *parallel)
	elapsed := time.Since(start).Seconds()

	for _, res := range results {
		fmt.Printf("%-10s completed=%d dropped=%d tput=%.1f r/s p99=%.1f ms avg=%.1f ms %.1f J/query\n",
			res.Policy, res.Completed, res.Dropped, res.Throughput(durationMS),
			res.P99Latency, res.AvgLatency, res.JoulesPerQuery())
		if *csvPrefix != "" {
			name := fmt.Sprintf("%s-%s.csv", *csvPrefix, res.Policy)
			f, err := os.Create(name)
			if err != nil {
				fail(err)
			}
			if err := res.WriteTimelineCSV(f); err != nil {
				fail(err)
			}
			if err := f.Close(); err != nil {
				fail(err)
			}
			fmt.Println("wrote", name)
		}
	}
	fmt.Printf("[%d policies completed in %.1fs with %d workers]\n", len(results), elapsed, *parallel)
}
