package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"abacus/internal/cluster"
	"abacus/internal/runner"
	"abacus/internal/trace"
)

// clusterCmd replays a MAF-like trace on a simulated GPU cluster, comparing
// Kubernetes routing + node-level Abacus against a Clockwork-style central
// scheduler (§7.6, Figure 22).
//
//	abacus cluster -nodes 4 -gpus 1 -qps 170 -minutes 10
func clusterCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	nodes := fs.Int("nodes", 4, "cluster nodes")
	gpus := fs.Int("gpus", 1, "GPUs per node")
	qps := fs.Float64("qps", 170, "base offered load (diurnal + bursts applied on top)")
	minutes := fs.Float64("minutes", 10, "trace duration")
	qos := fs.Float64("qos", 100, "QoS target in ms")
	seed := fs.Int64("seed", 1, "trace seed")
	modelsList := modelsFlag(fs, "Res101,Res152,VGG19,Bert")
	csvPrefix := fs.String("csv", "", "write per-policy timelines to <prefix>-<policy>.csv")
	parallelFlag(fs)
	return func(stdout, _ io.Writer) error {
		models, err := parseModels(*modelsList)
		if err != nil {
			return err
		}
		durationMS := *minutes * 60_000
		gen := trace.NewGenerator(models, *seed)
		arrivals := gen.MAF(trace.DefaultMAFConfig(*qps, durationMS, *seed))
		fmt.Fprintf(stdout, "replaying %d arrivals over %.0f minutes on %d GPUs\n",
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
		results := cluster.RunPolicies(cfgs, 0)
		elapsed := time.Since(start).Seconds()

		for _, res := range results {
			fmt.Fprintf(stdout, "%-10s completed=%d dropped=%d tput=%.1f r/s p99=%.1f ms avg=%.1f ms %.1f J/query\n",
				res.Policy, res.Completed, res.Dropped, res.Throughput(durationMS),
				res.P99Latency, res.AvgLatency, res.JoulesPerQuery())
			if *csvPrefix != "" {
				name := fmt.Sprintf("%s-%s.csv", *csvPrefix, res.Policy)
				if err := writeFile(name, res.WriteTimelineCSV); err != nil {
					return err
				}
				fmt.Fprintln(stdout, "wrote", name)
			}
		}
		fmt.Fprintf(stdout, "[%d policies completed in %.1fs with %d workers]\n", len(results), elapsed, runner.DefaultParallel())
		return nil
	}
}
