// MIG partitioning example: serve four services either on isolated MIG
// instances or co-located with Abacus on one larger instance (paper §7.5).
//
//	go run ./examples/mig
package main

import (
	"fmt"

	"abacus/internal/dnn"
	"abacus/internal/gpusim"
	"abacus/internal/serving"
	"abacus/internal/sim"
	"abacus/internal/trace"
)

func main() {
	models := []dnn.ModelID{dnn.ResNet101, dnn.ResNet152, dnn.VGG19, dnn.Bert}
	arrivals := trace.NewGenerator(models, 3).Poisson(50, 8_000)

	fmt.Println("case 1: full isolation — each model on its own MIG 1g.5gb instance")
	runCase(models, arrivals, [][]int{{0}, {1}, {2}, {3}}, 1.0/7, 1.0/8)

	fmt.Println("\ncase 2: no isolation — all four co-located on one MIG 4g.20gb via Abacus")
	runCase(models, arrivals, [][]int{{0, 1, 2, 3}}, 4.0/7, 1.0/2)

	fmt.Println("\nQoS targets assume full-GPU performance. Isolated, each heavy model keeps")
	fmt.Println("its p99 under QoS only by dropping about half its queries. Sharing the")
	fmt.Println("4g.20gb instance, Abacus drops a fifth as many of them and holds every p99")
	fmt.Println("within about 5% of QoS; Bert, the lightest, drops more than it does alone.")
}

// runCase serves the services on equally sized MIG instances, instance i
// hosting the services hosts[i], and reports per-service p99 against QoS.
// QoS targets derive from the full GPU; each instance's Abacus predicts
// with an oracle matched to the instance's capacity.
func runCase(models []dnn.ModelID, arrivals []trace.Arrival, hosts [][]int, smFrac, memFrac float64) {
	full := gpusim.New(sim.NewEngine(), gpusim.A100Profile())
	devices := make([]*gpusim.Device, len(hosts))
	for i := range devices {
		devices[i] = full.Partition(smFrac, memFrac)
	}
	res := serving.Run(serving.RunConfig{
		Policy:   serving.PolicyAbacus,
		Models:   models,
		Arrivals: arrivals,
		Devices:  devices,
		Hosts:    hosts,
	})
	for _, s := range res.PerService() {
		if s.Completed == 0 {
			fmt.Printf("  %-8v QoS %5.1f ms: no completions (%d dropped)\n", s.Model, s.QoS, s.Dropped)
			continue
		}
		fmt.Printf("  %-8v QoS %5.1f ms: p99 %6.1f ms (%d queries, %d dropped)\n",
			s.Model, s.QoS, s.P99, s.Completed, s.Dropped)
	}
}
