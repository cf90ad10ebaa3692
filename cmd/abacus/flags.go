package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"abacus"
	"abacus/internal/dnn"
	"abacus/internal/scaler"
	"abacus/internal/serving"
	"abacus/internal/trace"
	"abacus/internal/workload"
)

// The flags below mean the same thing on every command that takes them, so
// each is defined here once.

// modelsFlag defines -models, a comma-separated model list, with the
// command's default deployment.
func modelsFlag(fs *flag.FlagSet, def string) *string {
	return fs.String("models", def, "comma-separated model names (Res50,Res101,Res152,IncepV3,VGG16,VGG19,Bert)")
}

// parallelFlag defines -parallel. run makes the parsed width runner's
// default, which every sweep handed width 0 uses.
func parallelFlag(fs *flag.FlagSet) {
	fs.Int("parallel", runtime.NumCPU(), "worker-pool width (results are identical at any width)")
}

// predictCacheFlag defines -predict-cache, the prediction memo's capacity.
func predictCacheFlag(fs *flag.FlagSet) *int {
	return fs.Int("predict-cache", 4096, "group-signature prediction cache capacity, 0 = off (results are identical either way)")
}

// autoscaleFlags defines the elastic-fleet group; the returned func builds
// its config after parsing, nil unless -autoscale is set.
func autoscaleFlags(fs *flag.FlagSet) func() *scaler.Config {
	on := fs.Bool("autoscale", false, "elastic fleet: a control loop adds and drains replicated nodes between -min-nodes and -max-nodes as offered load moves (replaces -nodes)")
	minNodes := fs.Int("min-nodes", 1, "autoscale floor: nodes the fleet never shrinks below")
	maxNodes := fs.Int("max-nodes", 8, "autoscale ceiling: nodes the fleet never grows beyond")
	warmupMS := fs.Float64("warmup-ms", 1500, "autoscale warm-up window: a new node takes only the probe trickle for this long, virtual ms")
	capacityQPS := fs.Float64("capacity-qps", 30, "autoscale sizing: sustainable per-node load, virtual QPS")
	intervalMS := fs.Float64("scale-interval-ms", 1000, "autoscale control-loop observation interval, virtual ms")
	return func() *scaler.Config {
		if !*on {
			return nil
		}
		return &scaler.Config{
			MinNodes:    *minNodes,
			MaxNodes:    *maxNodes,
			CapacityQPS: *capacityQPS,
			WarmupMS:    *warmupMS,
			IntervalMS:  *intervalMS,
		}
	}
}

// parseModels parses a comma-separated model-name list ("Res152, IncepV3")
// into model IDs. Names are trimmed; an empty list is an error.
func parseModels(list string) ([]dnn.ModelID, error) {
	var models []dnn.ModelID
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		m, err := dnn.ModelIDByName(name)
		if err != nil {
			return nil, err
		}
		models = append(models, m)
	}
	if len(models) == 0 {
		return nil, fmt.Errorf("empty model list %q", list)
	}
	return models, nil
}

// parsePlacement parses a node placement: semicolon-separated nodes, each a
// comma-separated model list ("Res152,IncepV3;Res50,VGG16" pins two nodes).
// An empty string yields nil (no pinned placement).
func parsePlacement(spec string) ([][]dnn.ModelID, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var place [][]dnn.ModelID
	for i, group := range strings.Split(spec, ";") {
		models, err := parseModels(group)
		if err != nil {
			return nil, fmt.Errorf("placement node %d: %w", i, err)
		}
		place = append(place, models)
	}
	return place, nil
}

// parsePolicy resolves a scheduler name (case-insensitive) to its policy.
func parsePolicy(name string) (serving.PolicyKind, error) {
	for p := serving.PolicyFCFS; p <= serving.PolicyKernelLevel; p++ {
		if strings.EqualFold(strings.TrimSpace(name), p.String()) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q (FCFS, SJF, EDF, Abacus, MPS, KernelLevel)", name)
}

// The loaders below are the commands' one way to read and write each kind
// of file.

// loadSpec reads and parses a JSON workload spec file.
func loadSpec(path string) (*workload.Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return workload.Parse(data)
}

// readTrace reads and verifies a tracev2 file.
func readTrace(path string) (workload.Meta, []trace.Arrival, error) {
	f, err := os.Open(path)
	if err != nil {
		return workload.Meta{}, nil, err
	}
	defer f.Close()
	return workload.ReadTrace(f)
}

// replayTrace reads a tracev2 file for replay on a deployment of models and
// says so on w. The trace may span no more services than the deployment
// serves, and every row's input must lie in its service's served envelope,
// as the gateway demands of a live request.
func replayTrace(w io.Writer, path string, models []dnn.ModelID) (workload.Meta, []trace.Arrival, error) {
	meta, arrivals, err := readTrace(path)
	if err != nil {
		return meta, nil, err
	}
	if meta.Services > len(models) {
		return meta, nil, fmt.Errorf("%s spans %d services, the deployment serves %d", path, meta.Services, len(models))
	}
	for i, a := range arrivals {
		if err := dnn.Get(models[a.Service]).CheckInput(a.Input); err != nil {
			return meta, nil, fmt.Errorf("%s arrival %d (service %d, %s): %w", path, i, a.Service, models[a.Service], err)
		}
	}
	fmt.Fprintf(w, "replaying %d arrivals from %s (tracev2 %q, seed %d)\n", len(arrivals), path, meta.Name, meta.Seed)
	return meta, arrivals, nil
}

// writeTrace writes arrivals as a tracev2 file.
func writeTrace(path string, meta workload.Meta, arrivals []trace.Arrival) error {
	return writeFile(path, func(w io.Writer) error { return workload.WriteTrace(w, meta, arrivals) })
}

// loadPredictor restores a predictor written by train -model-out.
func loadPredictor(path string) (*abacus.Predictor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return abacus.LoadPredictor(f)
}

// writeFile creates path, fills it with write and closes it, returning the
// first error.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
