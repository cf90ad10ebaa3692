// Package abacus is a Go reproduction of "Enable Simultaneous DNN Services
// Based on Deterministic Operator Overlap and Precise Latency Prediction"
// (Cui et al., SC '21).
//
// Abacus co-locates multiple latency-critical DNN inference services on one
// GPU. Instead of running queries sequentially (Nexus/Clockwork-style
// FCFS/SJF/EDF) or letting kernels overlap nondeterministically (MPS), it
// issues deterministic operator groups sized by an offline-trained latency
// predictor so that the query with the least QoS headroom still meets its
// deadline.
//
// The GPU, the DNN model zoo, and the serving stack are deterministic
// simulations (see DESIGN.md for the substitution rationale). The public
// API mirrors how the system would be used:
//
//	sys, _ := abacus.NewSystem(abacus.SystemConfig{
//		Models: []abacus.Model{abacus.ResNet152, abacus.InceptionV3},
//		Policy: abacus.PolicyAbacus,
//	})
//	report := sys.Serve(50, 10_000) // 50 QPS for 10 simulated seconds
//	fmt.Println(report)
//
// Deeper building blocks — the discrete-event GPU (internal/gpusim), the
// operator cost model (internal/dnn), the predictor (internal/predictor),
// and the schedulers (internal/sched) — are exposed through type aliases
// where they form part of the public surface.
package abacus

import (
	"fmt"
	"io"

	"abacus/internal/dnn"
	"abacus/internal/experiments"
	"abacus/internal/gpusim"
	"abacus/internal/predictor"
	"abacus/internal/sched"
	"abacus/internal/serving"
	"abacus/internal/trace"
)

// Model identifies one of the seven serving models from the paper's
// Table 1.
type Model = dnn.ModelID

// The model zoo.
const (
	ResNet50    = dnn.ResNet50
	ResNet101   = dnn.ResNet101
	ResNet152   = dnn.ResNet152
	InceptionV3 = dnn.InceptionV3
	VGG16       = dnn.VGG16
	VGG19       = dnn.VGG19
	Bert        = dnn.Bert
)

// Models returns the full zoo in paper order.
func Models() []Model { return experiments.ZooIDs() }

// ModelByName resolves a short model name ("Res152", "Bert", ...).
func ModelByName(name string) (Model, error) { return dnn.ModelIDByName(name) }

// Policy selects the per-GPU scheduling policy.
type Policy = serving.PolicyKind

// The evaluated policies: the three sequential baselines and Abacus, plus
// the two rejected extremes — MPS-style free overlap (§3.2) and
// Prema-style kernel-level scheduling (§5.1) — for ablations.
const (
	PolicyFCFS        = serving.PolicyFCFS
	PolicySJF         = serving.PolicySJF
	PolicyEDF         = serving.PolicyEDF
	PolicyAbacus      = serving.PolicyAbacus
	PolicyMPS         = serving.PolicyMPS
	PolicyKernelLevel = serving.PolicyKernelLevel
)

// Policies returns the paper's four evaluated policies in figure order.
func Policies() []Policy { return serving.AllPolicies() }

// Input is a query's runtime input (batch size; sequence length for BERT).
type Input = dnn.Input

// Group is a deterministic operator schedule group; Entry is one query's
// contiguous operator span within it.
type (
	Group = predictor.Group
	Entry = predictor.Entry
)

// Predictor is the trained overlap-aware latency predictor.
type Predictor = predictor.Predictor

// LatencyModel is anything that predicts operator-group latency: a trained
// Predictor or the exact Oracle.
type LatencyModel = predictor.LatencyModel

// Oracle answers latency queries by exact simulation — the
// perfect-predictor upper bound.
func Oracle() LatencyModel { return predictor.Oracle{Profile: gpusim.A100Profile()} }

// SystemConfig configures a single-GPU serving system.
type SystemConfig struct {
	// Models are the co-located services (1..4 of the zoo).
	Models []Model
	// Policy is the scheduler; default PolicyAbacus.
	Policy Policy
	// QoSFactor scales the per-service QoS target relative to the solo
	// latency of the maximum input; default 2 (the paper's setting).
	QoSFactor float64
	// Predictor supplies Abacus's duration model. Nil selects the exact
	// oracle; pass a TrainPredictor result for end-to-end fidelity.
	Predictor LatencyModel
	// Seed drives the workload generator; runs are deterministic given the
	// seed.
	Seed int64
}

// System is a single-GPU serving system over the simulated device.
type System struct {
	cfg      SystemConfig
	services []*sched.Service
}

// NewSystem validates the configuration and builds the system.
func NewSystem(cfg SystemConfig) (*System, error) {
	if len(cfg.Models) == 0 {
		return nil, fmt.Errorf("abacus: no models configured")
	}
	if len(cfg.Models) > predictor.MaxCoLocated {
		return nil, fmt.Errorf("abacus: %d models exceed the supported co-location degree %d",
			len(cfg.Models), predictor.MaxCoLocated)
	}
	seen := map[Model]bool{}
	for _, m := range cfg.Models {
		if m < 0 || m >= dnn.NumModels {
			return nil, fmt.Errorf("abacus: unknown model id %d", int(m))
		}
		if seen[m] {
			// The Figure 8 feature encoding identifies a query by its model
			// bitmap bit, so each model may be deployed at most once per
			// GPU (matching the paper's deployments).
			return nil, fmt.Errorf("abacus: model %v deployed twice", m)
		}
		seen[m] = true
	}
	if cfg.QoSFactor == 0 {
		cfg.QoSFactor = 2
	}
	if cfg.QoSFactor <= 1 {
		return nil, fmt.Errorf("abacus: QoS factor %v must exceed 1", cfg.QoSFactor)
	}
	return &System{
		cfg:      cfg,
		services: sched.Services(cfg.Models, cfg.QoSFactor, gpusim.A100Profile()),
	}, nil
}

// QoSTargets returns the per-service QoS targets in ms, in Models order.
func (s *System) QoSTargets() []float64 {
	out := make([]float64, len(s.services))
	for i, svc := range s.services {
		out[i] = svc.QoS
	}
	return out
}

// Serve replays a Poisson workload of totalQPS queries per second
// (aggregated over all services, random inputs per the paper's Table 1)
// for durationMS of simulated time and reports the outcome.
func (s *System) Serve(totalQPS, durationMS float64) Report {
	gen := trace.NewGenerator(s.cfg.Models, s.cfg.Seed)
	return s.ServeArrivals(gen.Poisson(totalQPS, durationMS))
}

// ServeArrivals replays an explicit arrival trace.
func (s *System) ServeArrivals(arrivals []trace.Arrival) Report {
	res := serving.Run(serving.RunConfig{
		Policy:   s.cfg.Policy,
		Models:   s.cfg.Models,
		Arrivals: arrivals,
		Services: s.services,
		Model:    s.cfg.Predictor,
	})
	return Report{res: res}
}

// Report summarizes a serving run.
type Report struct {
	res serving.Result
}

// NormalizedTail returns the worst per-service 99%-ile latency divided by
// its QoS target (< 1 means all services met their targets at p99).
func (r Report) NormalizedTail() float64 { return r.res.NormalizedTail() }

// ViolationRatio returns the fraction of queries that missed QoS (dropped
// queries count).
func (r Report) ViolationRatio() float64 { return r.res.ViolationRatio() }

// Goodput returns queries completed within QoS per second.
func (r Report) Goodput() float64 { return r.res.Goodput() }

// DropRatio returns the fraction of queries dropped.
func (r Report) DropRatio() float64 { return r.res.DropRatio() }

// Completed returns the number of queries that finished (dropped excluded).
func (r Report) Completed() int { return r.res.Completed() }

// Queries returns the total number of queries emitted.
func (r Report) Queries() int { return len(r.res.Records) }

// TailLatency returns the p-th percentile latency of completed queries of
// one service index (-1 for all).
func (r Report) TailLatency(service int, p float64) float64 { return r.res.TailLatency(service, p) }

// Utilization returns the device's mean SM utilization over the run.
func (r Report) Utilization() float64 { return r.res.Utilization }

// String renders the headline metrics.
func (r Report) String() string {
	return fmt.Sprintf("%s: %d queries, p99/QoS=%.2f, violations=%.1f%%, goodput=%.1f r/s, drops=%.1f%%",
		r.res.Policy, len(r.res.Records), r.NormalizedTail(),
		100*r.ViolationRatio(), r.Goodput(), 100*r.DropRatio())
}

// TrainConfig controls offline predictor training.
type TrainConfig struct {
	// SamplesPerCombo is the instance-based sample count per model
	// combination (paper: 2000 per pair).
	SamplesPerCombo int
	// MaxCoLocated bounds the group sizes sampled (2 = pairwise, up to 4).
	MaxCoLocated int
	// Seed drives sampling and training.
	Seed int64
}

// TrainPredictor profiles operator groups over the given models on the
// simulated device and trains the paper's unified MLP duration model. The
// returned predictor plugs into SystemConfig.Predictor.
func TrainPredictor(models []Model, cfg TrainConfig) (*Predictor, error) {
	if cfg.SamplesPerCombo <= 0 {
		cfg.SamplesPerCombo = 500
	}
	if cfg.MaxCoLocated <= 0 {
		cfg.MaxCoLocated = 2
	}
	if cfg.MaxCoLocated > len(models) {
		cfg.MaxCoLocated = len(models)
	}
	sc := predictor.DefaultSamplerConfig()
	sc.Seed = cfg.Seed
	samples := predictor.CollectDegrees(models, cfg.MaxCoLocated, cfg.SamplesPerCombo, sc)
	tc := predictor.DefaultTrainConfig()
	tc.Seed = cfg.Seed
	return predictor.Train(samples, predictor.NewCodec(), tc)
}

// RunExperiment regenerates one of the paper's figures (e.g. "fig14",
// "fig22"; see ExperimentIDs) and renders the tables to w. quick shrinks
// the workload for smoke runs.
func RunExperiment(id string, quick bool, w io.Writer) error {
	opts := experiments.Full()
	if quick {
		opts = experiments.Quick()
	}
	tables, err := experiments.Run(id, opts)
	if err != nil {
		return err
	}
	for _, t := range tables {
		t.Render(w)
	}
	return nil
}

// ExperimentIDs lists the regenerable figures.
func ExperimentIDs() []string { return experiments.IDs() }

// LoadPredictor restores a predictor written by (*Predictor).Save — the
// artifact abacus train persists with -model-out.
func LoadPredictor(r io.Reader) (*Predictor, error) {
	return predictor.Load(r)
}

// WriteCSV emits one row per query of the run for external analysis.
func (r Report) WriteCSV(w io.Writer) error { return r.res.WriteCSV(w) }
