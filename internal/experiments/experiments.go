// Package experiments regenerates every figure of the paper's motivation
// and evaluation sections on the simulated substrate. Each Fig* function
// returns a Table that prints the same rows/series the paper plots; the
// per-experiment index in DESIGN.md maps figure ids to these functions.
//
// Absolute numbers come from the simulator, not the authors' testbed; the
// shapes (who wins, by roughly what factor, where the crossovers fall) are
// the reproduction targets recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"

	"abacus/internal/dnn"
	"abacus/internal/gpusim"
	"abacus/internal/predictor"
)

// Table is a printable experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table in a fixed-width layout.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s\n", t.ID, t.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Options scales the experiments. Full() reproduces the paper's setup;
// Quick() shrinks workloads for CI and benchmarks while preserving shapes.
// Every experiment fans its independent runs out over the runner's default
// worker count (runner.SetDefaultParallel, passed as 0). Results are
// identical at any width: every run owns its engine and RNG, and rows keep
// their sweep order.
type Options struct {
	// Quick selects the reduced configuration.
	Quick bool
	// Seed drives every random choice.
	Seed int64
	// SamplesPerPair is the profiling density for predictor training
	// (paper: 2000).
	SamplesPerPair int
	// DurationMS is the serving-trace length per (pair, policy) run.
	DurationMS float64
}

// Full returns the reference configuration used to populate EXPERIMENTS.md.
// The paper profiles 2000 samples per pair and serves multi-minute loads;
// this configuration uses 1000 samples per combination and 12-second traces
// per (deployment, policy) point, which reaches the same accuracy regime
// (the MLP's MAPE converges by ~1000 samples — see the Figure 10 table)
// while staying tractable on one CPU core.
func Full() Options {
	return Options{Seed: 1, SamplesPerPair: 1000, DurationMS: 12_000}
}

// Quick returns the reduced configuration used by benchmarks and smoke
// runs.
func Quick() Options {
	return Options{Quick: true, Seed: 1, SamplesPerPair: 200, DurationMS: 4_000}
}

// profile returns the device profile shared by every experiment.
func profile() gpusim.Profile { return gpusim.A100Profile() }

// ZooIDs returns all seven model ids.
func ZooIDs() []dnn.ModelID {
	ids := make([]dnn.ModelID, dnn.NumModels)
	for i := range ids {
		ids[i] = dnn.ModelID(i)
	}
	return ids
}

// pairName formats a pair the way the paper labels its x axes.
func pairName(ms []dnn.ModelID) string {
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.String()
	}
	return "(" + strings.Join(names, ",") + ")"
}

// predictorCache shares trained unified predictors across experiments in
// one process (training is the expensive part of a full run). Entries are
// created with LoadOrStore and trained under a per-key sync.Once, so
// concurrent workers asking for the same key block on one training run
// instead of duplicating it.
var predictorCache sync.Map // key string → *predictorEntry

type predictorEntry struct {
	once sync.Once
	p    *predictor.Predictor
	err  error
}

// unifiedPredictor returns a latency model for Abacus runs: nil in quick
// mode, so every device predicts with its own exact oracle, otherwise an
// MLP trained on instance-based samples over every k-wise combination of
// the given models for k = 1..maxK (scheduling also predicts singleton
// groups, so k = 1 is required).
func unifiedPredictor(opts Options, models []dnn.ModelID, maxK int) predictor.LatencyModel {
	return unifiedPredictorOn(opts, models, maxK, profile())
}

// v100Predictor trains the duration model against the V100 profile used by
// the cluster experiment.
func v100Predictor(opts Options, models []dnn.ModelID) predictor.LatencyModel {
	return unifiedPredictorOn(opts, models, 4, gpusim.V100Profile())
}

func unifiedPredictorOn(opts Options, models []dnn.ModelID, maxK int, prof gpusim.Profile) predictor.LatencyModel {
	if opts.Quick {
		return nil
	}
	if maxK > len(models) {
		maxK = len(models)
	}
	if maxK > predictor.MaxCoLocated {
		maxK = predictor.MaxCoLocated
	}
	key := fmt.Sprintf("%v/%d/%d/%d/%s", models, maxK, opts.SamplesPerPair, opts.Seed, prof.Name)
	v, _ := predictorCache.LoadOrStore(key, &predictorEntry{})
	entry := v.(*predictorEntry)
	entry.once.Do(func() {
		cfg := predictor.DefaultSamplerConfig()
		cfg.Profile = prof
		cfg.Seed = opts.Seed
		cfg.Runs = 3
		samples := predictor.CollectDegrees(models, maxK, opts.SamplesPerPair, cfg)
		trainCfg := predictor.DefaultTrainConfig()
		trainCfg.Seed = opts.Seed
		entry.p, entry.err = predictor.Train(samples, predictor.NewCodec(), trainCfg)
	})
	if entry.err != nil {
		panic(fmt.Sprintf("experiments: training unified predictor: %v", entry.err))
	}
	return entry.p
}

// f1 formats a float with one decimal; f2/f3 with two/three.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// pct formats a fraction as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// geoPairs returns the paper's C(7,2) = 21 pairs in figure order, or a
// 6-pair subset in quick mode.
func evalPairs(opts Options) [][]dnn.ModelID {
	all := predictor.Combinations(ZooIDs(), 2)
	if !opts.Quick {
		return all
	}
	quick := [][]dnn.ModelID{
		{dnn.ResNet50, dnn.ResNet152},
		{dnn.ResNet152, dnn.InceptionV3},
		{dnn.ResNet101, dnn.Bert},
		{dnn.InceptionV3, dnn.VGG16},
		{dnn.VGG16, dnn.VGG19},
		{dnn.VGG19, dnn.Bert},
	}
	return quick
}

// meanImprovement returns mean(1 - a/b) over rows, guarding zero b.
func meanImprovement(abacus, baseline []float64) float64 {
	var s float64
	var n int
	for i := range abacus {
		if baseline[i] > 0 {
			s += 1 - abacus[i]/baseline[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// meanGain returns mean(a/b - 1) over rows, guarding zero b.
func meanGain(abacus, baseline []float64) float64 {
	var s float64
	var n int
	for i := range abacus {
		if baseline[i] > 0 {
			s += abacus[i]/baseline[i] - 1
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// Registry maps experiment ids to their runners.
type Runner func(opts Options) []Table

var registry = map[string]Runner{}
var registryOrder []string

func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = r
	registryOrder = append(registryOrder, id)
}

// IDs lists registered experiment ids in registration order.
func IDs() []string {
	out := append([]string(nil), registryOrder...)
	sort.Strings(out)
	return out
}

// Run executes one experiment by id.
func Run(id string, opts Options) ([]Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	return r(opts), nil
}
