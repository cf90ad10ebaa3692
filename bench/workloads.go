package main

import (
	"fmt"
	"time"

	"abacus/internal/dnn"
	"abacus/internal/predictor"
	"abacus/internal/workload"
)

// runCfg is what one run of one workload is given.
type runCfg struct {
	seed int64
	// seconds is how long the measured phase runs: work comes in fixed units
	// (a block, a ladder pass, a day, a traffic cycle) and a run measures as
	// many whole units as fit, so parent and change do identical work per
	// unit whatever their speed.
	seconds float64
	// scale shrinks every unit for bench_test.go (1 = the benchmark).
	scale float64
	// traced selects the per-layer pass; end-to-end metrics are always
	// measured with tracing off.
	traced   bool
	traceOut string // where the traced pass writes its spans
}

// table is the metric table the pass cfg selects reports.
func (c runCfg) table() []spec {
	if c.traced {
		return perLayer
	}
	return endToEnd
}

// scaled returns n×scale rounded to a multiple of quantum, at least one.
func (c runCfg) scaled(n, quantum int) int {
	v := int(float64(n)*c.scale) / quantum * quantum
	if v < quantum {
		v = quantum
	}
	return v
}

// instance is one workload set up and warm. measure fills in the end-to-end
// metrics except setup_s and heap_mb, which main owns; layers fills in the
// per-layer metrics.
type instance interface {
	measure(r *report)
	layers(r *report)
	close()
}

type workloadDef struct {
	name  string
	why   string
	setup func(runCfg) (instance, error)
}

// The four workloads; BENCHMARK.json repeats the names and reasons.
var workloadDefs = []workloadDef{
	{"pair-ladder", "virtual time, one GPU, trained MLP without memo on a six-rung Poisson ladder: predictor, span search, executor and device sim do all the work", setupLadder},
	{"elastic-day", "virtual time, chaos diurnal-autoscale day with retries and a throttled node: router, admission, scaler and memo hit path with the predictor nearly free", setupElastic},
	{"gw-closed", "wall clock, unpaced 2-node gateway saturated by 2 closed-loop clients on 8 fixed bodies: codec, route, mailbox, admit accept path, sticky and dedupe caches", setupGWClosed},
	{"fleet-paced", "wall clock, paced 2-node gateway with the MLP behind the memo under an open-loop flash crowd: pacing, mailbox batching, routing under imbalance, admit shed path", setupPaced},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// tally counts what became of the requests sent; every request lands in
// exactly one outcome class, which is the conservation check.
type tally struct {
	sent int64
	by   [numOutcomes]int64
}

func (t *tally) add(outcome int) {
	t.sent++
	t.by[outcome]++
}

func (t *tally) merge(o tally) {
	t.sent += o.sent
	for i := range t.by {
		t.by[i] += o.by[i]
	}
}

// goodput is the share of requests sent that were answered within QoS:
// refused, dropped, failed and violated requests all miss.
func (t tally) goodput() float64 {
	if t.sent == 0 {
		return 0
	}
	return float64(t.by[outGood]) / float64(t.sent)
}

func (t tally) conserved() error {
	var sum int64
	for _, n := range t.by {
		sum += n
	}
	if sum != t.sent {
		return fmt.Errorf("conservation: sent %d != good %d + violated %d + dropped %d + refused %d + failed %d",
			t.sent, t.by[outGood], t.by[outViolated], t.by[outDropped], t.by[outRefused], t.by[outFailed])
	}
	return nil
}

// qosFloor is the goodput a load level must hold to count towards
// peak_qps_at_qos.
const qosFloor = 0.95

// pairModels is the paper's §7.3 pair.
var pairModels = []dnn.ModelID{dnn.ResNet152, dnn.InceptionV3}

// trainMLP profiles operator groups of the pair and trains the paper's MLP:
// 400 samples per combination at co-location degrees 1 and 2, 200 epochs.
// The seed is fixed: the model is part of the program under test, not of the
// generated load, so --seed must not move it.
func trainMLP(cfg runCfg) (*predictor.Predictor, error) {
	sc := predictor.DefaultSamplerConfig()
	var samples []predictor.Sample
	for k := 1; k <= 2; k++ {
		samples = append(samples, predictor.Collect(pairModels, k, cfg.scaled(400, 20), sc)...)
	}
	tc := predictor.DefaultTrainConfig()
	tc.Epochs = cfg.scaled(200, 10)
	return predictor.Train(samples, predictor.NewCodec(), tc)
}

// subSeed derives an independent, non-negative stream seed from the run seed.
func subSeed(seed int64, salt uint64) int64 {
	return int64(workload.SubSeed(seed, salt) >> 1)
}

// unitsUntil runs unit repeatedly — at least min times, at most max — until
// budget is spent, stopping early when the next unit would overshoot the
// budget by more than half its own length.
func unitsUntil(budget time.Duration, min, max int, unit func(i int)) {
	start := time.Now()
	var last time.Duration
	for i := 0; i < max; i++ {
		if i >= min && time.Since(start)+last/2 > budget {
			return
		}
		t0 := time.Now()
		unit(i)
		last = time.Since(t0)
	}
}
