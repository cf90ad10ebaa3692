package serving

import (
	"bytes"
	"strings"
	"testing"

	"abacus/internal/dnn"
	"abacus/internal/gpusim"
	"abacus/internal/sched"
	"abacus/internal/sim"
	"abacus/internal/stats"
	"abacus/internal/trace"
)

// runPair executes a short serving run for a model pair under the policy.
func runPair(t *testing.T, policy PolicyKind, models []dnn.ModelID, qps, durationMS float64, seed int64) Result {
	t.Helper()
	gen := trace.NewGenerator(models, seed)
	return Run(RunConfig{
		Policy:   policy,
		Models:   models,
		Arrivals: gen.Poisson(qps, durationMS),
	})
}

func TestRunEmitsEveryQuery(t *testing.T) {
	models := []dnn.ModelID{dnn.ResNet50, dnn.InceptionV3}
	gen := trace.NewGenerator(models, 1)
	arrivals := gen.Poisson(40, 3000)
	for _, policy := range AllPolicies() {
		res := Run(RunConfig{Policy: policy, Models: models, Arrivals: arrivals})
		if len(res.Records) != len(arrivals) {
			t.Errorf("%v: emitted %d records for %d arrivals", policy, len(res.Records), len(arrivals))
		}
	}
}

// The arrival schedule rides in one queue slot (sim.Engine.ScheduleBatch),
// so the engine's event pool is sized by what is in flight at once, not by
// how many arrivals the run was handed up front.
func TestRunEventPoolIndependentOfArrivals(t *testing.T) {
	models := []dnn.ModelID{dnn.ResNet50, dnn.InceptionV3}
	arrivals := trace.NewGenerator(models, 3).Poisson(40, 250_000)
	if len(arrivals) < 9_000 {
		t.Fatalf("only %d arrivals generated", len(arrivals))
	}
	eng := sim.NewEngine()
	res := Run(RunConfig{
		Policy:   PolicyAbacus,
		Models:   models,
		Arrivals: arrivals,
		Device:   gpusim.New(eng, gpusim.A100Profile()),
	})
	if len(res.Records) != len(arrivals) {
		t.Fatalf("emitted %d records for %d arrivals", len(res.Records), len(arrivals))
	}
	if got := eng.AllocatedEvents(); got > 32 {
		t.Errorf("engine allocated %d events for %d arrivals, want a small constant", got, len(arrivals))
	}
}

func TestRunDeterministic(t *testing.T) {
	models := []dnn.ModelID{dnn.ResNet50, dnn.Bert}
	a := runPair(t, PolicyAbacus, models, 40, 2000, 7)
	b := runPair(t, PolicyAbacus, models, 40, 2000, 7)
	if len(a.Records) != len(b.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, a.Records[i], b.Records[i])
		}
	}
}

func TestSoloServiceMeetsQoSUnderLightLoad(t *testing.T) {
	models := []dnn.ModelID{dnn.ResNet50}
	for _, policy := range AllPolicies() {
		res := runPair(t, policy, models, 20, 3000, 2)
		if v := res.ViolationRatio(); v > 0.01 {
			t.Errorf("%v: violation ratio %.3f under light solo load", policy, v)
		}
	}
}

// TestAbacusBeatsBaselinesOnOverlapFriendlyPair is the headline end-to-end
// check (Figures 14/15): on (Res152, IncepV3) — the pair where sequential
// scheduling wastes the most GPU — Abacus must cut tail latency and QoS
// violations.
func TestAbacusBeatsBaselinesOnOverlapFriendlyPair(t *testing.T) {
	models := []dnn.ModelID{dnn.ResNet152, dnn.InceptionV3}
	const qps, dur = 50, 4000
	abacus := runPair(t, PolicyAbacus, models, qps, dur, 3)
	for _, base := range []PolicyKind{PolicyFCFS, PolicySJF, PolicyEDF} {
		b := runPair(t, base, models, qps, dur, 3)
		t.Logf("%-6v p99/QoS=%.3f viol=%.3f goodput=%.1f | Abacus p99/QoS=%.3f viol=%.3f goodput=%.1f",
			base, b.NormalizedTail(), b.ViolationRatio(), b.Goodput(),
			abacus.NormalizedTail(), abacus.ViolationRatio(), abacus.Goodput())
		if abacus.ViolationRatio() > b.ViolationRatio()+0.01 {
			t.Errorf("Abacus violation ratio %.3f worse than %v %.3f",
				abacus.ViolationRatio(), base, b.ViolationRatio())
		}
		if abacus.Goodput() < b.Goodput()*0.98 {
			t.Errorf("Abacus goodput %.1f below %v %.1f", abacus.Goodput(), base, b.Goodput())
		}
	}
	// The paper reports near-zero violations for Abacus; the residual here
	// comes from head-of-line arrivals whose headroom is consumed by an
	// in-flight group — single-digit percent is the right regime at this
	// load.
	if abacus.ViolationRatio() > 0.08 {
		t.Errorf("Abacus violation ratio %.3f; want single-digit percent", abacus.ViolationRatio())
	}
}

// TestAbacusThroughputGainAtSaturation reproduces the Figure 17 shape: at an
// offered load that saturates sequential execution, Abacus completes more
// queries within QoS.
func TestAbacusThroughputGainAtSaturation(t *testing.T) {
	models := []dnn.ModelID{dnn.ResNet50, dnn.ResNet152}
	const qps, dur = 100, 4000
	abacus := runPair(t, PolicyAbacus, models, qps, dur, 4)
	fcfs := runPair(t, PolicyFCFS, models, qps, dur, 4)
	t.Logf("goodput: Abacus=%.1f FCFS=%.1f", abacus.Goodput(), fcfs.Goodput())
	if abacus.Goodput() < fcfs.Goodput()*1.1 {
		t.Errorf("Abacus goodput %.1f not >=1.1x FCFS %.1f at saturation", abacus.Goodput(), fcfs.Goodput())
	}
}

func TestVGGPairNoCollapse(t *testing.T) {
	// On (VGG16, VGG19) there is no overlap headroom; Abacus may not win
	// but must not collapse (paper: "slightly degraded").
	models := []dnn.ModelID{dnn.VGG16, dnn.VGG19}
	abacus := runPair(t, PolicyAbacus, models, 50, 4000, 5)
	fcfs := runPair(t, PolicyFCFS, models, 50, 4000, 5)
	t.Logf("VGG pair goodput: Abacus=%.1f FCFS=%.1f", abacus.Goodput(), fcfs.Goodput())
	if abacus.Goodput() < fcfs.Goodput()*0.9 {
		t.Errorf("Abacus goodput %.1f collapsed vs FCFS %.1f on VGG pair", abacus.Goodput(), fcfs.Goodput())
	}
}

func TestQuadrupletDeployment(t *testing.T) {
	models := []dnn.ModelID{dnn.ResNet101, dnn.ResNet152, dnn.VGG19, dnn.Bert}
	res := runPair(t, PolicyAbacus, models, 40, 3000, 6)
	if len(res.Records) == 0 {
		t.Fatal("no records")
	}
	if v := res.ViolationRatio(); v > 0.15 {
		t.Errorf("quad deployment violation ratio %.3f too high", v)
	}
}

func TestDropAccounting(t *testing.T) {
	// Saturate hard so baselines must drop; dropped queries count as
	// violations but not as completions.
	models := []dnn.ModelID{dnn.VGG16, dnn.VGG19}
	res := runPair(t, PolicyFCFS, models, 200, 2000, 8)
	drops := 0
	for _, rec := range res.Records {
		if rec.Dropped {
			drops++
			if !rec.Violated {
				t.Fatal("dropped query not counted as violation")
			}
			if rec.Latency != 0 {
				t.Fatal("dropped query has a latency")
			}
		}
	}
	if drops == 0 {
		t.Error("expected drops under 4x overload")
	}
	if res.Completed()+drops != len(res.Records) {
		t.Error("completed + dropped != total")
	}
}

func TestMetricsHelpers(t *testing.T) {
	res := Result{
		Services: []*sched.Service{{ID: 0, QoS: 10}},
		Records: []Record{
			{Service: 0, Latency: 5, QoS: 10},
			{Service: 0, Latency: 12, QoS: 10, Violated: true},
			{Service: 0, Dropped: true, Violated: true, QoS: 10},
		},
		DurationMS: 1000,
	}
	if got := res.ViolationRatio(); got != 2.0/3 {
		t.Errorf("ViolationRatio = %v, want 2/3", got)
	}
	if got := res.Goodput(); got != 1 {
		t.Errorf("Goodput = %v, want 1", got)
	}
	if got := res.DropRatio(); got != 1.0/3 {
		t.Errorf("DropRatio = %v, want 1/3", got)
	}
	if got := res.Completed(); got != 2 {
		t.Errorf("Completed = %v, want 2", got)
	}
	if got := len(res.Latencies(0)); got != 2 {
		t.Errorf("Latencies count = %d, want 2", got)
	}
	if got := res.TailLatency(-1, 100); got != 12 {
		t.Errorf("TailLatency max = %v, want 12", got)
	}
}

func TestPolicyString(t *testing.T) {
	want := []string{"FCFS", "SJF", "EDF", "Abacus"}
	for i, p := range AllPolicies() {
		if p.String() != want[i] {
			t.Errorf("policy %d = %q, want %q", i, p.String(), want[i])
		}
	}
}

func TestMPSPolicyRunsUnmanaged(t *testing.T) {
	models := []dnn.ModelID{dnn.ResNet152, dnn.VGG16}
	res := runPair(t, PolicyMPS, models, 60, 3000, 12)
	if res.Groups != 0 {
		t.Errorf("MPS executed %d groups; the unmanaged baseline bypasses the executor", res.Groups)
	}
	if res.DropRatio() != 0 {
		t.Errorf("MPS dropped %.3f of queries; it has no drop mechanism", res.DropRatio())
	}
	if res.Completed() != len(res.Records) {
		t.Error("MPS must complete every query")
	}
}

func TestMPSLatencySpreadExceedsAbacus(t *testing.T) {
	// The motivation (Figure 3): free overlap produces a wider latency
	// distribution than deterministic operator groups under the same load.
	models := []dnn.ModelID{dnn.ResNet152, dnn.InceptionV3}
	gen := trace.NewGenerator(models, 13)
	arrivals := gen.Poisson(60, 4000)
	mps := Run(RunConfig{Policy: PolicyMPS, Models: models, Arrivals: arrivals})
	abacus := Run(RunConfig{Policy: PolicyAbacus, Models: models, Arrivals: arrivals})
	spread := func(r Result) float64 {
		lats := r.Latencies(0) // Res152 queries
		if len(lats) < 10 {
			t.Fatal("too few completions")
		}
		return stats.Percentile(lats, 99) / stats.Percentile(lats, 50)
	}
	ms, as := spread(mps), spread(abacus)
	t.Logf("p99/p50 spread: MPS=%.2f Abacus=%.2f", ms, as)
	if ms <= as {
		t.Errorf("MPS spread %.2f should exceed Abacus %.2f", ms, as)
	}
}

func TestWriteCSV(t *testing.T) {
	res := runPair(t, PolicyFCFS, []dnn.ModelID{dnn.ResNet50, dnn.Bert}, 30, 2000, 14)
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(res.Records)+1 {
		t.Fatalf("CSV has %d lines for %d records", len(lines), len(res.Records))
	}
	if !strings.HasPrefix(lines[0], "service,model,batch") {
		t.Errorf("header = %q", lines[0])
	}
	for _, line := range lines[1:] {
		if got := strings.Count(line, ","); got != 9 {
			t.Fatalf("row %q has %d commas, want 9", line, got)
		}
	}
}

func TestCustomServicesOverride(t *testing.T) {
	models := []dnn.ModelID{dnn.ResNet50}
	services := []*sched.Service{{ID: 0, Model: dnn.ResNet50, QoS: 9999}}
	gen := trace.NewGenerator(models, 15)
	res := Run(RunConfig{
		Policy:   PolicyFCFS,
		Models:   models,
		Arrivals: gen.Poisson(30, 2000),
		Services: services,
	})
	for _, rec := range res.Records {
		if rec.QoS != 9999 {
			t.Fatalf("record QoS %v, want the override 9999", rec.QoS)
		}
		if rec.Violated {
			t.Fatal("nothing can violate a 10-second QoS here")
		}
	}
}

func TestSJFPaysPredictionOverhead(t *testing.T) {
	// §7.2: SJF must order by predicted durations before dispatch and
	// cannot hide that cost. With an exaggerated PredictCost, its
	// latencies visibly exceed FCFS's on a single-service queue (identical
	// ordering otherwise).
	models := []dnn.ModelID{dnn.ResNet50}
	gen := trace.NewGenerator(models, 16)
	arrivals := gen.Poisson(40, 3000)
	cfg := sched.DefaultConfig()
	cfg.PredictCost = 2.0
	sjf := Run(RunConfig{Policy: PolicySJF, Models: models, Arrivals: arrivals, Sched: cfg})
	fcfs := Run(RunConfig{Policy: PolicyFCFS, Models: models, Arrivals: arrivals, Sched: cfg})
	ms, mf := stats.Mean(sjf.Latencies(-1)), stats.Mean(fcfs.Latencies(-1))
	if ms <= mf {
		t.Errorf("SJF mean latency %.2f <= FCFS %.2f despite 2 ms prediction cost", ms, mf)
	}
}

func TestKernelLevelPolicyCompletesButSlowly(t *testing.T) {
	// §5.1: kernel-granularity scheduling with a prediction per operator
	// forfeits overlap and pays heavy scheduling overhead. It must still
	// complete work correctly — just with far lower goodput than Abacus.
	models := []dnn.ModelID{dnn.ResNet152, dnn.InceptionV3}
	gen := trace.NewGenerator(models, 17)
	arrivals := gen.Poisson(50, 3000)
	kl := Run(RunConfig{Policy: PolicyKernelLevel, Models: models, Arrivals: arrivals})
	ab := Run(RunConfig{Policy: PolicyAbacus, Models: models, Arrivals: arrivals})
	if len(kl.Records) != len(arrivals) {
		t.Fatalf("kernel-level emitted %d of %d", len(kl.Records), len(arrivals))
	}
	for _, rec := range kl.Records {
		if !rec.Dropped && rec.Latency <= 0 {
			t.Fatal("completed query without latency")
		}
	}
	t.Logf("goodput: kernel-level=%.1f abacus=%.1f", kl.Goodput(), ab.Goodput())
	if kl.Goodput() >= ab.Goodput() {
		t.Errorf("kernel-level goodput %.1f should trail Abacus %.1f", kl.Goodput(), ab.Goodput())
	}
	// Per-operator prediction cost dominates: groups = operators executed.
	if kl.Groups <= ab.Groups {
		t.Errorf("kernel-level executed %d groups, Abacus %d; expected far more single-op groups", kl.Groups, ab.Groups)
	}
}

func TestPeakQPSAbacusExceedsFCFS(t *testing.T) {
	if testing.Short() {
		t.Skip("bisection runs several serving probes")
	}
	models := []dnn.ModelID{dnn.ResNet50, dnn.ResNet152}
	search := func(p PolicyKind) float64 {
		qps, res := PeakQPS(CapacityConfig{
			Policy: p, Models: models, DurationMS: 3000, Seed: 21,
			LoQPS: 10, HiQPS: 300, ToleranceQPS: 8,
		})
		if res.ViolationRatio() > 0.05 {
			t.Fatalf("%v: returned load %v violates (%.3f)", p, qps, res.ViolationRatio())
		}
		return qps
	}
	fcfs, abacus := search(PolicyFCFS), search(PolicyAbacus)
	t.Logf("capacity: FCFS=%.1f Abacus=%.1f", fcfs, abacus)
	if abacus < fcfs*1.1 {
		t.Errorf("Abacus capacity %.1f not >=1.1x FCFS %.1f", abacus, fcfs)
	}
}

func TestPeakQPSBracketFloor(t *testing.T) {
	// A bracket whose floor already violates must return the floor rather
	// than search below it.
	models := []dnn.ModelID{dnn.VGG19}
	qps, res := PeakQPS(CapacityConfig{
		Policy: PolicyFCFS, Models: models, DurationMS: 2000, Seed: 22,
		LoQPS: 350, HiQPS: 400, ToleranceQPS: 10,
	})
	if qps != 350 {
		t.Errorf("floor-violating bracket returned %v, want the floor 350", qps)
	}
	if res.ViolationRatio() <= 0.05 {
		t.Errorf("expected the floor to violate, got %.3f", res.ViolationRatio())
	}
}

func TestPerServiceSummaries(t *testing.T) {
	models := []dnn.ModelID{dnn.ResNet50, dnn.InceptionV3}
	res := runPair(t, PolicyAbacus, models, 60, 3000, 7)
	sums := res.PerService()
	if len(sums) != len(models) {
		t.Fatalf("got %d summaries, want %d", len(sums), len(models))
	}
	totalQ, totalDone := 0, 0
	for i, s := range sums {
		if s.Service != i || s.Model != models[i] {
			t.Errorf("summary %d identifies (%d, %v)", i, s.Service, s.Model)
		}
		if s.QoS <= 0 {
			t.Errorf("service %d QoS = %v", i, s.QoS)
		}
		if s.Completed+s.Dropped != s.Queries {
			t.Errorf("service %d: completed %d + dropped %d != queries %d",
				i, s.Completed, s.Dropped, s.Queries)
		}
		if s.Completed > 0 {
			if s.P50 <= 0 || s.P99 < s.P50 {
				t.Errorf("service %d percentiles p50=%v p99=%v", i, s.P50, s.P99)
			}
			if got, want := s.P99, res.TailLatency(i, 99); got != want {
				t.Errorf("service %d p99 = %v, want %v", i, got, want)
			}
		}
		totalQ += s.Queries
		totalDone += s.Completed
	}
	if totalQ != len(res.Records) {
		t.Errorf("summaries cover %d queries, records hold %d", totalQ, len(res.Records))
	}
	if totalDone != res.Completed() {
		t.Errorf("summaries count %d completed, result reports %d", totalDone, res.Completed())
	}
}
