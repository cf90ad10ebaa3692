package cluster

import (
	"bytes"
	"strings"
	"testing"

	"abacus/internal/dnn"
	"abacus/internal/gpusim"
	"abacus/internal/sched"
	"abacus/internal/sim"
	"abacus/internal/trace"
)

func quadModels() []dnn.ModelID {
	return []dnn.ModelID{dnn.ResNet101, dnn.ResNet152, dnn.VGG19, dnn.Bert}
}

func smallCluster(t *testing.T, policy Policy, qps float64, seed int64) Result {
	t.Helper()
	gen := trace.NewGenerator(quadModels(), seed)
	arrivals := gen.Poisson(qps, 5000)
	return Run(Config{
		Policy:      policy,
		Nodes:       2,
		GPUsPerNode: 1,
		Models:      quadModels(),
		QoS:         100,
		Arrivals:    arrivals,
		BucketMS:    1000,
	})
}

func TestClusterEmitsEveryQuery(t *testing.T) {
	for _, p := range []Policy{KubeAbacus, Clockwork} {
		res := smallCluster(t, p, 60, 1)
		if res.Total != res.Completed+res.Dropped {
			t.Errorf("%v: total %d != completed %d + dropped %d", p, res.Total, res.Completed, res.Dropped)
		}
		if res.Total == 0 {
			t.Errorf("%v: no queries processed", p)
		}
	}
}

func TestClusterDeterministic(t *testing.T) {
	a := smallCluster(t, KubeAbacus, 60, 2)
	b := smallCluster(t, KubeAbacus, 60, 2)
	if a.Completed != b.Completed || a.AvgLatency != b.AvgLatency || a.P99Latency != b.P99Latency {
		t.Errorf("non-deterministic cluster run: %+v vs %+v", a, b)
	}
}

// TestAbacusClusterBeatsClockwork reproduces the Figure 22 relationship: at
// a load that pressures Clockwork's sequential GPUs, node-level Abacus
// completes more queries (higher throughput), both keep p99 under QoS-ish,
// and Abacus trades a slightly higher average latency for throughput.
func TestAbacusClusterBeatsClockwork(t *testing.T) {
	const qps = 150
	abacus := smallCluster(t, KubeAbacus, qps, 3)
	clock := smallCluster(t, Clockwork, qps, 3)
	t.Logf("Abacus:    completed=%d dropped=%d avg=%.1f p99=%.1f", abacus.Completed, abacus.Dropped, abacus.AvgLatency, abacus.P99Latency)
	t.Logf("Clockwork: completed=%d dropped=%d avg=%.1f p99=%.1f", clock.Completed, clock.Dropped, clock.AvgLatency, clock.P99Latency)
	if abacus.Completed <= clock.Completed {
		t.Errorf("Abacus completed %d <= Clockwork %d", abacus.Completed, clock.Completed)
	}
	if abacus.Dropped >= clock.Dropped && clock.Dropped > 0 {
		t.Errorf("Abacus dropped %d >= Clockwork %d; paper: Abacus drops far fewer", abacus.Dropped, clock.Dropped)
	}
	if abacus.P99Latency > 150 {
		t.Errorf("Abacus p99 %.1f way past the 100ms QoS", abacus.P99Latency)
	}
}

func TestClockworkPaysSwapCost(t *testing.T) {
	// A single GPU alternating between two models must be slower under
	// Clockwork than repeating one model, because of weight swaps.
	gen := trace.NewGenerator([]dnn.ModelID{dnn.ResNet101, dnn.VGG19}, 4)
	alternating := gen.Poisson(40, 3000)
	resAlt := Run(Config{
		Policy: Clockwork, Nodes: 1, GPUsPerNode: 1,
		Models: []dnn.ModelID{dnn.ResNet101, dnn.VGG19},
		QoS:    100, Arrivals: alternating, BucketMS: 1000,
	})
	// Same arrival times, all to service 0.
	single := make([]trace.Arrival, len(alternating))
	copy(single, alternating)
	for i := range single {
		single[i].Service = 0
		single[i].Input.SeqLen = 0
	}
	resSingle := Run(Config{
		Policy: Clockwork, Nodes: 1, GPUsPerNode: 1,
		Models: []dnn.ModelID{dnn.ResNet101, dnn.VGG19},
		QoS:    100, Arrivals: single, BucketMS: 1000,
	})
	if resAlt.AvgLatency <= resSingle.AvgLatency {
		t.Errorf("alternating avg %.2f <= single-model avg %.2f; swap cost missing",
			resAlt.AvgLatency, resSingle.AvgLatency)
	}
}

func TestTimelineBuckets(t *testing.T) {
	res := smallCluster(t, KubeAbacus, 60, 5)
	if len(res.Timeline) < 5 {
		t.Fatalf("timeline has %d buckets, want >= 5 for a 5s trace at 1s buckets", len(res.Timeline))
	}
	var offered, tput float64
	for _, pt := range res.Timeline {
		offered += pt.OfferedQPS
		tput += pt.Throughput
	}
	if offered <= 0 || tput <= 0 {
		t.Errorf("empty timeline: offered=%v tput=%v", offered, tput)
	}
}

func TestMAFTraceDrives(t *testing.T) {
	gen := trace.NewGenerator(quadModels(), 6)
	arrivals := gen.MAF(trace.DefaultMAFConfig(80, 3*60_000, 6))
	res := Run(Config{
		Policy: KubeAbacus, Nodes: 2, GPUsPerNode: 2,
		Models: quadModels(), QoS: 100, Arrivals: arrivals,
	})
	if res.Completed == 0 {
		t.Fatal("MAF trace produced no completions")
	}
	if ratio := float64(res.Violations) / float64(res.Total); ratio > 0.1 {
		t.Errorf("violation ratio %.3f on a 4-GPU cluster at moderate load", ratio)
	}
}

func TestRunPanics(t *testing.T) {
	for name, cfg := range map[string]Config{
		"no-nodes":  {Policy: KubeAbacus, GPUsPerNode: 1, Models: quadModels(), QoS: 100},
		"no-models": {Policy: KubeAbacus, Nodes: 1, GPUsPerNode: 1, QoS: 100},
		"no-qos":    {Policy: KubeAbacus, Nodes: 1, GPUsPerNode: 1, Models: quadModels()},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("did not panic")
				}
			}()
			Run(cfg)
		})
	}
}

func TestPolicyString(t *testing.T) {
	if KubeAbacus.String() != "Abacus" || Clockwork.String() != "Clockwork" {
		t.Error("policy names wrong")
	}
}

func TestEnergyAccountingInResult(t *testing.T) {
	res := smallCluster(t, KubeAbacus, 60, 9)
	if res.EnergyJoules <= 0 {
		t.Fatalf("EnergyJoules = %v", res.EnergyJoules)
	}
	if res.JoulesPerQuery() <= 0 {
		t.Fatalf("JoulesPerQuery = %v", res.JoulesPerQuery())
	}
	// Two idle-floored GPUs for ~5s must consume at least the idle floor.
	if res.EnergyJoules < 2*80*4 {
		t.Errorf("energy %v below a plausible idle floor", res.EnergyJoules)
	}
}

func TestWriteTimelineCSV(t *testing.T) {
	res := smallCluster(t, Clockwork, 60, 10)
	var buf bytes.Buffer
	if err := res.WriteTimelineCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(res.Timeline)+1 {
		t.Fatalf("CSV has %d lines for %d buckets", len(lines), len(res.Timeline))
	}
}

func TestClockworkPrefersLoadedModel(t *testing.T) {
	eng := sim.NewEngine()
	var emitted []*sched.Query
	devices := []*gpusim.Device{gpusim.New(eng, gpusim.A100Profile()), gpusim.New(eng, gpusim.A100Profile())}
	ctrl := newClockworkController(devices, nil, func(node int) sched.Sink {
		return func(q *sched.Query) { emitted = append(emitted, q) }
	})
	svcA := &sched.Service{ID: 0, Model: dnn.ResNet50, QoS: 1000}
	svcB := &sched.Service{ID: 1, Model: dnn.VGG16, QoS: 1000}
	submit := func(id int64, svc *sched.Service, at sim.Time) {
		q := &sched.Query{ID: id, Service: svc, Input: dnn.Input{Batch: 8}, Arrival: at}
		eng.ScheduleAt(at, func() { ctrl.submit(q) })
	}
	submit(1, svcA, 0)
	submit(2, svcB, 0)
	eng.Run()
	// Both GPUs now hold one model each.
	gpuOfA, gpuOfB := -1, -1
	for i, g := range ctrl.gpus {
		if g.loaded && g.active == dnn.ResNet50 {
			gpuOfA = i
		}
		if g.loaded && g.active == dnn.VGG16 {
			gpuOfB = i
		}
	}
	if gpuOfA < 0 || gpuOfB < 0 || gpuOfA == gpuOfB {
		t.Fatalf("models not spread across GPUs: A=%d B=%d", gpuOfA, gpuOfB)
	}
	// A second ResNet query must land on the GPU that already holds it
	// (no swap), leaving VGG16 active on the other.
	submit(3, svcA, eng.Now()+1)
	eng.Run()
	if ctrl.gpus[gpuOfB].active != dnn.VGG16 {
		t.Errorf("controller swapped the VGG GPU instead of reusing the ResNet GPU")
	}
	if len(emitted) != 3 {
		t.Errorf("emitted %d queries, want 3", len(emitted))
	}
}

func TestClockworkDropsUnmeetableDeadline(t *testing.T) {
	eng := sim.NewEngine()
	var emitted []*sched.Query
	ctrl := newClockworkController([]*gpusim.Device{gpusim.New(eng, gpusim.A100Profile())}, nil, func(node int) sched.Sink {
		return func(q *sched.Query) { emitted = append(emitted, q) }
	})
	// QoS far below even the solo execution time → admission control drops.
	svc := &sched.Service{ID: 0, Model: dnn.ResNet152, QoS: 0.5}
	q := &sched.Query{ID: 1, Service: svc, Input: dnn.Input{Batch: 32}, Arrival: 0}
	ctrl.submit(q)
	eng.Run()
	if len(emitted) != 1 || !emitted[0].Dropped {
		t.Fatalf("unmeetable query not dropped: %+v", emitted)
	}
}
