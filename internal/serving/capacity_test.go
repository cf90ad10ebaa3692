package serving

import (
	"reflect"
	"testing"

	"abacus/internal/dnn"
	"abacus/internal/runner"
)

// capacityBase is a fast search bracket shared by the capacity tests.
func capacityBase() CapacityConfig {
	return CapacityConfig{
		Policy:       PolicyFCFS,
		Models:       []dnn.ModelID{dnn.ResNet50, dnn.InceptionV3},
		DurationMS:   1500,
		LoQPS:        5,
		HiQPS:        120,
		ToleranceQPS: 10,
		Seed:         3,
	}
}

// TestPeakQPSParallelDeterminism asserts the capacity search's probe
// sequence is fixed by seed and bracket — worker width must not change the
// answer or the measured run.
func TestPeakQPSParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("capacity probes are slow; skipped in -short")
	}
	prev := runner.DefaultParallel()
	t.Cleanup(func() { runner.SetDefaultParallel(prev) })
	cfg := capacityBase()
	runner.SetDefaultParallel(1)
	qps1, res1 := PeakQPS(cfg)
	runner.SetDefaultParallel(8)
	qps8, res8 := PeakQPS(cfg)
	if qps1 != qps8 {
		t.Fatalf("capacity differs by worker width: %v vs %v", qps1, qps8)
	}
	if !reflect.DeepEqual(res1.Records, res8.Records) {
		t.Fatal("measured run differs by worker width")
	}
}
