package core

import (
	"testing"

	"abacus/internal/dnn"
	"abacus/internal/gpusim"
	"abacus/internal/predictor"
	"abacus/internal/sched"
	"abacus/internal/sim"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	rt, err := New(Config{Models: []dnn.ModelID{dnn.ResNet50}})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Engine() == nil || rt.Device() == nil || rt.Executor() == nil || rt.Controller() == nil {
		t.Error("runtime components missing")
	}
	if len(rt.Services()) != 1 {
		t.Errorf("services = %d, want 1", len(rt.Services()))
	}
}

func TestSubmitAndDrain(t *testing.T) {
	var results []*sched.Query
	rt, err := New(Config{
		Models:   []dnn.ModelID{dnn.ResNet50, dnn.Bert},
		OnResult: func(q *sched.Query) { results = append(results, q) },
	})
	if err != nil {
		t.Fatal(err)
	}
	q1 := rt.Submit(0, dnn.Input{Batch: 8}, 0)
	q2 := rt.Submit(1, dnn.Input{Batch: 8, SeqLen: 32}, 1)
	rt.Engine().Run()
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	for _, q := range []*sched.Query{q1, q2} {
		if q.Dropped {
			t.Errorf("query %d dropped on an idle device", q.ID)
		}
		if q.Finish <= q.Arrival {
			t.Errorf("query %d finish %v <= arrival %v", q.ID, q.Finish, q.Arrival)
		}
	}
}

func TestSubmitUnknownServicePanics(t *testing.T) {
	rt, err := New(Config{Models: []dnn.ModelID{dnn.ResNet50}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("did not panic")
		}
	}()
	rt.Submit(3, dnn.Input{Batch: 8}, 0)
}

func TestRuntimeOnPartitionedDevice(t *testing.T) {
	eng := sim.NewEngine()
	full := gpusim.New(eng, gpusim.A100Profile())
	part := full.Partition(0.5, 0.5)
	var done int
	rt, err := New(Config{
		Models:   []dnn.ModelID{dnn.ResNet50},
		Device:   part,
		OnResult: func(q *sched.Query) { done++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Engine() != eng {
		t.Error("runtime did not adopt the partition's engine")
	}
	rt.Submit(0, dnn.Input{Batch: 16}, 0)
	rt.Engine().Run()
	if done != 1 {
		t.Errorf("done = %d", done)
	}

	// A deadline midway between the query's latency on the full device and
	// on the half partition: an oracle of the full device issues the query
	// and misses the deadline, the partition's own oracle drops it.
	in := dnn.Input{Batch: 32}
	g := predictor.Group{{Model: dnn.ResNet50, OpEnd: dnn.Get(dnn.ResNet50).NumOps(), Batch: in.Batch}}
	fullMS, partMS := predictor.ForDevice(full, nil).Predict(g), predictor.ForDevice(part, nil).Predict(g)
	slo := dnn.TransferTime(dnn.Get(dnn.ResNet50), in, part.Profile()) + (fullMS+partMS)/2
	q := rt.SubmitSLO(0, in, rt.Engine().Now(), slo)
	rt.Engine().Run()
	if !q.Dropped {
		t.Errorf("query issued on the partition (latency %.2f ms, %d segments, deadline %.2f ms): predicted for the full device", q.Latency(), q.Segments(), slo)
	}
}

func TestRunUntilAdvancesIncrementally(t *testing.T) {
	var results int
	rt, err := New(Config{
		Models:   []dnn.ModelID{dnn.ResNet50},
		OnResult: func(*sched.Query) { results++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Submit(0, dnn.Input{Batch: 4}, 0)
	rt.Submit(0, dnn.Input{Batch: 4}, 100)
	rt.Engine().RunUntil(50)
	if results != 1 {
		t.Errorf("results at t=50: %d, want 1", results)
	}
	rt.Engine().RunUntil(300)
	if results != 2 {
		t.Errorf("results at t=300: %d, want 2", results)
	}
}

func TestNewRejectsDuplicateModels(t *testing.T) {
	if _, err := New(Config{Models: []dnn.ModelID{dnn.Bert, dnn.Bert}}); err == nil {
		t.Error("duplicate model deployment accepted")
	}
}

func TestSubmitSLOOverridesDeadline(t *testing.T) {
	rt, err := New(Config{Models: []dnn.ModelID{dnn.ResNet50}})
	if err != nil {
		t.Fatal(err)
	}
	svcQoS := rt.Services()[0].QoS
	q := rt.SubmitSLO(0, dnn.Input{Batch: 4}, 10, 3*svcQoS)
	if got, want := q.Deadline(), 10+3*svcQoS; got != want {
		t.Errorf("SLO deadline = %v, want %v", got, want)
	}
	plain := rt.Submit(0, dnn.Input{Batch: 4}, 10)
	if got, want := plain.Deadline(), 10+svcQoS; got != want {
		t.Errorf("default deadline = %v, want %v", got, want)
	}
	rt.Engine().Run()
	if q.Dropped || plain.Dropped {
		t.Error("idle-device queries dropped")
	}
}
