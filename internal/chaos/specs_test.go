package chaos

import (
	"runtime"
	"testing"
	"time"

	"abacus/internal/dnn"
	"abacus/internal/fleet"
	"abacus/internal/scaler"
	"abacus/internal/sim"
)

// TestRunSpecTableDiesWithRun: the spec table a run builds is scoped to
// that run. Once Run returns, nothing — not the report, not a package-level
// cache — keeps it reachable, so a finalizer on it fires after a GC.
func TestRunSpecTableDiesWithRun(t *testing.T) {
	freed := make(chan struct{})
	built := 0
	orig := newSpecs
	newSpecs = func() *dnn.Specs {
		built++
		s := fleet.NewSpecs()
		runtime.SetFinalizer(s, func(*dnn.Specs) { close(freed) })
		return s
	}
	rep, err := Run(Scenario{Name: "spec-lifetime", Nodes: 2, DurationMS: 1000, Seed: 1})
	newSpecs = orig
	if err != nil {
		t.Fatal(err)
	}
	if built != 1 {
		t.Fatalf("a two-node run built %d spec tables, want 1", built)
	}
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(rep)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the run's spec table is still reachable after Run returned")
}

// TestNodesShareRunSpecTable: every node a run builds, a scale-out node
// included, runs on the run's one table.
func TestNodesShareRunSpecTable(t *testing.T) {
	h := &harness{
		sc:    Scenario{Models: []dnn.ModelID{dnn.ResNet152, dnn.InceptionV3}},
		eng:   sim.NewEngine(),
		specs: fleet.NewSpecs(),
	}
	for id, phase := range []scaler.Phase{scaler.Active, scaler.Active, scaler.Warming} {
		if err := h.addNode(id, 0, phase); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range h.nodes {
		if n.RT.Executor().Specs() != h.specs {
			t.Errorf("node %d runs on its own spec table, not the run's", n.id)
		}
	}
}
