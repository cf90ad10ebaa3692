package admit

import (
	"testing"

	"abacus/internal/dnn"
	"abacus/internal/gpusim"
	"abacus/internal/predictor"
	"abacus/internal/sched"
)

func testAdmitter(t *testing.T, queueCap int, degrade *Degrade) (*Admitter, []*sched.Service) {
	t.Helper()
	profile := gpusim.A100Profile()
	models := []dnn.ModelID{dnn.ResNet152, dnn.InceptionV3}
	services := sched.Services(models, 2, profile)
	model := predictor.Oracle{Profile: profile}
	return New(model, profile, services, queueCap, 0.02, degrade), services
}

// countingModel counts inner predictions so cache generations are visible.
type countingModel struct {
	inner predictor.LatencyModel
	calls int
}

func (m *countingModel) Predict(g predictor.Group) float64 {
	m.calls++
	return m.inner.Predict(g)
}

func (m *countingModel) PredictBatch(gs []predictor.Group) []float64 {
	out := make([]float64, len(gs))
	for i, g := range gs {
		out[i] = m.Predict(g)
	}
	return out
}

// TestInvalidateServiceKeepsOtherServices pins the per-service solo-cache
// generation: a calibration refit for one service must not evict the
// memoized solo predictions of its neighbours.
func TestInvalidateServiceKeepsOtherServices(t *testing.T) {
	profile := gpusim.A100Profile()
	models := []dnn.ModelID{dnn.ResNet152, dnn.InceptionV3}
	services := sched.Services(models, 2, profile)
	cm := &countingModel{inner: predictor.Oracle{Profile: profile}}
	a := New(cm, profile, services, 4, 0.02, nil)

	in := dnn.Input{Batch: 8}
	v0, v1 := a.SoloPred(0, in), a.SoloPred(1, in)
	if a.SoloPred(0, in) != v0 || a.SoloPred(1, in) != v1 || cm.calls != 2 {
		t.Fatalf("warmup not cached: %d calls", cm.calls)
	}

	a.InvalidateService(1)
	if a.SoloPred(0, in) != v0 || cm.calls != 2 {
		t.Fatalf("invalidating service 1 evicted service 0: %d calls", cm.calls)
	}
	if a.SoloPred(1, in) != v1 || cm.calls != 3 {
		t.Fatalf("service 1 not recomputed after its invalidation: %d calls", cm.calls)
	}

	a.InvalidateCache()
	a.SoloPred(0, in)
	a.SoloPred(1, in)
	if cm.calls != 5 {
		t.Fatalf("full invalidation left stale entries: %d calls", cm.calls)
	}
}

func TestDecideAdmitsWithinSLO(t *testing.T) {
	a, svcs := testAdmitter(t, 4, nil)
	in := dnn.Input{Batch: 8}
	d := a.Decide(0, 0, in, 0)
	if !d.OK {
		t.Fatalf("empty-backlog query rejected: %+v", d)
	}
	if d.PredMS != d.AdjustedMS {
		t.Errorf("healthy margin must not adjust: pred %v adj %v", d.PredMS, d.AdjustedMS)
	}
	if d.PredMS <= 0 || d.PredMS > svcs[0].QoS {
		t.Errorf("pred %v outside (0, qos=%v]", d.PredMS, svcs[0].QoS)
	}
}

func TestDecideRejectsOnBacklogAndQueueCap(t *testing.T) {
	a, svcs := testAdmitter(t, 3, nil)
	in := dnn.Input{Batch: 32}
	solo := a.SoloPred(0, in)
	// Pile up predicted work until the sequential bound exceeds QoS.
	admitted := 0
	for {
		d := a.Decide(0, 0, in, 0)
		if !d.OK {
			switch d.Reason {
			case ReasonDeadline:
				if a.BacklogMS()+solo <= svcs[0].QoS {
					t.Fatalf("deadline rejection with feasible backlog: %+v", d)
				}
			case ReasonQueueFull:
				if a.Outstanding() < 3 {
					t.Fatalf("queue_full below cap: outstanding %d", a.Outstanding())
				}
			default:
				t.Fatalf("unexpected reason %q", d.Reason)
			}
			if d.RetryMS <= 0 {
				t.Errorf("rejection carries no retry hint: %+v", d)
			}
			break
		}
		a.Admitted(0, d.WorkMS)
		admitted++
		if admitted > 100 {
			t.Fatal("never rejected")
		}
	}
	// Releasing the backlog restores admission.
	for i := 0; i < admitted; i++ {
		a.Finish(0, solo)
	}
	if d := a.Decide(0, 0, in, 0); !d.OK {
		t.Fatalf("rejected after full release: %+v", d)
	}
}

func TestDegradeEntersWidensAndExitsWithHysteresis(t *testing.T) {
	g := NewDegrade(DegradeConfig{Alpha: 0.5, EnterRatio: 1.3, ExitRatio: 1.1, MinSamples: 3}, 2)
	for i := 0; i < 3; i++ {
		g.Observe(0, 10, 20) // sustained 2× divergence
	}
	if !g.Active(0) {
		t.Fatalf("not degraded after sustained 2× divergence: %+v", g.Snapshot())
	}
	if m := g.Margin(0); m <= 1.5 {
		t.Errorf("margin %v too narrow for 2× divergence", m)
	}
	// Ratios inside the hysteresis band must not exit.
	g.Observe(0, 10, 12)
	st := g.Snapshot()
	if !st.Active && st.Divergence > 1.1 {
		t.Errorf("exited inside hysteresis band: %+v", st)
	}
	// Healthy observations drive it out.
	for i := 0; i < 10; i++ {
		g.Observe(0, 10, 9)
	}
	if g.Active(0) {
		t.Fatalf("still degraded after sustained recovery: %+v", g.Snapshot())
	}
	if n := g.Snapshot().Transitions; n != 2 {
		t.Errorf("transitions = %d, want 2 (enter + exit)", n)
	}
	if m := g.Margin(0); m != 1 {
		t.Errorf("healthy margin = %v, want 1", m)
	}
}

func TestDegradeIsolatesServices(t *testing.T) {
	g := NewDegrade(DegradeConfig{Alpha: 1, EnterRatio: 1.3, ExitRatio: 1.1, MinSamples: 1}, 3)
	// Only service 1 diverges; its neighbours report healthy completions.
	for i := 0; i < 10; i++ {
		g.Observe(0, 10, 10)
		g.Observe(1, 10, 25)
		g.Observe(2, 10, 9)
	}
	if g.Active(0) || g.Active(2) {
		t.Fatalf("healthy services degraded: %+v", g.ServiceSnapshots())
	}
	if !g.Active(1) {
		t.Fatalf("drifting service not degraded: %+v", g.ServiceSnapshots())
	}
	if m := g.Margin(0); m != 1 {
		t.Errorf("healthy service margin = %v, want 1", m)
	}
	if m := g.Margin(1); m <= 1 {
		t.Errorf("drifting service margin = %v, want > 1", m)
	}
	if !g.AnyActive() {
		t.Error("AnyActive() = false with service 1 degraded")
	}
	svcs := g.ServiceSnapshots()
	if len(svcs) != 3 {
		t.Fatalf("ServiceSnapshots len = %d, want 3", len(svcs))
	}
	for i, s := range svcs {
		if s.Samples != 10 {
			t.Errorf("service %d samples = %d, want 10", i, s.Samples)
		}
	}
	// The aggregate reports the widest margin and divergence in force.
	agg := g.Snapshot()
	if !agg.Active || agg.Margin != g.Margin(1) || agg.Divergence != svcs[1].Divergence {
		t.Errorf("aggregate does not track the drifting service: %+v", agg)
	}
	if agg.Samples != 30 {
		t.Errorf("aggregate samples = %d, want 30", agg.Samples)
	}
}

// Satellite: a divergence pinned exactly at the enter/exit thresholds must
// not oscillate between states on alternating samples. With Alpha 1 the
// EWMA is the last ratio, so feeding the threshold ratio repeatedly holds
// the EWMA exactly at the boundary — the regression this guards against
// entered on every odd sample and exited on every even one.
func TestDegradeHysteresisEdgeDoesNotOscillate(t *testing.T) {
	// Degenerate band: enter and exit collapse to the same threshold, which
	// validation allows (ExitRatio == EnterRatio).
	g := NewDegrade(DegradeConfig{Alpha: 1, EnterRatio: 1.3, ExitRatio: 1.3, MinSamples: 1}, 1)
	for i := 0; i < 20; i++ {
		g.Observe(0, 10, 13) // ratio exactly at the threshold
	}
	st := g.Snapshot()
	if !st.Active {
		t.Fatalf("ratio at EnterRatio must engage degraded mode: %+v", st)
	}
	if st.Transitions != 1 {
		t.Fatalf("transitions = %d on a pinned boundary ratio, want 1 (no oscillation)", st.Transitions)
	}

	// A proper band behaves the same when the EWMA sits exactly on the exit
	// threshold: strictly below is required to leave.
	g2 := NewDegrade(DegradeConfig{Alpha: 1, EnterRatio: 1.3, ExitRatio: 1.1, MinSamples: 1}, 1)
	g2.Observe(0, 10, 13)
	for i := 0; i < 20; i++ {
		g2.Observe(0, 10, 11) // ratio exactly at ExitRatio
	}
	st2 := g2.Snapshot()
	if !st2.Active || st2.Transitions != 1 {
		t.Fatalf("ratio at ExitRatio must hold degraded mode: %+v", st2)
	}
	g2.Observe(0, 10, 10.9) // strictly below: now it exits
	if g2.Active(0) || g2.Snapshot().Transitions != 2 {
		t.Fatalf("ratio below ExitRatio must exit: %+v", g2.Snapshot())
	}
}

func TestDegradedShedReasonDistinctFromDeadline(t *testing.T) {
	g := NewDegrade(DegradeConfig{Alpha: 1, EnterRatio: 1.2, ExitRatio: 1.05, MinSamples: 1}, 2)
	a, svcs := testAdmitter(t, 64, g)
	in := dnn.Input{Batch: 32}
	solo := a.SoloPred(0, in)

	// Force degraded mode with a divergence big enough that solo*margin
	// overshoots the QoS target.
	ratio := 1.5 * svcs[0].QoS / solo
	g.Observe(0, solo, ratio*solo)
	if !g.Active(0) {
		t.Fatal("controller not degraded")
	}
	d := a.Decide(0, 0, in, 0)
	if d.OK || d.Reason != ReasonDegraded {
		t.Fatalf("want degraded_shed rejection, got %+v", d)
	}
	if !d.Degraded || d.AdjustedMS <= d.PredMS {
		t.Errorf("decision not margin-widened: %+v", d)
	}
	if g.Snapshot().Shed != 1 {
		t.Errorf("shed counter = %d, want 1", g.Snapshot().Shed)
	}
	if g.ServiceSnapshots()[0].Shed != 1 {
		t.Errorf("per-service shed = %d, want 1", g.ServiceSnapshots()[0].Shed)
	}

	// The co-located service's margin stays 1: its admission is untouched.
	if d := a.Decide(0, 1, dnn.Input{Batch: 8}, 0); !d.OK || d.Degraded {
		t.Errorf("healthy co-located service affected by neighbour's drift: %+v", d)
	}

	// A query that could never meet its deadline stays deadline_unmeetable
	// even while degraded.
	if d := a.Decide(0, 0, in, solo/2); d.Reason != ReasonDeadline {
		t.Errorf("want deadline_unmeetable for impossible SLO, got %+v", d)
	}
}

func TestDisabledDegradeIgnoresObservations(t *testing.T) {
	g := NewDegrade(DegradeConfig{Disabled: true}, 1)
	for i := 0; i < 50; i++ {
		g.Observe(0, 1, 100)
	}
	if g.Active(0) || g.Margin(0) != 1 || g.Snapshot().Transitions != 0 {
		t.Errorf("disabled controller acted: %+v", g.Snapshot())
	}
}

func TestDegradeConfigValidation(t *testing.T) {
	for name, cfg := range map[string]DegradeConfig{
		"alpha>1":          {Alpha: 1.5},
		"enter<=1":         {EnterRatio: 0.9},
		"exit>enter":       {EnterRatio: 1.2, ExitRatio: 1.4},
		"headroom<1":       {MarginHeadroom: 0.5},
		"negative samples": {MinSamples: -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewDegrade did not panic", name)
				}
			}()
			NewDegrade(cfg, 1)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewDegrade accepted zero services")
			}
		}()
		NewDegrade(DegradeConfig{}, 0)
	}()
}
