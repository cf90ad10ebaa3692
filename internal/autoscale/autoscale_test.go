package autoscale

import (
	"math"
	"testing"

	"abacus/internal/dnn"
	"abacus/internal/gpusim"
)

func testPlan() Plan {
	return Plan{
		Groups:      [][]dnn.ModelID{{dnn.ResNet152, dnn.InceptionV3}},
		CapacityQPS: 100,
	}
}

func TestNewPlannerValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  PlannerConfig
		ok   bool
	}{
		{"defaults", PlannerConfig{Plan: testPlan()}, true},
		{"no-capacity", PlannerConfig{}, false},
		{"bad-max-nodes", PlannerConfig{Plan: testPlan(), MaxNodes: -1}, false},
		{"bad-cooldown", PlannerConfig{Plan: testPlan(), ScaleInCooldown: -1}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewPlanner(c.cfg)
			if (err == nil) != c.ok {
				t.Errorf("err = %v, want ok=%v", err, c.ok)
			}
		})
	}
}

func TestPlannerScalesOutOnSpike(t *testing.T) {
	p, err := NewPlanner(PlannerConfig{Plan: testPlan()}) // usable 70 QPS/node
	if err != nil {
		t.Fatal(err)
	}
	d, n := p.Observe(50)
	if d != Hold || n != 1 {
		t.Errorf("at 50 QPS: %v, %d nodes; want hold at 1", d, n)
	}
	d, n = p.Observe(300)
	if d != ScaleOut || n != 5 {
		t.Errorf("spike to 300 QPS: %v, %d nodes; want scale-out to 5 (ceil(300/70))", d, n)
	}
}

func TestPlannerScalesInWithHysteresis(t *testing.T) {
	p, err := NewPlanner(PlannerConfig{Plan: testPlan()})
	if err != nil {
		t.Fatal(err)
	}
	p.Observe(300) // 5 nodes
	// Forecast 0.3·200 + 0.7·300 = 270 needs 4 nodes, but 5 <= 4×1.3 ⇒ hold.
	if d, n := p.Observe(200); d != Hold || n != 5 {
		t.Errorf("mild dip: %v, %d; want hold at 5", d, n)
	}
	// Forecast 0.7·270 = 189 needs 3 nodes and 5 > 3×1.3 ⇒ shrink.
	if d, n := p.Observe(0); d != ScaleIn || n != 3 {
		t.Errorf("deep dip: %v, %d; want scale-in to 3", d, n)
	}
}

func TestPlannerRespectsMinNodes(t *testing.T) {
	p, err := NewPlanner(PlannerConfig{Plan: testPlan(), MinNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, n := p.Observe(0); n != 3 {
		t.Errorf("fleet %d at zero load, want floor 3", n)
	}
}

func TestPlannerEWMASmoothsDecline(t *testing.T) {
	p, err := NewPlanner(PlannerConfig{Plan: testPlan()})
	if err != nil {
		t.Fatal(err)
	}
	p.Observe(200)
	p.Observe(10)
	// Forecast should still remember the 200: 0.3·10 + 0.7·200 = 143.
	if math.Abs(p.Forecast()-143) > 1e-9 {
		t.Errorf("forecast %v, want 143", p.Forecast())
	}
}

func TestPlanTimeline(t *testing.T) {
	p, err := NewPlanner(PlannerConfig{Plan: testPlan()})
	if err != nil {
		t.Fatal(err)
	}
	offered := []float64{50, 150, 150, 40, 40}
	pts := PlanTimeline(p, offered)
	if len(pts) != len(offered) {
		t.Fatalf("timeline has %d points", len(pts))
	}
	for i, pt := range pts {
		if pt.OfferedQPS != offered[i] {
			t.Errorf("point %d offered %v", i, pt.OfferedQPS)
		}
		if pt.Nodes < 1 {
			t.Errorf("point %d nodes %d", i, pt.Nodes)
		}
		if pt.Utilization < 0 || pt.Utilization > 1.01 {
			t.Errorf("point %d utilization %v out of range", i, pt.Utilization)
		}
	}
	// The spike must have grown the fleet; the decline must have shrunk it.
	if pts[1].Decision != ScaleOut {
		t.Errorf("expected scale-out at the spike, got %v", pts[1].Decision)
	}
	if pts[len(pts)-1].Nodes >= pts[1].Nodes {
		t.Errorf("fleet did not shrink after the decline: %d >= %d",
			pts[len(pts)-1].Nodes, pts[1].Nodes)
	}
}

func TestDecisionString(t *testing.T) {
	if Hold.String() != "hold" || ScaleOut.String() != "scale-out" || ScaleIn.String() != "scale-in" {
		t.Error("decision names wrong")
	}
}

func TestBuildPlanEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("saturating simulation is slow")
	}
	p := gpusim.A100Profile()
	models := []dnn.ModelID{dnn.ResNet101, dnn.ResNet152, dnn.VGG19, dnn.Bert}
	plan := BuildPlan(models, 2, p, 1)
	if len(plan.Groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(plan.Groups))
	}
	if plan.CapacityQPS <= 0 {
		t.Fatalf("capacity %v", plan.CapacityQPS)
	}
	// All four models placed exactly once.
	seen := map[dnn.ModelID]int{}
	for _, g := range plan.Groups {
		for _, m := range g {
			seen[m]++
		}
	}
	for _, m := range models {
		if seen[m] != 1 {
			t.Errorf("model %v placed %d times", m, seen[m])
		}
	}
}

func TestPlannerMaxNodesClamp(t *testing.T) {
	p, err := NewPlanner(PlannerConfig{Plan: testPlan(), MaxNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	d, n := p.Observe(1000) // need ceil(1000/70)=15, clamped to 3
	if d != ScaleOut || n != 3 {
		t.Fatalf("clamped spike: %v, %d nodes; want scale-out to 3", d, n)
	}
	d, n = p.Observe(1000) // still starved, already at cap
	if d != Hold || n != 3 {
		t.Fatalf("at cap: %v, %d nodes; want hold at 3", d, n)
	}
	if last := p.Last(); last.Reason != ReasonMaxNodes {
		t.Errorf("reason %q, want %q", last.Reason, ReasonMaxNodes)
	}
	if c := p.Counters(); c.HeldMaxNodes != 1 {
		t.Errorf("held-max-nodes = %d, want 1", c.HeldMaxNodes)
	}

	if _, err := NewPlanner(PlannerConfig{Plan: testPlan(), MinNodes: 4, MaxNodes: 2}); err == nil {
		t.Error("max < min accepted")
	}
}

func TestPlannerScaleInCooldown(t *testing.T) {
	p, err := NewPlanner(PlannerConfig{Plan: testPlan(), ScaleInCooldown: 2})
	if err != nil {
		t.Fatal(err)
	}
	p.Observe(300) // scale-out to 5, arms cooldown
	// Forecasts 210 and 147 need 3 nodes: scale-in wanted, cooldown holds.
	d, _ := p.Observe(0)
	if d != Hold || p.Last().Reason != ReasonCooldown {
		t.Fatalf("first post-action drop: %v/%q, want hold/cooldown", d, p.Last().Reason)
	}
	d, _ = p.Observe(0)
	if d != Hold || p.Last().Reason != ReasonCooldown {
		t.Fatalf("second post-action drop: %v/%q, want hold/cooldown", d, p.Last().Reason)
	}
	d, n := p.Observe(0) // forecast 102.9 needs 2
	if d != ScaleIn || n != 2 || p.Last().Reason != ReasonScaleIn {
		t.Fatalf("after cooldown: %v, %d nodes, %q; want scale-in to 2", d, n, p.Last().Reason)
	}
	if c := p.Counters(); c.HeldCooldown != 2 || c.ScaleIns != 1 || c.ScaleOuts != 1 || c.Observations != 4 {
		t.Errorf("counters %+v", c)
	}
}

func TestPlannerLastDecisionInputs(t *testing.T) {
	p, err := NewPlanner(PlannerConfig{Plan: testPlan()})
	if err != nil {
		t.Fatal(err)
	}
	p.Observe(300) // primes forecast at 300 → 5 nodes
	p.Observe(200) // forecast 270, demand 270 → need 4: within slack, hold
	last := p.Last()
	if last.OfferedQPS != 200 || math.Abs(last.Forecast-270) > 1e-9 || last.DemandQPS != last.Forecast {
		t.Errorf("last inputs %+v, want offered=200 forecast=270 demand=forecast", last)
	}
	if last.Need != 4 || last.Nodes != 5 || last.Reason != ReasonHysteresis {
		t.Errorf("last outputs %+v, want need=4 nodes=5 reason=hysteresis", last)
	}
	if c := p.Counters(); c.HeldHysteresis != 1 {
		t.Errorf("held-hysteresis = %d, want 1", c.HeldHysteresis)
	}
}
