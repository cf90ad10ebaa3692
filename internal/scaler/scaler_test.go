package scaler

import (
	"testing"

	"abacus/internal/autoscale"
)

func newController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestLifecycleAddPromoteDrainRetire(t *testing.T) {
	c := newController(t, Config{
		MinNodes: 1, MaxNodes: 4, CapacityQPS: 10,
		IntervalMS: 1000, WarmupMS: 1500,
	})

	// 30 QPS against 7 usable per node → need 5, clamped to 4: add 3.
	adv := c.Tick(1000, 30)
	if adv.Decision != autoscale.ScaleOut || len(adv.Add) != 3 {
		t.Fatalf("tick 1: got %v add=%v, want scale-out of 3", adv.Decision, adv.Add)
	}
	if adv.Reason != autoscale.ReasonScaleOut {
		t.Errorf("tick 1 reason %q", adv.Reason)
	}
	for _, id := range adv.Add {
		if ph, ok := c.Phase(id); !ok || ph != Warming {
			t.Errorf("added node %d phase %v, want warming", id, ph)
		}
	}

	// Next tick is before the warm-up deadline (1000+1500=2500): no
	// promotion yet.
	adv = c.Tick(2000, 30)
	if len(adv.Promote) != 0 {
		t.Fatalf("tick 2 promoted %v before warm-up deadline", adv.Promote)
	}
	// Past the deadline all three promote, as load vanishes.
	adv = c.Tick(3000, 0)
	if len(adv.Promote) != 3 {
		t.Fatalf("tick 3 promoted %v, want 3 nodes", adv.Promote)
	}
	for _, id := range adv.Promote {
		if ph, _ := c.Phase(id); ph != Active {
			t.Errorf("promoted node %d phase %v, want active", id, ph)
		}
	}

	// The forecast decays by 0.7 a tick (21, 14.7, 10.3, 7.2): scale-in is
	// wanted from tick 3 on, but the cooldown the scale-out armed holds the
	// fleet through tick 6.
	if adv.Reason != autoscale.ReasonCooldown {
		t.Fatalf("tick 3 reason %q, want cooldown", adv.Reason)
	}
	for now := 4000.0; now <= 6000; now += 1000 {
		if adv = c.Tick(now, 0); adv.Reason != autoscale.ReasonCooldown {
			t.Fatalf("tick at %v: reason %q, want cooldown", now, adv.Reason)
		}
	}
	// Forecast 5 → need 1 → drain the 3 newest.
	adv = c.Tick(7000, 0)
	if adv.Decision != autoscale.ScaleIn || len(adv.Drain) != 3 {
		t.Fatalf("tick 7: got %v drain=%v, want scale-in of 3", adv.Decision, adv.Drain)
	}
	// Newest-first: IDs 3, 2, 1 in that order; founder 0 survives.
	want := []int{3, 2, 1}
	for i, id := range adv.Drain {
		if id != want[i] {
			t.Fatalf("drain order %v, want %v", adv.Drain, want)
		}
	}
	if ph, _ := c.Phase(0); ph != Active {
		t.Errorf("founder phase %v, want active", ph)
	}

	for _, id := range adv.Drain {
		c.Retire(id, 7500)
	}
	s := c.Snapshot(8000)
	if s.Live != 1 || s.Active != 1 || s.Retired != 3 || s.Peak != 4 {
		t.Errorf("snapshot %+v, want live=1 active=1 retired=3 peak=4", s)
	}
	if s.ScaleOuts != 3 || s.ScaleIns != 3 {
		t.Errorf("actions %d/%d, want 3/3", s.ScaleOuts, s.ScaleIns)
	}
}

func TestNodeMSAccounting(t *testing.T) {
	c := newController(t, Config{MinNodes: 1, MaxNodes: 4, CapacityQPS: 10, WarmupMS: 500})

	// Founder runs [0, now]. A node added at t=1000 and retired at t=3000
	// contributes exactly 2000.
	adv := c.Tick(1000, 20) // need ceil(20/7)=3 → add 2
	if len(adv.Add) != 2 {
		t.Fatalf("add=%v, want 2 nodes", adv.Add)
	}
	c.Retire(adv.Add[0], 3000)
	c.Retire(adv.Add[1], 3000)
	// At t=4000: founder 4000 + two retirees 2000 each = 8000.
	if got := c.NodeMS(4000); got != 8000 {
		t.Errorf("NodeMS = %v, want 8000", got)
	}
	// Retire is idempotent.
	c.Retire(adv.Add[0], 9000)
	if got := c.NodeMS(4000); got != 8000 {
		t.Errorf("NodeMS after duplicate retire = %v, want 8000", got)
	}
}

func TestDrainPrefersWarmingNodes(t *testing.T) {
	c := newController(t, Config{MinNodes: 2, MaxNodes: 8, CapacityQPS: 10, WarmupMS: 10_000})

	adv := c.Tick(1000, 30) // need 5 → add 3 warming
	if len(adv.Add) != 3 {
		t.Fatalf("add=%v, want 3", adv.Add)
	}
	// Demand collapses before they warm up (deadline 11000): once the
	// forecast has decayed and the cooldown passed, the drains must hit the
	// still-warming newest nodes, never the active founders.
	for now := 2000.0; len(adv.Drain) == 0 && now < 11_000; now += 1000 {
		adv = c.Tick(now, 0)
	}
	if len(adv.Drain) != 3 {
		t.Fatalf("drain=%v, want the 3 warming nodes", adv.Drain)
	}
	for _, id := range adv.Drain {
		if id < 2 {
			t.Errorf("drained founder %d while warming nodes existed", id)
		}
	}
	for id := 0; id < 2; id++ {
		if ph, _ := c.Phase(id); ph != Active {
			t.Errorf("founder %d phase %v, want active", id, ph)
		}
	}
}

func TestSnapshotCountersSurfacePlannerState(t *testing.T) {
	c := newController(t, Config{MinNodes: 1, MaxNodes: 2, CapacityQPS: 10})

	// A quiet first tick keeps the forecast low, so the spikes below size on
	// the offered load and one quiet tick later the planner wants 1 node.
	c.Tick(500, 0)
	c.Tick(1000, 15) // need 3, clamped at MaxNodes: scale-out 1 → 2
	adv := c.Tick(2000, 15)
	if adv.Reason != autoscale.ReasonMaxNodes {
		t.Errorf("reason %q, want max-nodes", adv.Reason)
	}
	adv = c.Tick(3000, 0) // forecast 5.4 → need 1; the scale-out's cooldown holds
	if adv.Reason != autoscale.ReasonCooldown {
		t.Errorf("reason %q, want cooldown", adv.Reason)
	}
	s := c.Snapshot(3000)
	if s.Counters.HeldMaxNodes != 1 || s.Counters.HeldCooldown != 1 {
		t.Errorf("counters %+v, want held max-nodes=1 cooldown=1", s.Counters)
	}
	if s.Last.Reason != autoscale.ReasonCooldown || s.Ticks != 4 {
		t.Errorf("last=%+v ticks=%d", s.Last, s.Ticks)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := New(Config{CapacityQPS: 10, MinNodes: 5, MaxNodes: 2}); err == nil {
		t.Error("max < min accepted")
	}
	if _, err := New(Config{CapacityQPS: 10, WarmupMS: -1}); err == nil {
		t.Error("negative warmup accepted")
	}
}
