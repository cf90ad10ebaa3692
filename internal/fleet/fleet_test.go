package fleet

import (
	"sync/atomic"
	"testing"

	"abacus/internal/calib"
	"abacus/internal/dnn"
	"abacus/internal/gpusim"
	"abacus/internal/scaler"
)

// fakeNode is a router-visible node with fixed state.
type fakeNode struct {
	phase       scaler.Phase
	absent      bool // does not host the service
	degraded    bool
	load, clock float64
}

func (n *fakeNode) Phase() scaler.Phase { return n.phase }
func (n *fakeNode) Hosts(int) bool      { return !n.absent }
func (n *fakeNode) Degraded(int) bool   { return n.degraded }
func (n *fakeNode) Load() float64       { return n.load }
func (n *fakeNode) Clock() float64      { return n.clock }

func active(load float64) *fakeNode                 { return &fakeNode{phase: scaler.Active, load: load} }
func degraded(n *fakeNode) *fakeNode                { n.degraded = true; return n }
func inPhase(p scaler.Phase, n *fakeNode) *fakeNode { n.phase = p; return n }
func clock(c float64, n *fakeNode) *fakeNode        { n.clock = c; return n }

func TestRoute(t *testing.T) {
	cases := []struct {
		name     string
		nodes    []*fakeNode
		probe    bool
		want     int
		migrated bool
	}{
		{name: "least load", nodes: []*fakeNode{active(3), active(1), active(2)}, want: 1},
		{name: "id order on equal clocks", nodes: []*fakeNode{active(2), active(2), active(2)}, want: 0},
		{name: "clock tie-break", nodes: []*fakeNode{clock(5, active(2)), clock(3, active(2)), clock(4, active(2))}, want: 1},
		{name: "load before clock", nodes: []*fakeNode{clock(9, active(1)), clock(0, active(2))}, want: 0},
		{name: "skips non-hosts", nodes: []*fakeNode{{phase: scaler.Active, absent: true}, active(5)}, want: 1},
		{name: "skips draining and retired",
			nodes: []*fakeNode{inPhase(scaler.Draining, active(0)), inPhase(scaler.Retired, active(0)), active(5)}, want: 2},
		{name: "degraded skipped", nodes: []*fakeNode{degraded(active(0)), active(5), active(3)}, want: 2, migrated: true},
		{name: "all degraded", nodes: []*fakeNode{degraded(active(4)), degraded(active(2))}, want: 1},
		{name: "probe ignores health", nodes: []*fakeNode{degraded(active(0)), active(5)}, probe: true, want: 0},
		{name: "warming only on probe turns", nodes: []*fakeNode{active(5), inPhase(scaler.Warming, active(0))}, want: 0},
		{name: "probe reaches warming", nodes: []*fakeNode{active(5), inPhase(scaler.Warming, active(0))}, probe: true, want: 1},
		{name: "no active falls back to warming, health-filtered",
			nodes: []*fakeNode{inPhase(scaler.Draining, active(0)), inPhase(scaler.Warming, degraded(active(0))), inPhase(scaler.Warming, active(7))},
			want:  2, migrated: true},
	}
	for _, c := range cases {
		probes := make([]atomic.Int64, 1)
		if c.probe {
			probes[0].Store(probePeriod - 1)
		}
		got, migrated := Route(c.nodes, 0, probes)
		if got != c.nodes[c.want] || migrated != c.migrated {
			i := -1
			for j, n := range c.nodes {
				if n == got {
					i = j
				}
			}
			t.Errorf("%s: picked node %d (migrated %v), want %d (migrated %v)", c.name, i, migrated, c.want, c.migrated)
		}
	}
}

// TestRouteProbeCadence: every probePeriod-th decision per service is a
// probe turn — the only turns that reach a warming node — and a one-node
// fleet never counts a decision.
func TestRouteProbeCadence(t *testing.T) {
	nodes := []*fakeNode{active(5), {phase: scaler.Warming}}
	probes := make([]atomic.Int64, 2)
	for i := 1; i <= 3*probePeriod; i++ {
		got, _ := Route(nodes, 1, probes)
		if want := i%probePeriod == 0; (got == nodes[1]) != want {
			t.Fatalf("decision %d reached the warming node: %v, want %v", i, got == nodes[1], want)
		}
	}
	if probes[0].Load() != 0 || probes[1].Load() != 3*probePeriod {
		t.Errorf("probe counters %d, %d; want per-service counts 0, %d", probes[0].Load(), probes[1].Load(), 3*probePeriod)
	}
	Route(nodes[:1], 0, probes)
	if probes[0].Load() != 0 {
		t.Error("a one-node fleet counted a decision")
	}
}

func TestRouteAllocationFree(t *testing.T) {
	nodes := []*fakeNode{degraded(active(1)), active(2), {phase: scaler.Warming}, active(2)}
	probes := make([]atomic.Int64, 1)
	if allocs := testing.AllocsPerRun(1000, func() { Route(nodes, 0, probes) }); allocs != 0 {
		t.Errorf("Route allocates %v times per decision, want 0", allocs)
	}
}

// TestNewStackRefitTouchesOneService: a refit of service 0 drops only
// service 0's memoized solo latency in the admitter, and the recomputation
// is answered by the memo below calibration, which never re-counts a group.
func TestNewStackRefitTouchesOneService(t *testing.T) {
	st, err := NewStack(Config{
		Models:       []dnn.ModelID{dnn.ResNet50, dnn.InceptionV3},
		QueueCap:     64,
		PredictCache: 64,
		Calib:        &calib.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	in := dnn.Input{Batch: 4}
	before := [2]float64{st.Adm.SoloPred(0, in), st.Adm.SoloPred(1, in)}
	memo := st.Memo.Stats()
	if memo.Misses != 2 {
		t.Fatalf("memo computed %d solo groups, want 2", memo.Misses)
	}

	// Sixteen samples, calibration's minimum, observing twice the
	// prediction refit service 0.
	for range 16 {
		st.Tracker.Observe(0, 10, 20)
	}
	if st.Tracker.Snapshot().Services[0].Slope == 1 {
		t.Fatal("no refit happened")
	}
	after := [2]float64{st.Adm.SoloPred(0, in), st.Adm.SoloPred(1, in)}
	if after[0] == before[0] {
		t.Errorf("service 0's solo latency %v survived its refit", after[0])
	}
	if after[1] != before[1] {
		t.Errorf("service 1's solo latency moved %v → %v on service 0's refit", before[1], after[1])
	}
	got := st.Memo.Stats()
	if got.Misses != memo.Misses || got.Hits != memo.Hits+1 {
		t.Errorf("memo after refit: %d misses, %d hits; want %d misses and one more hit (service 0 only)",
			got.Misses, got.Hits, memo.Misses)
	}
}

// TestResolve: Admit books an accepted query's work and submits it,
// and resolving it releases that work and, with calibration on, becomes a
// tracker sample; without calibration the feedback allocates nothing.
func TestResolve(t *testing.T) {
	cfg := Config{Models: []dnn.ModelID{dnn.ResNet50}, QueueCap: 64, Calib: &calib.Config{}}
	st, err := NewStack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q, d := st.Admit(0, 0, dnn.Input{Batch: 4}, 0)
	if q == nil || !d.OK || st.Adm.Outstanding() != 1 || st.Adm.BacklogMS() != d.WorkMS {
		t.Fatalf("Admit: query %v, verdict %+v, %d outstanding, backlog %v ms",
			q, d, st.Adm.Outstanding(), st.Adm.BacklogMS())
	}
	q.Finish = q.Arrival + d.PredMS
	st.Resolve(q, d)
	if st.Adm.BacklogMS() != 0 || st.Adm.Outstanding() != 0 {
		t.Errorf("backlog %v ms, %d outstanding after Resolve; want none", st.Adm.BacklogMS(), st.Adm.Outstanding())
	}
	if n := st.Tracker.Snapshot().Services[0].Samples; n != 1 {
		t.Errorf("tracker holds %d samples, want 1", n)
	}
	if q, d := st.Admit(0, 0, dnn.Input{Batch: 4}, 1e-3); q != nil || d.OK {
		t.Errorf("Admit accepted a query under an unmeetable deadline: %+v", d)
	}

	cfg.Calib = nil
	if st, err = NewStack(cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		st.Adm.Admitted(0, d.WorkMS)
		st.Resolve(q, d)
	})
	if allocs != 0 {
		t.Errorf("Resolve allocates %v times per query, want 0", allocs)
	}
}

// TestNewStackSpecTable: a node runs on the spec table its host passes, so
// a host's nodes share one; with none a node gets its own, and a table for
// another device profile is refused.
func TestNewStackSpecTable(t *testing.T) {
	host := NewSpecs()
	cfg := Config{Models: []dnn.ModelID{dnn.ResNet50, dnn.VGG16}, QueueCap: 64, Specs: host}
	for i := 0; i < 2; i++ {
		st, err := NewStack(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if st.RT.Executor().Specs() != host {
			t.Errorf("node %d does not run on its host's table", i)
		}
	}
	cfg.Specs = nil
	own, err := NewStack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s := own.RT.Executor().Specs(); s == nil || s == host {
		t.Error("a node given no table does not get its own")
	}
	other := gpusim.A100Profile()
	other.NumSMs = 108
	cfg.Specs = dnn.NewSpecs(other)
	if _, err := NewStack(cfg); err == nil {
		t.Error("NewStack accepted a spec table for another device profile")
	}
}
