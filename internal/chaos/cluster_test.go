package chaos

import (
	"encoding/json"
	"strings"
	"testing"

	"abacus/internal/scaler"
)

// TestClusterMigration is the cluster acceptance pin: under the built-in
// cluster-node-throttle scenario (four replicated nodes, node 2 at half
// speed for 4 s mid-run) the affinity router must migrate traffic off the
// throttled node, the cluster must hold its goodput floor, and the three
// healthy replicas must behave within noise of the fault-free
// cluster-baseline control.
func TestClusterMigration(t *testing.T) {
	base := mustRun(t, "cluster-baseline")
	thr := mustRun(t, "cluster-node-throttle")
	if len(base.Nodes) != 4 || len(thr.Nodes) != 4 {
		t.Fatalf("node reports: baseline %d, throttle %d, want 4", len(base.Nodes), len(thr.Nodes))
	}

	// The fault-free control is clean: no replica is quarantined at the end
	// (a startup transient may trip and recover — transitions even out), and
	// migrations stay a small fraction of admissions.
	for _, n := range base.Nodes {
		for _, s := range n.Services {
			if s.DegradeActive {
				t.Errorf("baseline node %d svc %d ends quarantined", n.Node, s.Service)
			}
		}
	}
	if base.Migrations*10 > base.Admitted {
		t.Errorf("baseline migrated %d of %d admissions; fault-free routing should rarely skip a replica",
			base.Migrations, base.Admitted)
	}

	// The throttled node trips its drift detectors and the router migrates:
	// node 2 serves well under half its fault-free share, the siblings absorb
	// it, and cluster-wide migrations rise well above the baseline's.
	if thr.Nodes[2].DegradeTransitions == 0 {
		t.Error("throttled node never tripped degraded mode")
	}
	if thr.Nodes[2].Routed*2 > base.Nodes[2].Routed {
		t.Errorf("throttled node still served %d (fault-free %d); migration did not bite",
			thr.Nodes[2].Routed, base.Nodes[2].Routed)
	}
	var absorbed int64
	for _, id := range []int{0, 1, 3} {
		absorbed += thr.Nodes[id].MigratedIn
	}
	if absorbed == 0 {
		t.Error("healthy replicas absorbed no migrated traffic")
	}
	if thr.Migrations < 2*base.Migrations {
		t.Errorf("migrations %d under throttle vs %d fault-free; expected a clear rise",
			thr.Migrations, base.Migrations)
	}

	// QoS floor: migration (not shedding) is the recovery mechanism, so the
	// cluster keeps the same goodput floor the single-GPU recovery scenario
	// asserts.
	if thr.Goodput < 0.99 {
		t.Errorf("cluster goodput %v under node throttle, want >= 0.99", thr.Goodput)
	}

	// Healthy-replica isolation: nodes 0, 1, 3 never trip or shed during the
	// fault run, exactly like the fault-free control, and their violation
	// counts stay within noise of it.
	for _, id := range []int{0, 1, 3} {
		n, b := thr.Nodes[id], base.Nodes[id]
		if n.DegradeShed != 0 {
			t.Errorf("healthy node %d shed %d queries", id, n.DegradeShed)
		}
		for _, s := range n.Services {
			if s.DegradeActive {
				t.Errorf("healthy node %d svc %d ends quarantined", id, s.Service)
			}
		}
		if n.Violated > b.Violated+2 {
			t.Errorf("healthy node %d violated %d vs %d fault-free; absorbed load broke its SLOs",
				id, n.Violated, b.Violated)
		}
	}

	// Per-node rows are conserved against the cluster totals.
	for _, rep := range []*Report{base, thr} {
		var adm, comp, routed int64
		for _, n := range rep.Nodes {
			adm += n.Admitted
			comp += n.Completed
			routed += n.Routed
			if n.Admitted != n.Completed+n.Dropped {
				t.Errorf("%s node %d: admitted %d != completed %d + dropped %d",
					rep.Name, n.Node, n.Admitted, n.Completed, n.Dropped)
			}
			if n.Completed != n.Good+n.Violated {
				t.Errorf("%s node %d: completed %d != good %d + violated %d",
					rep.Name, n.Node, n.Completed, n.Good, n.Violated)
			}
			if n.Routed != n.Admitted {
				t.Errorf("%s node %d: routed %d != admitted %d", rep.Name, n.Node, n.Routed, n.Admitted)
			}
		}
		if adm != rep.Admitted || comp != rep.Completed || routed != rep.Admitted {
			t.Errorf("%s: node sums admitted %d completed %d routed %d vs cluster %d/%d",
				rep.Name, adm, comp, routed, rep.Admitted, rep.Completed)
		}
	}

	// The rendered report carries the per-node rows.
	if txt := thr.Text(); !strings.Contains(txt, "node 2:") || !strings.Contains(txt, "migrations ") {
		t.Errorf("cluster report text missing node rows:\n%s", txt)
	}
}

// TestClusterSingleNodeUnchanged pins that the cluster refactor left
// single-node scenarios untouched: no node rows, no migrations, and the
// Nodes default resolves to one.
func TestClusterSingleNodeUnchanged(t *testing.T) {
	rep := mustRun(t, "baseline")
	if len(rep.Nodes) != 0 {
		t.Errorf("single-node report grew %d node rows", len(rep.Nodes))
	}
	if rep.Migrations != 0 {
		t.Errorf("single-node report counted %d migrations", rep.Migrations)
	}
	if strings.Contains(rep.Text(), "node 0:") {
		t.Error("single-node report text renders node rows")
	}
}

// TestFixedEqualsPinnedElastic is law 5(vi): an elastic fleet pinned at
// MinNodes = MaxNodes = 4 admits, routes and serves every query exactly as
// a fixed fleet of 4. Both route through fleet.Route over Active nodes, and
// a controller that may neither add nor drain only ticks. Everything but
// the autoscale block and the node lifetime windows must match.
func TestFixedEqualsPinnedElastic(t *testing.T) {
	sc, _ := Lookup("cluster-node-throttle")
	fixed, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Autoscale = &scaler.Config{MinNodes: 4, MaxNodes: 4, CapacityQPS: 30}
	pinned, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if pinned.Autoscale == nil || pinned.Autoscale.Ticks == 0 {
		t.Fatal("the pinned elastic run never ticked its controller")
	}
	pinned.Autoscale = nil
	for i := range pinned.Nodes {
		pinned.Nodes[i].Window = nil
	}
	if fixed.Migrations == 0 {
		t.Fatal("the throttle caused no migrations; the law is vacuous")
	}
	want, _ := json.Marshal(fixed)
	got, _ := json.Marshal(pinned)
	if string(got) != string(want) {
		t.Errorf("pinned elastic fleet diverges from the fixed one:\n got %s\nwant %s", got, want)
	}
}

// TestClusterWindowValidation covers node-scoped window rules.
func TestClusterWindowValidation(t *testing.T) {
	// Request faults act before routing and cannot be node-scoped.
	s := Script{Windows: []Window{{Kind: KindDrop, Start: 0, End: 100, Magnitude: 0.1, Node: 1}}}
	if err := s.Validate(); err == nil {
		t.Error("node-scoped drop window accepted")
	}
	// Negative nodes are rejected.
	s = Script{Windows: []Window{{Kind: KindGPUThrottle, Start: 0, End: 100, Magnitude: 0.5, Node: -1}}}
	if err := s.Validate(); err == nil {
		t.Error("negative node accepted")
	}
	// A window may not target a node the scenario does not have.
	_, err := Run(Scenario{
		Name: "oob", Seed: 1, DurationMS: 100, Nodes: 2,
		Script: Script{Windows: []Window{{Kind: KindGPUThrottle, Start: 0, End: 50, Magnitude: 0.5, Node: 2}}},
	})
	if err == nil {
		t.Error("window targeting node 2 of 2 accepted")
	}
	// Same-kind windows on different nodes may overlap; on the same node
	// they may not.
	s = Script{Windows: []Window{
		{Kind: KindGPUThrottle, Start: 0, End: 100, Magnitude: 0.5, Node: 1},
		{Kind: KindGPUThrottle, Start: 50, End: 150, Magnitude: 0.7, Node: 2},
	}}
	if err := s.Validate(); err != nil {
		t.Errorf("overlapping throttles on distinct nodes rejected: %v", err)
	}
	s = Script{Windows: []Window{
		{Kind: KindGPUThrottle, Start: 0, End: 100, Magnitude: 0.5, Node: 1},
		{Kind: KindGPUThrottle, Start: 50, End: 150, Magnitude: 0.7, Node: 1},
	}}
	if err := s.Validate(); err == nil {
		t.Error("overlapping throttles on one node accepted")
	}
}

func mustRun(t *testing.T, name string) *Report {
	t.Helper()
	sc, ok := Lookup(name)
	if !ok {
		t.Fatalf("scenario %s not found", name)
	}
	rep, err := Run(sc)
	if err != nil {
		t.Fatalf("running %s: %v", name, err)
	}
	return rep
}
