package cluster

import "testing"

func TestLeastLoadedPicksSmallest(t *testing.T) {
	loads := []float64{3, 1, 2}
	if got := Pick(len(loads), func(i int) float64 { return loads[i] }); got != 1 {
		t.Errorf("Pick = %d, want 1", got)
	}
	if got := Pick(1, func(int) float64 { return 9 }); got != 0 {
		t.Errorf("single candidate picked %d, want 0", got)
	}
}

func TestLeastLoadedTiesGoEarliest(t *testing.T) {
	loads := []float64{2, 2, 2}
	if got := Pick(len(loads), func(i int) float64 { return loads[i] }); got != 0 {
		t.Errorf("full tie picked %d, want 0", got)
	}
	loads = []float64{3, 1, 2, 1}
	if got := Pick(len(loads), func(i int) float64 { return loads[i] }); got != 1 {
		t.Errorf("Pick = %d, want 1 (smallest load, earliest tie)", got)
	}
}

func TestClusterPerNodeSummaries(t *testing.T) {
	for _, p := range []Policy{KubeAbacus, Clockwork} {
		res := smallCluster(t, p, 60, 8)
		if len(res.Nodes) == 0 {
			t.Fatalf("%v: no per-node summaries", p)
		}
		total, completed, dropped := 0, 0, 0
		servedNodes := 0
		for _, n := range res.Nodes {
			total += n.Queries
			completed += n.Completed
			dropped += n.Dropped
			if n.Node >= 0 && n.Completed > 0 {
				servedNodes++
				if n.P99 <= 0 || n.P50 > n.P99 {
					t.Errorf("%v node %d: implausible percentiles p50=%v p99=%v", p, n.Node, n.P50, n.P99)
				}
				if n.Goodput <= 0 {
					t.Errorf("%v node %d: goodput %v", p, n.Node, n.Goodput)
				}
			}
			if n.Node < 0 && n.Completed > 0 {
				t.Errorf("%v: controller-drop pseudo-node completed %d queries", p, n.Completed)
			}
		}
		if total != res.Total || completed != res.Completed || dropped != res.Dropped {
			t.Errorf("%v: node summaries (%d/%d/%d) disagree with totals (%d/%d/%d)",
				p, total, completed, dropped, res.Total, res.Completed, res.Dropped)
		}
		// Least-loaded routing over a 2-GPU fleet at 60 QPS must use both.
		if servedNodes < 2 {
			t.Errorf("%v: only %d nodes served traffic", p, servedNodes)
		}
	}
}
