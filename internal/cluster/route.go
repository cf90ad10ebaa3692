package cluster

// Pick returns the index i in [0, n) minimizing load(i), ties toward the
// smallest index — the KubeAbacus routing rule (§7.6, "least outstanding
// work, ties by index") for hosts that run every node on one engine. The
// serving hosts route through fleet.Route, which breaks a load tie on the
// nodes' virtual clocks first; on one shared clock that reduces to this
// rule. n must be positive.
func Pick(n int, load func(int) float64) int {
	best := 0
	bestLoad := load(0)
	for i := 1; i < n; i++ {
		if l := load(i); l < bestLoad {
			best, bestLoad = i, l
		}
	}
	return best
}
