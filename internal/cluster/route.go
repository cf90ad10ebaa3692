package cluster

// LeastLoaded returns the element of candidates whose load is smallest,
// breaking ties toward the earliest candidate — the KubeAbacus routing rule
// (§7.6, "least outstanding work, ties by index") for hosts that run every
// node on one engine. The online gateway breaks a load tie on the nodes'
// virtual clocks first (server.leastLoaded), which on one shared clock
// reduces to this rule. candidates must be non-empty.
func LeastLoaded(candidates []int, load func(int) float64) int {
	best := candidates[0]
	bestLoad := load(best)
	for _, c := range candidates[1:] {
		if l := load(c); l < bestLoad {
			best, bestLoad = c, l
		}
	}
	return best
}

// Pick is the allocation-free form of LeastLoaded for callers that already
// hold a dense candidate slice: it returns the index i in [0, n) minimizing
// load(i), ties toward the smallest index. Routers whose routable set
// changes at runtime (chaos's elastic fleet) filter into a scratch slice and
// pick over positions instead of materializing an index permutation.
// n must be positive.
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
