package cluster

import "abacus/internal/serving"

// Pick is serving.Pick, the KubeAbacus routing rule (§7.6, "least
// outstanding work, ties by index").
func Pick(n int, load func(int) float64) int { return serving.Pick(n, load) }
