// Named chaos scenarios and deterministic report rendering. The built-ins
// are the CI suite: a healthy baseline, the 50% GPU throttle with and
// without degraded-mode recovery (the acceptance pair), a launch-stall
// storm, a mistrained predictor, and flaky clients exercising the retry and
// idempotency paths.
package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"abacus/internal/admit"
	"abacus/internal/calib"
	"abacus/internal/runner"
	"abacus/internal/scaler"
	"abacus/internal/trace"
	"abacus/internal/workload"
)

// Scenarios returns the named built-in suite, sorted by name.
func Scenarios() []Scenario {
	noDegrade := admit.DegradeConfig{Disabled: true}
	throttle := Script{Windows: []Window{
		{Kind: KindGPUThrottle, Start: 2000, End: 6000, Magnitude: 0.5},
	}}
	// Fast detection for the recovery scenarios: react within two
	// completions and shed with half again the observed divergence, the
	// setting that holds the ≥99% goodput floor under the 50% throttle.
	fastDegrade := admit.DegradeConfig{Alpha: 0.7, MinSamples: 2, MarginHeadroom: 1.5}
	// A sustained single-service misprediction: the window names the model so
	// only Res152's predictions are biased — it reports a fifth of the true
	// latency. The load is high enough that trusting those predictions
	// visibly overadmits.
	biasOne := Script{Windows: []Window{
		{Kind: KindPredictorBias, Start: 1000, End: 9000, Magnitude: 0.2, Model: "Res152"},
	}}
	// Cluster detection trades speed for selectivity: migration (not
	// shedding) is the recovery mechanism, so the enter threshold sits above
	// the co-location startup transient (~1.5×) but well below a halved
	// GPU's sustained ~2× divergence, and quarantine probes let a replica
	// that tripped on noise rejoin within a few probe rounds.
	clusterDegrade := admit.DegradeConfig{Alpha: 0.5, MinSamples: 4, EnterRatio: 1.6, ExitRatio: 1.2, MarginHeadroom: 1.3}
	out := []Scenario{
		{
			Name: "baseline", Seed: 11,
			Degrade: noDegrade,
		},
		{
			// The healthy baseline with the oracle memo cache on: every
			// counter must match "baseline" exactly — the cache is an
			// optimization, never a behavior change (see
			// TestPredictCacheTransparency).
			Name: "baseline-cached", Seed: 11,
			Degrade:      noDegrade,
			PredictCache: 4096,
		},
		{
			Name: "throttle50", Seed: 11,
			Script:  throttle,
			Degrade: noDegrade,
		},
		{
			Name: "throttle50-degraded", Seed: 11,
			Script:  throttle,
			Degrade: fastDegrade,
		},
		{
			Name: "stall", Seed: 13,
			Script: Script{Windows: []Window{
				{Kind: KindLaunchStall, Start: 1000, End: 4000, Magnitude: 2},
			}},
			Degrade: fastDegrade,
		},
		{
			Name: "mispredict", Seed: 17,
			Script: Script{Windows: []Window{
				{Kind: KindPredictorBias, Start: 1000, End: 5000, Magnitude: 0.6},
				{Kind: KindPredictorNoise, Start: 1000, End: 5000, Magnitude: 0.2},
			}},
			Degrade: fastDegrade,
		},
		{
			// One mistrained service: the predictor reports 60% of the true
			// latency for Res152 only; Inception-v3's predictions stay exact.
			// Per-service drift detection sheds the drifting service without
			// touching its neighbour.
			Name: "bias-one", Seed: 23, QPS: 60,
			Script:  biasOne,
			Degrade: fastDegrade,
		},
		{
			// Same fault, with online calibration closing the loop: the
			// tracker learns the inverse bias and admission goodput recovers
			// instead of merely shedding.
			Name: "bias-one-calibrated", Seed: 23, QPS: 60,
			Script:  biasOne,
			Degrade: fastDegrade,
			Calib:   &calib.Config{Seed: 23},
		},
		{
			// Four healthy replicated nodes under the same per-node load as
			// "baseline": the fault-free control the node-throttle scenario's
			// healthy replicas are compared against.
			Name: "cluster-baseline", Seed: 31, QPS: 120,
			Nodes:   4,
			Degrade: clusterDegrade,
		},
		{
			// The cluster acceptance scenario: one of four nodes drops to
			// half speed mid-run. Its drift detectors trip, the affinity
			// router migrates traffic to the three healthy replicas, and the
			// cluster holds its goodput floor while the siblings stay within
			// noise of cluster-baseline (see TestClusterMigration).
			Name: "cluster-node-throttle", Seed: 31, QPS: 120,
			Nodes: 4,
			Script: Script{Windows: []Window{
				{Kind: KindGPUThrottle, Start: 2000, End: 6000, Magnitude: 0.5, Node: 2},
			}},
			Degrade: clusterDegrade,
		},
		{
			// The elastic acceptance scenario: a four-minute fig22 MAF-like
			// day (diurnal sinusoid, no burst minutes) against the live
			// autoscaler. Offered load swings ~3→57 qps; the forecaster adds
			// nodes ahead of the peak (spikes act immediately) and drains
			// them in the trough after warm-up, hysteresis, and cooldown.
			// CI asserts goodput ≥ 0.98 through the peak AND ≥ 25%
			// node-hours saved vs static peak provisioning (see
			// TestAutoscaleDiurnalAcceptance).
			Name: "diurnal-autoscale", Seed: 53,
			Degrade: clusterDegrade,
			MAF: &trace.MAFConfig{
				BaseQPS:          30,
				DurationMS:       240_000,
				DiurnalAmplitude: 0.9,
				Seed:             53,
			},
			Autoscale: &scaler.Config{
				MinNodes: 1,
				MaxNodes: 4,
				// Anti-flap tuning is threshold placement, not slack width.
				// Offered QPS measured over T seconds has Poisson noise
				// σ = sqrt(rate/T); since spikes scale out immediately (by
				// design), every node-count boundary must sit several σ
				// from every plateau of the trace. At 33 QPS/node the
				// boundaries (23.1, 46.2, 69.3 usable QPS) are ≥ 2.8σ from
				// the 30 QPS shoulders and the 57 QPS peak once T = 5 s;
				// at T = 1 s the peak's σ of 7.5 puts the 3↔4 boundary
				// inside the noise and the fleet churns.
				CapacityQPS: 33,
				WarmupMS:    1500,
				IntervalMS:  5000,
			},
		},
		{
			Name: "flaky-clients", Seed: 19,
			Script: Script{Windows: []Window{
				{Kind: KindDrop, Start: 1000, End: 6000, Magnitude: 0.2},
				{Kind: KindDuplicate, Start: 1000, End: 6000, Magnitude: 0.2},
				{Kind: KindMalformed, Start: 3000, End: 5000, Magnitude: 0.1},
			}},
			Retry: &RetryConfig{},
		},
		{
			// A flash crowd hits one service: steady 15 qps each, then service
			// 0 surges to ~6× for a second with sharp 250 ms edges. The
			// admission controller must shed the unservable excess without
			// letting the surge starve service 1.
			Name: "flash-crowd", Seed: 41,
			Degrade: fastDegrade,
			Workload: &workload.Spec{
				Name: "flash-crowd", DurationMS: 10_000,
				Services: []workload.ServiceSpec{
					{Service: 0, Phases: []workload.PhaseSpec{{
						Kind: workload.PhaseFlash, QPS: 15, PeakQPS: 90,
						PeakStartMS: 4000, PeakEndMS: 5000, RampMS: 250,
					}}},
					{Service: 1, Phases: []workload.PhaseSpec{{
						Kind: workload.PhaseConstant, QPS: 15,
					}}},
				},
			},
		},
		{
			// Heavy-tailed gaps at the baseline's mean rate: Gamma shape 0.3
			// gives CV² ≈ 3.3, so arrivals clump into bursts with long
			// silences — the regime where mean-rate admission headroom lies.
			Name: "heavy-tail", Seed: 43,
			Degrade: fastDegrade,
			Workload: &workload.Spec{
				Name: "heavy-tail", DurationMS: 10_000,
				Services: []workload.ServiceSpec{
					{Service: 0, Process: workload.ProcessSpec{Kind: workload.ProcGamma, Shape: 0.3},
						Phases: []workload.PhaseSpec{{Kind: workload.PhaseConstant, QPS: 15}}},
					{Service: 1, Process: workload.ProcessSpec{Kind: workload.ProcGamma, Shape: 0.3},
						Phases: []workload.PhaseSpec{{Kind: workload.PhaseConstant, QPS: 15}}},
				},
			},
		},
		{
			// Compressed diurnal drift: service 0 swings ±60% around its mean
			// over a 5 s "day" while service 1 ramps 5→35 qps, crossing load
			// shares mid-run — the slow-drift regime the MAF experiment
			// approximates, now as a first-class gated scenario.
			Name: "diurnal-ramp", Seed: 47,
			Degrade: fastDegrade,
			Workload: &workload.Spec{
				Name: "diurnal-ramp", DurationMS: 10_000,
				Services: []workload.ServiceSpec{
					{Service: 0, Phases: []workload.PhaseSpec{{
						Kind: workload.PhaseSine, QPS: 12, Amplitude: 0.6, PeriodMS: 5000,
					}}},
					{Service: 1, Phases: []workload.PhaseSpec{{
						Kind: workload.PhaseRamp, QPS: 5, ToQPS: 35,
					}}},
				},
			},
		},
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Lookup returns the named built-in scenario.
func Lookup(name string) (Scenario, bool) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// RunAll executes scenarios on a deterministic worker pool; reports come
// back in input order regardless of the parallelism width.
func RunAll(scs []Scenario, parallel int) ([]*Report, error) {
	return runner.MapErr(len(scs), parallel, func(i int) (*Report, error) {
		return Run(scs[i])
	})
}

// Text renders the report as a fixed-order human-readable block. Every
// value derives from virtual time and seeded randomness, so the bytes are
// identical across runs and -parallel widths.
func (r *Report) Text() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "scenario %s (seed %d, qps %s)\n", r.Name, r.Seed, f(r.QPS))
	fmt.Fprintf(&b, "  sent %d  attempts %d  retries %d\n", r.Sent, r.Attempts, r.Retries)
	fmt.Fprintf(&b, "  admitted %d  completed %d  good %d  violated %d  dropped %d\n",
		r.Admitted, r.Completed, r.Good, r.Violated, r.Dropped)
	fmt.Fprintf(&b, "  rejected: deadline %d  queue %d  degraded %d  gave_up %d\n",
		r.RejectedDeadline, r.RejectedQueue, r.RejectedDegraded, r.GaveUp)
	fmt.Fprintf(&b, "  faults: drops %d  duplicates %d  malformed %d\n",
		r.FaultDrops, r.FaultDuplicates, r.FaultMalformed)
	fmt.Fprintf(&b, "  degrade: transitions %d  shed %d  divergence %s\n",
		r.DegradeTransitions, r.DegradeShed, f(r.FinalDivergence))
	fmt.Fprintf(&b, "  latency: p50 %s ms  p99 %s ms  goodput %s\n",
		f(r.P50MS), f(r.P99MS), f(r.Goodput))
	if a := r.Autoscale; a != nil {
		fmt.Fprintf(&b, "  autoscale: nodes %d..%d  interval %s ms  warmup %s ms  ticks %d\n",
			a.MinNodes, a.MaxNodes, f(a.IntervalMS), f(a.WarmupMS), a.Ticks)
		fmt.Fprintf(&b, "  autoscale: scale_outs %d  scale_ins %d  held: hysteresis %d  cooldown %d  max %d\n",
			a.ScaleOuts, a.ScaleIns, a.HeldHysteresis, a.HeldCooldown, a.HeldMaxNodes)
		fmt.Fprintf(&b, "  autoscale: peak %d  final %d  node_ms %s  static %s  saved %s\n",
			a.PeakNodes, a.FinalNodes, f(a.NodeMS), f(a.StaticPeakNodeMS), f(a.SavedFrac))
	}
	if len(r.Nodes) > 0 {
		fmt.Fprintf(&b, "  migrations %d\n", r.Migrations)
		for _, n := range r.Nodes {
			fmt.Fprintf(&b, "  node %d: routed %d  migrated_in %d  good %d  violated %d  shed %d  transitions %d  divergence %s",
				n.Node, n.Routed, n.MigratedIn, n.Good, n.Violated, n.DegradeShed, n.DegradeTransitions, f(n.FinalDivergence))
			if n.Window != nil {
				fmt.Fprintf(&b, "  window [%s, %s]", f(n.Window.FirstMS), f(n.Window.LastMS))
			}
			fmt.Fprintf(&b, "\n")
		}
	}
	for _, s := range r.Services {
		fmt.Fprintf(&b, "  svc %d %s: admitted %d  good %d  violated %d  shed %d  margin %s  divergence %s",
			s.Service, s.Model, s.Admitted, s.Good, s.Violated, s.RejectedDegraded, f(s.Margin), f(s.Divergence))
		if r.Calibrated {
			fmt.Fprintf(&b, "  calib slope %s  intercept %s ms  samples %d",
				f(s.CalibSlope), f(s.CalibInterceptMS), s.CalibSamples)
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// JSON renders the report as deterministic indented JSON.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

func f(v float64) string { return fmt.Sprintf("%.4g", v) }
