package main

import "time"

// tracedReplay is the traced pass every workload shares: the workload's
// requests are replayed through the bench-owned stack, alternately with
// spans off and spans on, until budget is spent. Timing metrics are medians
// over the traced replays, counters come from the first one (they repeat
// exactly), and the trace of the last one is written out. It returns the
// time per request the traced layers account for, the replay loop's own
// excluded.
func tracedReplay(r *report, cfg runCfg, sc stackCfg, reqs []replayReq, budget time.Duration) (attributedUS float64) {
	if len(reqs) > maxReplayRequests {
		reqs = reqs[:maxReplayRequests]
	}
	var first replayStats
	rec := newRecorder(spansPerRequest*len(reqs) + 16)
	timings := map[string][]float64{} // metric → one value per traced replay
	var attributed []float64
	gc0 := readHost().gcs
	unitsUntil(budget, 2, 64, func(i int) {
		plain := replay(sc, reqs, nil)
		rec.reset()
		st := replay(sc, reqs, rec)
		if i == 0 {
			first = st
		} else if st.good != first.good || st.steps != first.steps || st.shed != first.shed {
			r.problem("replay %d differs from replay 0: good %d/%d steps %d/%d shed %d/%d",
				i, st.good, first.good, st.steps, first.steps, st.shed, first.shed)
		}
		r.attempted += 2 * st.requests
		lt := st.times
		selfPer := func(k spanKind) float64 { return ratio(float64(lt.self[k]), float64(lt.count[k])) }
		for name, v := range map[string]float64{
			"server.codec.decode_ns":    selfPer(spanDecode),
			"server.codec.encode_ns":    selfPer(spanEncode),
			"cluster.pick_ns":           selfPer(spanRoute),
			"core.submit_ns":            selfPer(spanSubmit),
			"admit.decide_accept_ns":    ratio(float64(st.acceptNS), float64(st.accepted)),
			"admit.decide_shed_ns":      ratio(float64(st.shedNS), float64(st.shed)),
			"predictor.us_per_call":     ratio(float64(st.predNS)/1e3, float64(st.predCalls)),
			"predictor.time_share":      ratio(float64(lt.total[spanPredict]), float64(lt.total[spanReplay])),
			"sim.drive_ns_per_event":    ratio(float64(lt.self[spanDrive]), float64(st.steps)),
			"host.trace_overhead_share": float64(st.wall-plain.wall) / float64(plain.wall),
			"host.ref_spin_ns":          refSpin(),
			"host.ref_mem_ns":           refMem(),
		} {
			timings[name] = append(timings[name], v)
		}
		attributed = append(attributed, float64(lt.total[spanReplay]-lt.self[spanReplay])/1e3/float64(st.requests))

		// Every layer's self time, the replay loop's own included, must add
		// up to the root span: if it does not, a span was attributed to the
		// wrong parent and the budget above cannot be trusted.
		if root := lt.total[spanReplay]; lt.broken > 0 || !within(float64(lt.selfSum()), float64(root), 0.02) {
			r.problem("replay %d: layer self times sum to %d ns, root span is %d ns, %d spans badly nested",
				i, lt.selfSum(), root, lt.broken)
		}
		if d := rec.dropped.Load(); d > 0 {
			r.problem("replay %d: %d spans did not fit the trace buffer", i, d)
		}
	})
	r.units = len(attributed)
	for name, xs := range timings {
		// The gateway workloads measure the trace overhead on the real
		// gateway instead, and have set it already.
		if _, set := r.values[name]; !set {
			r.setMedian(name, xs)
		}
	}
	r.perUnit = append(r.perUnit,
		series{"host.ref_spin_ns", timings["host.ref_spin_ns"]}, series{"host.ref_mem_ns", timings["host.ref_mem_ns"]})
	r.set("host.gc_cycles", float64(readHost().gcs-gc0))

	n := float64(first.requests)
	if sc.admit {
		r.set("admit.accept_share", float64(first.accepted)/n)
		r.set("admit.shed_share", float64(first.shed)/n)
		r.set("admit.degrade_transitions", float64(first.degradeTransitions))
	}
	r.set("predictor.calls_per_req", float64(first.predCalls)/n)
	r.set("predictor.groups_per_call", ratio(float64(first.predGroups), float64(first.predCalls)))
	r.set("predictor.memo_hit_rate", ratio(float64(first.memoHits), float64(first.memoHits+first.memoMisses)))
	r.set("predictor.mape_vs_oracle", first.mape)
	r.set("sched.rounds_per_req", float64(first.rounds)/n)
	r.set("sched.predict_rounds_per_req", float64(first.predictRounds)/n)
	r.set("sched.group_members_mean", first.groupMembers)
	r.set("sched.group_ops_mean", first.groupOps)
	r.set("sched.drops", float64(first.drops))
	r.set("executor.groups_per_req", float64(first.groups)/n)
	r.set("executor.checkpoint_mb_peak", first.checkpointPeakMB)
	r.set("gpusim.kernels_per_req", float64(first.kernels)/n)
	r.set("gpusim.utilization", first.utilization)
	r.set("gpusim.busy_share", first.busyShare)
	r.set("sim.events_per_req", float64(first.steps)/n)
	r.set("sim.pool_events", float64(first.poolEvents))

	if cfg.traceOut != "" {
		if err := rec.write(cfg.traceOut, r.workload); err != nil {
			r.problem("writing trace: %v", err)
		}
	}
	return median(attributed)
}

const (
	// maxReplayRequests bounds the traced replay to a workload's first 20 k
	// requests; spansPerRequest sizes the span buffer (decode, route, admit,
	// submit, encode, a drive, and the predictions a request causes — the
	// ladder's span search makes the most, about twenty).
	maxReplayRequests = 20_000
	spansPerRequest   = 48
)

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// within reports whether a is within share of b.
func within(a, b, share float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= share*b
}
