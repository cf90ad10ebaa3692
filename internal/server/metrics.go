// Prometheus text exposition (version 0.0.4) for the gateway, rendered by
// hand from the same snapshot that backs /statz — no client library, just
// the format: # HELP / # TYPE comments followed by name{labels} value
// samples.
package server

import (
	"bytes"
	"fmt"
	"strconv"
)

func renderMetrics(st Statz) []byte {
	var b bytes.Buffer
	emit := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }
	head := func(name, typ, help string) {
		emit("# HELP %s %s\n", name, help)
		emit("# TYPE %s %s\n", name, typ)
	}

	head("abacus_requests_total", "counter", "Requests by admission outcome.")
	for _, s := range st.Services {
		for _, o := range []struct {
			outcome string
			v       int64
		}{
			{"accepted", s.Accepted},
			{"rejected_deadline", s.RejectedDeadline},
			{"rejected_queue", s.RejectedQueue},
			{"rejected_draining", s.RejectedDraining},
			{"rejected_degraded", s.RejectedDegraded},
		} {
			emit("abacus_requests_total{service=%q,outcome=%q} %d\n", s.Model, o.outcome, o.v)
		}
	}

	head("abacus_queries_total", "counter", "Admitted queries by final result.")
	for _, s := range st.Services {
		good := s.Completed - (s.Violated - s.Dropped)
		emit("abacus_queries_total{service=%q,result=\"ok\"} %d\n", s.Model, good)
		emit("abacus_queries_total{service=%q,result=\"violated\"} %d\n", s.Model, s.Violated-s.Dropped)
		emit("abacus_queries_total{service=%q,result=\"dropped\"} %d\n", s.Model, s.Dropped)
	}

	head("abacus_queue_depth", "gauge", "Admitted-but-unfinished queries per service.")
	for _, s := range st.Services {
		emit("abacus_queue_depth{service=%q} %d\n", s.Model, s.QueueDepth)
	}

	head("abacus_latency_ms", "summary", "Completed-query latency over the recent window, virtual ms.")
	for _, s := range st.Services {
		if s.Completed > 0 {
			emit("abacus_latency_ms{service=%q,quantile=\"0.5\"} %s\n", s.Model, promFloat(s.P50MS))
			emit("abacus_latency_ms{service=%q,quantile=\"0.99\"} %s\n", s.Model, promFloat(s.P99MS))
		}
		emit("abacus_latency_ms_sum{service=%q} %s\n", s.Model, promFloat(s.MeanMS*float64(s.Completed)))
		emit("abacus_latency_ms_count{service=%q} %d\n", s.Model, s.Completed)
	}

	head("abacus_goodput_qps", "gauge", "Queries completed within QoS per virtual second.")
	for _, s := range st.Services {
		emit("abacus_goodput_qps{service=%q} %s\n", s.Model, promFloat(s.GoodputQPS))
	}

	head("abacus_qos_target_ms", "gauge", "Per-service QoS target, virtual ms.")
	for _, s := range st.Services {
		emit("abacus_qos_target_ms{service=%q} %s\n", s.Model, promFloat(s.QoSMS))
	}

	head("abacus_backlog_predicted_ms", "gauge", "Predicted unfinished work admitted to the device, virtual ms.")
	emit("abacus_backlog_predicted_ms %s\n", promFloat(st.BacklogPredMS))

	head("abacus_virtual_time_ms", "gauge", "Gateway virtual clock, ms.")
	emit("abacus_virtual_time_ms %s\n", promFloat(st.NowMS))

	head("abacus_draining", "gauge", "1 while the gateway refuses new work.")
	d := 0
	if st.Draining {
		d = 1
	}
	emit("abacus_draining %d\n", d)

	head("abacus_faults_total", "counter", "Faults absorbed by the gateway, by kind.")
	emit("abacus_faults_total{kind=\"malformed\"} %d\n", st.Faults.Malformed)
	emit("abacus_faults_total{kind=\"duplicate_suppressed\"} %d\n", st.Faults.DuplicatesSuppressed)

	head("abacus_retries_total", "counter", "Client retry attempts seen (requests with attempt > 0).")
	emit("abacus_retries_total %d\n", st.Faults.RetriesSeen)

	head("abacus_degraded", "gauge", "1 while degraded mode widens the admission margin.")
	dg := 0
	if st.Degrade.Active {
		dg = 1
	}
	emit("abacus_degraded %d\n", dg)

	head("abacus_degraded_transitions_total", "counter", "Degraded-mode enter/exit transitions.")
	emit("abacus_degraded_transitions_total %d\n", st.Degrade.Transitions)

	head("abacus_degraded_shed_total", "counter", "Admissions shed only because of the widened margin.")
	emit("abacus_degraded_shed_total %d\n", st.Degrade.Shed)

	head("abacus_divergence_ewma", "gauge", "EWMA of observed/predicted completion-latency ratio.")
	emit("abacus_divergence_ewma %s\n", promFloat(st.Degrade.Divergence))

	head("abacus_admission_margin", "gauge", "Widest per-service admission safety margin (1 while healthy).")
	emit("abacus_admission_margin %s\n", promFloat(st.Degrade.Margin))

	head("abacus_service_degraded", "gauge", "1 while the service's drift detector widens its admission margin.")
	for _, s := range st.Services {
		v := 0
		if s.DriftActive {
			v = 1
		}
		emit("abacus_service_degraded{service=%q} %d\n", s.Model, v)
	}

	head("abacus_service_admission_margin", "gauge", "Per-service admission safety margin (1 while healthy).")
	for _, s := range st.Services {
		emit("abacus_service_admission_margin{service=%q} %s\n", s.Model, promFloat(s.Margin))
	}

	head("abacus_service_divergence_ewma", "gauge", "Per-service EWMA of observed/predicted completion-latency ratio.")
	for _, s := range st.Services {
		emit("abacus_service_divergence_ewma{service=%q} %s\n", s.Model, promFloat(s.Divergence))
	}

	if st.PredictCache != nil {
		pc := st.PredictCache
		head("abacus_predict_cache_size", "gauge", "Group signatures currently memoized.")
		emit("abacus_predict_cache_size %d\n", pc.Size)

		head("abacus_predict_cache_capacity", "gauge", "Memoization cache capacity (signatures).")
		emit("abacus_predict_cache_capacity %d\n", pc.Capacity)

		head("abacus_predict_cache_hits_total", "counter", "Predictions answered from the group-signature cache.")
		emit("abacus_predict_cache_hits_total %d\n", pc.Hits)

		head("abacus_predict_cache_misses_total", "counter", "Predictions the duration model actually computed.")
		emit("abacus_predict_cache_misses_total %d\n", pc.Misses)

		head("abacus_predict_cache_evictions_total", "counter", "Signatures evicted by the clock hand.")
		emit("abacus_predict_cache_evictions_total %d\n", pc.Evictions)
	}

	if len(st.Nodes) > 0 {
		head("abacus_node_virtual_time_ms", "gauge", "Per-node virtual clock, ms.")
		for _, n := range st.Nodes {
			emit("abacus_node_virtual_time_ms{node=\"%d\"} %s\n", n.Node, promFloat(n.NowMS))
		}

		head("abacus_node_backlog_predicted_ms", "gauge", "Predicted unfinished work admitted per node, virtual ms.")
		for _, n := range st.Nodes {
			emit("abacus_node_backlog_predicted_ms{node=\"%d\"} %s\n", n.Node, promFloat(n.BacklogPredMS))
		}

		head("abacus_node_queue_depth", "gauge", "Admitted-but-unfinished queries per node.")
		for _, n := range st.Nodes {
			emit("abacus_node_queue_depth{node=\"%d\"} %d\n", n.Node, n.QueueDepth)
		}

		head("abacus_node_degraded", "gauge", "1 while any hosted service's drift detector is active on the node.")
		for _, n := range st.Nodes {
			v := 0
			if n.Degrade.Active {
				v = 1
			}
			emit("abacus_node_degraded{node=\"%d\"} %d\n", n.Node, v)
		}

		head("abacus_node_routed_total", "counter", "Queries the cluster router admitted on the node.")
		for _, n := range st.Nodes {
			emit("abacus_node_routed_total{node=\"%d\"} %d\n", n.Node, n.Routed)
		}

		head("abacus_node_migrated_in_total", "counter", "Queries routed to the node away from a degraded replica.")
		for _, n := range st.Nodes {
			emit("abacus_node_migrated_in_total{node=\"%d\"} %d\n", n.Node, n.MigratedIn)
		}

		if anyNodeCache(st.Nodes) {
			head("abacus_node_predict_cache_hits_total", "counter", "Per-node predictions answered from the group-signature cache.")
			for _, n := range st.Nodes {
				if n.PredictCache != nil {
					emit("abacus_node_predict_cache_hits_total{node=\"%d\"} %d\n", n.Node, n.PredictCache.Hits)
				}
			}

			head("abacus_node_predict_cache_misses_total", "counter", "Per-node predictions the duration model actually computed.")
			for _, n := range st.Nodes {
				if n.PredictCache != nil {
					emit("abacus_node_predict_cache_misses_total{node=\"%d\"} %d\n", n.Node, n.PredictCache.Misses)
				}
			}
		}
	}

	if st.Autoscale != nil {
		as := st.Autoscale
		head("abacus_autoscale_target_nodes", "gauge", "Fleet size the controller currently wants.")
		emit("abacus_autoscale_target_nodes %d\n", as.TargetNodes)

		head("abacus_autoscale_nodes", "gauge", "Live nodes by lifecycle phase.")
		emit("abacus_autoscale_nodes{phase=\"warming\"} %d\n", as.WarmingNodes)
		emit("abacus_autoscale_nodes{phase=\"active\"} %d\n", as.ActiveNodes)
		emit("abacus_autoscale_nodes{phase=\"draining\"} %d\n", as.DrainingNodes)

		head("abacus_autoscale_retired_nodes_total", "counter", "Nodes drained and retired over the gateway's life.")
		emit("abacus_autoscale_retired_nodes_total %d\n", as.RetiredNodes)

		head("abacus_autoscale_peak_nodes", "gauge", "Largest live fleet seen so far.")
		emit("abacus_autoscale_peak_nodes %d\n", as.PeakNodes)

		head("abacus_autoscale_scale_actions_total", "counter", "Node-level scale actions by direction.")
		emit("abacus_autoscale_scale_actions_total{direction=\"out\"} %d\n", as.ScaleOuts)
		emit("abacus_autoscale_scale_actions_total{direction=\"in\"} %d\n", as.ScaleIns)

		head("abacus_autoscale_held_total", "counter", "Scale actions suppressed, by guard.")
		emit("abacus_autoscale_held_total{guard=\"hysteresis\"} %d\n", as.HeldHysteresis)
		emit("abacus_autoscale_held_total{guard=\"cooldown\"} %d\n", as.HeldCooldown)
		emit("abacus_autoscale_held_total{guard=\"max_nodes\"} %d\n", as.HeldMaxNodes)

		head("abacus_autoscale_ticks_total", "counter", "Control-loop observations.")
		emit("abacus_autoscale_ticks_total %d\n", as.Ticks)

		head("abacus_autoscale_node_ms_total", "counter", "Cumulative node lifetime, virtual ms.")
		emit("abacus_autoscale_node_ms_total %s\n", promFloat(as.NodeMS))

		head("abacus_autoscale_forecast_qps", "gauge", "EWMA offered-load forecast, virtual QPS.")
		emit("abacus_autoscale_forecast_qps %s\n", promFloat(as.ForecastQPS))
	}

	if st.Calibration != nil {
		head("abacus_calibration_enabled", "gauge", "1 while online latency-model calibration acts on feedback.")
		emit("abacus_calibration_enabled 1\n")

		head("abacus_calibration_slope", "gauge", "Per-service affine correction slope (1 = predictions trusted as-is).")
		for _, c := range st.Calibration.Services {
			emit("abacus_calibration_slope{service=%q} %s\n", c.Model, promFloat(c.Slope))
		}

		head("abacus_calibration_intercept_ms", "gauge", "Per-service affine correction intercept, virtual ms.")
		for _, c := range st.Calibration.Services {
			emit("abacus_calibration_intercept_ms{service=%q} %s\n", c.Model, promFloat(c.Intercept))
		}

		head("abacus_calibration_samples_total", "counter", "Accepted uncontended feedback samples per service.")
		for _, c := range st.Calibration.Services {
			emit("abacus_calibration_samples_total{service=%q} %d\n", c.Model, c.Samples)
		}

		head("abacus_calibration_updates_total", "counter", "Applied correction updates per service.")
		for _, c := range st.Calibration.Services {
			emit("abacus_calibration_updates_total{service=%q} %d\n", c.Model, c.Updates)
		}

		head("abacus_calibration_residual_ms", "gauge", "Signed corrected-prediction residual quantiles over the reservoir, virtual ms.")
		for _, c := range st.Calibration.Services {
			if c.Reservoir > 0 {
				emit("abacus_calibration_residual_ms{service=%q,quantile=\"0.5\"} %s\n", c.Model, promFloat(c.ResidualP50MS))
				emit("abacus_calibration_residual_ms{service=%q,quantile=\"0.99\"} %s\n", c.Model, promFloat(c.ResidualP99MS))
			}
		}
	}

	return b.Bytes()
}

// anyNodeCache reports whether any node runs a predict cache.
func anyNodeCache(nodes []NodeStatz) bool {
	for _, n := range nodes {
		if n.PredictCache != nil {
			return true
		}
	}
	return false
}

// promFloat renders a float in Prometheus sample syntax.
func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
