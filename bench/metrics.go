package main

import (
	"fmt"
	"math"
	"strconv"

	"abacus/internal/stats"
)

// spec names one metric and its unit. BENCHMARK.json repeats the two tables
// below with each end-to-end metric's direction and bound; bench_test.go
// holds the two in step.
type spec struct {
	name, unit string
	better     string  // "lower" or "higher"
	bound      float64 // end-to-end only: share of the parent's median
}

var endToEnd = []spec{
	{"setup_s", "s", "lower", 0.25},
	{"req_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_req", "us", "lower", 0.25},
	{"allocs_per_req", "count", "lower", 0.05},
	{"heap_mb", "MB", "lower", 0.06},
	{"goodput", "share", "higher", 0.08},
	{"goodput_overload", "share", "higher", 0.09},
	{"peak_qps_at_qos", "1/s", "higher", 0.09},
	{"lat_p50_over_qos", "ratio", "lower", 0.15},
	{"lat_p99_over_qos", "ratio", "lower", 0.08},
	{"wall_p50_ms", "ms", "lower", 0.25},
	{"wall_p99_ms", "ms", "lower", 0.25},
	{"gpu_s_per_kgood", "gpu-s", "lower", 0.12},
}

var perLayer = []spec{
	{name: "workload.materialize_us_per_arrival", unit: "us", better: "lower"},
	{name: "server.codec.decode_ns", unit: "ns", better: "lower"},
	{name: "server.codec.encode_ns", unit: "ns", better: "lower"},
	{name: "server.handler_us", unit: "us", better: "lower"},
	{name: "server.residual_us", unit: "us", better: "lower"},
	{name: "server.accepted", unit: "count", better: "higher"},
	{name: "server.rejected_queue", unit: "count", better: "lower"},
	{name: "server.rejected_deadline", unit: "count", better: "lower"},
	{name: "server.rejected_degraded", unit: "count", better: "lower"},
	{name: "server.duplicates_suppressed", unit: "count", better: "higher"},
	{name: "server.migrated_in", unit: "count", better: "lower"},
	{name: "cluster.pick_ns", unit: "ns", better: "lower"},
	{name: "cluster.route_imbalance", unit: "ratio", better: "lower"},
	{name: "core.submit_ns", unit: "ns", better: "lower"},
	{name: "admit.decide_accept_ns", unit: "ns", better: "lower"},
	{name: "admit.decide_shed_ns", unit: "ns", better: "lower"},
	{name: "admit.accept_share", unit: "share", better: "higher"},
	{name: "admit.shed_share", unit: "share", better: "lower"},
	{name: "admit.degrade_transitions", unit: "count", better: "lower"},
	{name: "predictor.calls_per_req", unit: "count", better: "lower"},
	{name: "predictor.groups_per_call", unit: "count", better: "higher"},
	{name: "predictor.us_per_call", unit: "us", better: "lower"},
	{name: "predictor.time_share", unit: "share", better: "lower"},
	{name: "predictor.memo_hit_rate", unit: "share", better: "higher"},
	{name: "predictor.mape_vs_oracle", unit: "share", better: "lower"},
	{name: "sched.rounds_per_req", unit: "count", better: "lower"},
	{name: "sched.predict_rounds_per_req", unit: "count", better: "lower"},
	{name: "sched.group_members_mean", unit: "count", better: "higher"},
	{name: "sched.group_ops_mean", unit: "count", better: "higher"},
	{name: "sched.drops", unit: "count", better: "lower"},
	{name: "executor.groups_per_req", unit: "count", better: "lower"},
	{name: "executor.checkpoint_mb_peak", unit: "MB", better: "lower"},
	{name: "gpusim.kernels_per_req", unit: "count", better: "lower"},
	{name: "gpusim.utilization", unit: "share", better: "higher"},
	{name: "gpusim.busy_share", unit: "share", better: "higher"},
	{name: "sim.events_per_req", unit: "count", better: "lower"},
	{name: "sim.drive_ns_per_event", unit: "ns", better: "lower"},
	{name: "sim.pool_events", unit: "count", better: "lower"},
	{name: "realtime.lag_p50_ms", unit: "ms", better: "lower"},
	{name: "realtime.lag_p99_ms", unit: "ms", better: "lower"},
	{name: "realtime.gen_late_p99_ms", unit: "ms", better: "lower"},
	{name: "scaler.ticks", unit: "count", better: "lower"},
	{name: "scaler.scale_outs", unit: "count", better: "lower"},
	{name: "scaler.scale_ins", unit: "count", better: "lower"},
	{name: "scaler.node_ms", unit: "ms", better: "lower"},
	{name: "scaler.saved_share", unit: "share", better: "higher"},
	{name: "scaler.tick_ns", unit: "ns", better: "lower"},
	{name: "chaos.migrations", unit: "count", better: "lower"},
	{name: "chaos.retries", unit: "count", better: "lower"},
	{name: "chaos.gave_up", unit: "count", better: "lower"},
	{name: "host.ref_spin_ns", unit: "ns", better: "lower"},
	{name: "host.ref_mem_ns", unit: "ns", better: "lower"},
	{name: "host.gc_cycles", unit: "count", better: "lower"},
	{name: "host.trace_overhead_share", unit: "share", better: "lower"},
}

// report is one run's result: the metric values, the spread of the ones that
// are medians over blocks or repeats, and every correctness problem found.
type report struct {
	workload  string
	attempted int64
	failed    int64
	problems  []string
	values    map[string]float64
	spread    map[string][2]float64 // first and third quartile over units
	units     int                   // blocks or repeats the medians are over
	perUnit   []series              // each unit's host costs and reference timings
	notes     []string              // diagnostics printed with the table
}

// series is one value per block or repeat, printed so that a reader can
// tell a slow machine from a slow program.
type series struct {
	name string
	xs   []float64
}

func newReport(workload string) *report {
	return &report{workload: workload, values: map[string]float64{}, spread: map[string][2]float64{}}
}

// set records one metric; setting a name twice is a bug in the benchmark.
func (r *report) set(name string, v float64) {
	if _, dup := r.values[name]; dup {
		panic("bench: metric " + name + " set twice")
	}
	r.values[name] = v
}

// setMedian records the median of xs (one value per block or repeat) and
// keeps its quartiles for the printed table.
func (r *report) setMedian(name string, xs []float64) {
	r.keepSpread(name, xs)
	r.set(name, median(xs))
}

func (r *report) keepSpread(name string, xs []float64) {
	q1, _, q3 := quartiles(xs)
	r.spread[name] = [2]float64{q1, q3}
}

// setBest records the best of xs (one value per block) — the lowest of a
// cost — and keeps the quartiles for the printed table. See setHostCosts for
// why the best and not the median.
func (r *report) setBest(name string, xs []float64) {
	r.keepSpread(name, xs)
	r.set(name, stats.Min(xs))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// setHostCosts records the three per-request host metrics from the units'
// costs. The two timings take, for each kind of unit, the **best** unit —
// least wall time, least CPU time — and add the kinds up; the allocation
// count, which hardly varies, takes each kind's median.
//
// The best, because these are times measured on a shared host: a neighbour
// thrashing the caches slows whole units by 20-60% for seconds to minutes at
// a time and never speeds one up (cpu_us_per_req of gw-closed's 29 blocks in
// one run: 56.7 to 86.9, on a day whose quiet floor was 53), so the noise is
// one-sided and the least disturbed unit says most about the program. Over
// ten seeds the median of units spread 32% on pair-ladder and the first
// quartile 6-24% depending on the hour; neither an arithmetic spin nor a DRAM
// pointer chase tracks the slow-downs well enough to normalise by.
func (r *report) setHostCosts(costs []hostCost) {
	r.units = len(costs)
	byKind := map[int][]hostCost{}
	var reqPerS, cpuUS, spins, mems []float64
	for _, c := range costs {
		byKind[c.kind] = append(byKind[c.kind], c)
		reqPerS = append(reqPerS, c.reqPerS())
		cpuUS = append(cpuUS, c.cpuUSPerReq())
		spins = append(spins, c.refSpinNS)
		mems = append(mems, c.refMemNS)
	}
	var requests, wallS, cpu, mallocs float64
	for _, cs := range byKind {
		pick := func(f func(hostCost) float64) []float64 {
			xs := make([]float64, len(cs))
			for i, c := range cs {
				xs[i] = f(c)
			}
			return xs
		}
		requests += float64(cs[0].requests)
		wallS += stats.Min(pick(func(c hostCost) float64 { return c.wallS }))
		cpu += stats.Min(pick(func(c hostCost) float64 { return c.cpuUS }))
		mallocs += median(pick(func(c hostCost) float64 { return c.mallocs }))
	}
	r.set("req_per_s", requests/wallS)
	r.set("cpu_us_per_req", cpu/requests)
	r.set("allocs_per_req", mallocs/requests)
	r.keepSpread("req_per_s", reqPerS)
	r.keepSpread("cpu_us_per_req", cpuUS)
	r.perUnit = append(r.perUnit,
		series{"req_per_s", reqPerS}, series{"cpu_us_per_req", cpuUS},
		series{"host.ref_spin_ns", spins}, series{"host.ref_mem_ns", mems})
}

// setSimulatedWall records wall_p50_ms and wall_p99_ms for a virtual-time
// workload, whose client has no clock of its own: the virtual latency at the
// two percentiles, times the host time the run took per unit of virtual time
// — how long a median (or tail) query's arrival-to-finish took on the wall
// clock of whoever ran the simulation. requests per unit and virtualMS per
// unit give the ratio, with req_per_s, which must have been set.
func (r *report) setSimulatedWall(p50MS, p99MS float64, requests int64, virtualMS float64) {
	hostPerVirtual := float64(requests) / r.values["req_per_s"] * 1000 / virtualMS
	r.set("wall_p50_ms", p50MS*hostPerVirtual)
	r.set("wall_p99_ms", p99MS*hostPerVirtual)
}

// check verifies that exactly the metrics of table were set, each finite.
func (r *report) check(table []spec) {
	want := map[string]bool{}
	for _, s := range table {
		want[s.name] = true
		v, ok := r.values[s.name]
		if !ok {
			r.problem("metric %s not reported", s.name)
		} else if math.IsNaN(v) || math.IsInf(v, 0) {
			r.problem("metric %s is %v", s.name, v)
			r.values[s.name] = 0
		}
	}
	for name := range r.values {
		if !want[name] {
			r.problem("metric %s reported but not declared", name)
		}
	}
}

// text renders the human-readable table: one line per metric with its unit
// and, for those taken over units, the units' quartiles beside it.
func (r *report) text(table []spec) string {
	out := fmt.Sprintf("workload %s: %d requests attempted, %d failed (failed_share %.6f)\n",
		r.workload, r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)))
	for _, s := range table {
		line := fmt.Sprintf("  %-38s %14.6g %-6s", s.name, r.values[s.name], s.unit)
		if q, ok := r.spread[s.name]; ok {
			line += fmt.Sprintf("  q1 %.6g  q3 %.6g  over %d units", q[0], q[1], r.units)
		}
		out += line + "\n"
	}
	for _, u := range r.perUnit {
		out += "  " + u.name + " per unit:"
		for _, v := range u.xs {
			out += fmt.Sprintf(" %.5g", v)
		}
		out += "\n"
	}
	for _, n := range r.notes {
		out += "  " + n + "\n"
	}
	for _, p := range r.problems {
		out += "  PROBLEM: " + p + "\n"
	}
	return out
}

// resultLine renders the driver's one-line JSON result, metrics in table
// order with every digit measured.
func (r *report) resultLine(table []spec) string {
	b := []byte(`{"correct":`)
	b = strconv.AppendBool(b, len(r.problems) == 0)
	b = append(b, `,"attempted":`...)
	b = strconv.AppendInt(b, r.attempted, 10)
	b = append(b, `,"failed":`...)
	b = strconv.AppendInt(b, r.failed, 10)
	b = append(b, `,"metrics":{`...)
	for i, s := range table {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, s.name)
		b = append(b, `:{"value":`...)
		b = strconv.AppendFloat(b, r.values[s.name], 'g', -1, 64)
		b = append(b, `,"unit":`...)
		b = strconv.AppendQuote(b, s.unit)
		b = append(b, '}')
	}
	return string(append(b, "}}"...))
}
