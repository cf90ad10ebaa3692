package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSON holds BENCHMARK.json and the tables in metrics.go and
// workloads.go in step: same names, units, directions and bounds, in order.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n, u string) {
		if !name.MatchString(n) || !unit.MatchString(u) {
			t.Errorf("metric %q unit %q outside the allowed alphabet", n, u)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(f.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(f.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
		checkName(w.name, "x")
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(f.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, s := range endToEnd {
		m := f.EndToEnd[i]
		if m.Name != s.name || m.Unit != s.unit || m.Better != s.better || m.Bound != s.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, m, s)
		}
		if s.bound <= 0 || s.bound > 0.25 || (s.better != "lower" && s.better != "higher") {
			t.Errorf("metric %s: bound %v, better %q", s.name, s.bound, s.better)
		}
		hasSetup = hasSetup || (s.name == "setup_s" && s.unit == "s" && s.better == "lower")
		checkName(s.name, s.unit)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(f.PerLayer), len(perLayer))
	}
	for i, s := range perLayer {
		if m := f.PerLayer[i]; m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, m, s)
		}
		checkName(s.name, s.unit)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 || len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", f.RunSeconds, f.Paths)
	}
}

// simulated are the end-to-end metrics taken in virtual time: with one seed
// they must repeat bit for bit.
var simulated = []string{"goodput", "goodput_overload", "peak_qps_at_qos", "lat_p50_over_qos",
	"lat_p99_over_qos", "gpu_s_per_kgood"}

// TestWorkloads runs every workload at 1/50 scale, end to end and traced,
// and checks that each pass reports exactly its table's metrics with no
// correctness problem — which includes the traced pass's own check that
// layer self times add up to the root span within 2%.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped with -short")
	}
	for _, w := range workloadDefs {
		w := w
		t.Run(w.name, func(t *testing.T) {
			cfg := runCfg{seed: 7, seconds: 0.4, scale: 0.02}
			a := runWorkload(w, cfg, false)
			requireClean(t, a, endToEnd)
			if w.name == "pair-ladder" || w.name == "elastic-day" {
				b := runWorkload(w, cfg, false)
				requireClean(t, b, endToEnd)
				for _, m := range simulated {
					if a.values[m] != b.values[m] {
						t.Errorf("%s: %v then %v with the same seed", m, a.values[m], b.values[m])
					}
				}
			}
			cfg.traced = true
			cfg.traceOut = filepath.Join(t.TempDir(), "trace.json")
			l := runWorkload(w, cfg, false)
			requireClean(t, l, perLayer)
			if l.values["sim.events_per_req"] <= 0 || l.values["server.codec.decode_ns"] <= 0 {
				t.Errorf("traced replay recorded nothing: %v events per request, %v ns decode",
					l.values["sim.events_per_req"], l.values["server.codec.decode_ns"])
			}
			if fi, err := os.Stat(cfg.traceOut); err != nil || fi.Size() == 0 {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

func requireClean(t *testing.T, r *report, table []spec) {
	t.Helper()
	for _, p := range r.problems {
		t.Errorf("%s: %s", r.workload, p)
	}
	if len(r.values) != len(table) {
		t.Errorf("%s: %d metrics reported, table has %d", r.workload, len(r.values), len(table))
	}
	for _, s := range table {
		v, ok := r.values[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: metric %s missing or not finite (%v)", r.workload, s.name, v)
		}
	}
	if r.attempted < 1 || r.failed != 0 {
		t.Errorf("%s: attempted %d, failed %d", r.workload, r.attempted, r.failed)
	}
}

// TestFoldSelfTimes checks the self-time arithmetic on a hand-made trace:
// a root of 100 with children 30 and 50, the second holding a grandchild 20.
func TestFoldSelfTimes(t *testing.T) {
	r := newRecorder(8)
	r.n.Store(4)
	r.spans[0] = span{kind: spanReplay, parent: -1, start: 0, end: 100}
	r.spans[1] = span{kind: spanDecode, parent: 0, start: 5, end: 35}
	r.spans[2] = span{kind: spanDrive, parent: 0, start: 40, end: 90}
	r.spans[3] = span{kind: spanPredict, parent: 2, start: 50, end: 70}
	lt := r.fold()
	want := map[spanKind]int64{spanReplay: 20, spanDecode: 30, spanDrive: 30, spanPredict: 20}
	for k, v := range want {
		if lt.self[k] != v {
			t.Errorf("self time of %s = %d, want %d", spanNames[k], lt.self[k], v)
		}
	}
	if lt.selfSum() != 100 || lt.broken != 0 {
		t.Errorf("self times sum to %d with %d broken spans, want 100 and 0", lt.selfSum(), lt.broken)
	}
	r.spans[3].end = 150 // grandchild now covers more than its parent
	if r.fold().broken == 0 {
		t.Error("a child longer than its parent was not flagged")
	}
}
