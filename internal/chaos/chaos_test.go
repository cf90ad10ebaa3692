package chaos

import (
	"reflect"
	"testing"

	"abacus/internal/admit"
)

// TestThrottleAcceptance is the PR's headline claim: a 50% GPU throttle
// window causes SLO violations when the gateway trusts its healthy
// predictor, while degraded mode holds the deadline-met rate among admitted
// queries at >= 99% by shedding the load the slowed device cannot carry.
func TestThrottleAcceptance(t *testing.T) {
	undegraded, ok := Lookup("throttle50")
	if !ok {
		t.Fatal("throttle50 scenario missing")
	}
	degraded, ok := Lookup("throttle50-degraded")
	if !ok {
		t.Fatal("throttle50-degraded scenario missing")
	}

	without, err := Run(undegraded)
	if err != nil {
		t.Fatal(err)
	}
	if without.Violated+without.Dropped == 0 {
		t.Errorf("throttle without degraded mode shows no violations: %s", without.Text())
	}
	if without.Goodput >= 0.99 {
		t.Errorf("throttle without degraded mode kept goodput %.4f >= 0.99 — fault too weak", without.Goodput)
	}

	with, err := Run(degraded)
	if err != nil {
		t.Fatal(err)
	}
	if with.Goodput < 0.99 {
		t.Errorf("degraded mode goodput %.4f < 0.99:\n%s", with.Goodput, with.Text())
	}
	if with.DegradeTransitions == 0 || with.RejectedDegraded == 0 {
		t.Errorf("degraded mode never engaged: %s", with.Text())
	}
	if with.Goodput <= without.Goodput {
		t.Errorf("degraded mode did not improve goodput: %.4f vs %.4f", with.Goodput, without.Goodput)
	}
}

// TestReportConservation checks the request-accounting invariants every
// scenario must satisfy after drain.
func TestReportConservation(t *testing.T) {
	for _, sc := range Scenarios() {
		rep, err := Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if rep.Admitted != rep.Completed+rep.Dropped {
			t.Errorf("%s: admitted %d != completed %d + dropped %d",
				sc.Name, rep.Admitted, rep.Completed, rep.Dropped)
		}
		if rep.Completed != rep.Good+rep.Violated {
			t.Errorf("%s: completed %d != good %d + violated %d",
				sc.Name, rep.Completed, rep.Good, rep.Violated)
		}
		if rep.Sent != rep.Admitted+rep.GaveUp {
			t.Errorf("%s: sent %d != admitted %d + gave_up %d",
				sc.Name, rep.Sent, rep.Admitted, rep.GaveUp)
		}
		if rep.Attempts != rep.Sent+rep.Retries {
			t.Errorf("%s: attempts %d != sent %d + retries %d",
				sc.Name, rep.Attempts, rep.Sent, rep.Retries)
		}
	}
}

// TestParallelDeterminism: the full built-in suite produces byte-identical
// reports at any worker-pool width.
func TestParallelDeterminism(t *testing.T) {
	scs := Scenarios()
	serial, err := RunAll(scs, 1)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := RunAll(scs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, wide) {
		t.Fatal("reports differ between parallel widths 1 and 8")
	}
	for i := range scs {
		again, err := Run(scs[i])
		if err != nil {
			t.Fatal(err)
		}
		if serial[i].Text() != again.Text() {
			t.Errorf("%s: report text not reproducible:\n%s\nvs\n%s",
				scs[i].Name, serial[i].Text(), again.Text())
		}
		j1, err := serial[i].JSON()
		if err != nil {
			t.Fatal(err)
		}
		j2, err := again.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(j1) != string(j2) {
			t.Errorf("%s: JSON not byte-identical", scs[i].Name)
		}
	}
}

// TestPredictCacheTransparency is the hard invariant of the memoization
// layer: running a scenario with the oracle cache on yields a report
// byte-identical to the cache-off run, modulo the scenario name. The cache
// sits below the perturbation layer, so it must never change a single
// counter, percentile, or per-service line.
func TestPredictCacheTransparency(t *testing.T) {
	base, ok := Lookup("baseline")
	if !ok {
		t.Fatal("baseline scenario missing")
	}
	cached, ok := Lookup("baseline-cached")
	if !ok {
		t.Fatal("baseline-cached scenario missing")
	}
	if cached.PredictCache <= 0 {
		t.Fatal("baseline-cached does not enable the cache")
	}
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(cached)
	if err != nil {
		t.Fatal(err)
	}
	got.Name = want.Name
	j1, err := want.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := got.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Errorf("cache-on report differs from cache-off:\n%s\nvs\n%s", j1, j2)
	}
	// The transparency claim holds under faults and tiny capacities too:
	// eviction churn may cost hits but never changes behavior.
	fault, _ := Lookup("throttle50-degraded")
	want, err = Run(fault)
	if err != nil {
		t.Fatal(err)
	}
	fault.PredictCache = 7
	got, err = Run(fault)
	if err != nil {
		t.Fatal(err)
	}
	if want.Text() != got.Text() {
		t.Errorf("tiny cache changed a faulted report:\n%svs\n%s", want.Text(), got.Text())
	}
}

// TestFlakyClientsRecoverViaRetries: transit faults cost attempts but the
// retry + idempotency path keeps delivered goodput intact.
func TestFlakyClientsRecoverViaRetries(t *testing.T) {
	sc, ok := Lookup("flaky-clients")
	if !ok {
		t.Fatal("flaky-clients scenario missing")
	}
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FaultDrops == 0 || rep.FaultDuplicates == 0 || rep.FaultMalformed == 0 {
		t.Fatalf("fault windows did not fire: %s", rep.Text())
	}
	if rep.Retries == 0 {
		t.Fatalf("drops caused no retries: %s", rep.Text())
	}
	if rep.Goodput < 0.99 {
		t.Errorf("flaky clients broke goodput %.4f despite retries:\n%s", rep.Goodput, rep.Text())
	}
}

// TestMispredictRecovery: a predictor reporting 60% of true latency admits
// too much; the divergence tracker catches it from completions.
func TestMispredictRecovery(t *testing.T) {
	sc, ok := Lookup("mispredict")
	if !ok {
		t.Fatal("mispredict scenario missing")
	}
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DegradeTransitions == 0 {
		t.Errorf("predictor bias never tripped degraded mode: %s", rep.Text())
	}
	if rep.Goodput < 0.99 {
		t.Errorf("mispredict goodput %.4f < 0.99:\n%s", rep.Goodput, rep.Text())
	}
}

func TestScriptParsing(t *testing.T) {
	jsonScript := []byte(`{"windows": [
		{"kind": "gpu_throttle", "start_ms": 100, "end_ms": 200, "magnitude": 0.5, "mem": 0.8},
		{"kind": "drop", "start_ms": 0, "end_ms": 50, "magnitude": 0.1}
	]}`)
	js, err := ParseScript(jsonScript)
	if err != nil {
		t.Fatal(err)
	}
	want := Script{Windows: []Window{
		{Kind: KindGPUThrottle, Start: 100, End: 200, Magnitude: 0.5, Mem: 0.8},
		{Kind: KindDrop, Start: 0, End: 50, Magnitude: 0.1},
	}}
	if !reflect.DeepEqual(js, want) {
		t.Errorf("parsed %+v, want %+v", js, want)
	}

	window := func(w string) string { return `{"windows": [` + w + `]}` }
	for name, bad := range map[string]string{
		"unknown kind":     window(`{"kind": "warp_drive", "start_ms": 0, "end_ms": 10, "magnitude": 0.5}`),
		"backward window":  window(`{"kind": "drop", "start_ms": 10, "end_ms": 5, "magnitude": 0.5}`),
		"probability > 1":  window(`{"kind": "drop", "start_ms": 0, "end_ms": 10, "magnitude": 1.5}`),
		"zero throttle":    window(`{"kind": "gpu_throttle", "start_ms": 0, "end_ms": 10, "magnitude": 0}`),
		"noise >= 1":       window(`{"kind": "predictor_noise", "start_ms": 0, "end_ms": 10, "magnitude": 1}`),
		"overlapping kind": window(`{"kind": "drop", "start_ms": 0, "end_ms": 10, "magnitude": 0.5}, {"kind": "drop", "start_ms": 5, "end_ms": 15, "magnitude": 0.5}`),
		"misspelt key":     window(`{"kind": "drop", "start_ms": 0, "end_ms": 10, "probability": 0.1}`),
		"misspelt node":    window(`{"kind": "gpu_throttle", "start_ms": 0, "end_ms": 10, "magnitude": 0.5, "node_id": 2}`),
		"unknown top key":  `{"windows": [], "seed": 3}`,
		"trailing data":    string(jsonScript) + " trailing junk",
		"bare array":       `[{"kind": "drop", "start_ms": 0, "end_ms": 50, "magnitude": 0.1}]`,
		"csv rows":         "kind,start_ms,end_ms,magnitude\ndrop,0,50,0.1\n",
		"empty":            "   ",
	} {
		if _, err := ParseScript([]byte(bad)); err == nil {
			t.Errorf("%s: ParseScript accepted %q", name, bad)
		}
	}
}

// TestScenarioScriptValidation: Run rejects invalid scripts up front.
func TestScenarioScriptValidation(t *testing.T) {
	_, err := Run(Scenario{
		Name:   "bad",
		Script: Script{Windows: []Window{{Kind: "nope", Start: 0, End: 1, Magnitude: 1}}},
	})
	if err == nil {
		t.Fatal("Run accepted an invalid script")
	}
}

// TestDegradeDisabledByScenario: the undegraded baseline really runs with
// margin pinned at 1 (no shed, no transitions) even under divergence.
func TestDegradeDisabledByScenario(t *testing.T) {
	rep, err := Run(Scenario{
		Name:    "throttle-nodegrade",
		Seed:    11,
		Script:  Script{Windows: []Window{{Kind: KindGPUThrottle, Start: 1000, End: 5000, Magnitude: 0.5}}},
		Degrade: admit.DegradeConfig{Disabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RejectedDegraded != 0 || rep.DegradeTransitions != 0 || rep.DegradeShed != 0 {
		t.Errorf("disabled degrade acted: %s", rep.Text())
	}
}
