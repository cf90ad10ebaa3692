package workload

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"abacus/internal/dnn"
	"abacus/internal/trace"
)

var twoModels = []dnn.ModelID{dnn.ResNet152, dnn.Bert}

func mustBind(t *testing.T, s *Spec) *Compiled {
	t.Helper()
	c, err := s.Bind(twoModels, 42)
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	return c
}

// specKinds enumerates one spec per phase kind × process kind plus cohort
// and mixed shapes — the table the prefix law and determinism tests sweep.
func specKinds() map[string]*Spec {
	specs := map[string]*Spec{}
	phases := map[string]PhaseSpec{
		"constant": {Kind: PhaseConstant, QPS: 40},
		"ramp":     {Kind: PhaseRamp, QPS: 10, ToQPS: 70},
		"sine":     {Kind: PhaseSine, QPS: 40, Amplitude: 0.5, PeriodMS: 1500},
		"step":     {Kind: PhaseStep, QPS: 20, ToQPS: 60, AtMS: 2000},
		"flash":    {Kind: PhaseFlash, QPS: 10, PeakQPS: 120, PeakStartMS: 1500, PeakEndMS: 2500, RampMS: 200},
	}
	procs := map[string]ProcessSpec{
		"poisson": {},
		"gamma":   {Kind: ProcGamma, Shape: 0.4},
		"pareto":  {Kind: ProcPareto, Alpha: 1.6},
		"onoff":   {Kind: ProcOnOff, OnMS: 120, OffMS: 300, OffFactor: 0.1},
	}
	for pn, ph := range phases {
		for prn, pr := range procs {
			specs[pn+"/"+prn] = &Spec{
				Name:       pn + "-" + prn,
				Seed:       7,
				DurationMS: 4000,
				Services:   []ServiceSpec{{Service: 0, Process: pr, Phases: []PhaseSpec{ph}}},
			}
		}
	}
	specs["cohort"] = &Spec{
		Name:       "cohort",
		Seed:       7,
		DurationMS: 4000,
		Cohorts: []CohortSpec{{
			Service: 1, Clients: 50,
			Think:     ThinkSpec{Kind: ThinkLogNormal, MeanMS: 400, Sigma: 0.8},
			ServiceMS: 60,
		}},
	}
	specs["mixed"] = &Spec{
		Name:       "mixed",
		Seed:       7,
		DurationMS: 4000,
		Services: []ServiceSpec{
			{Service: 0, Phases: []PhaseSpec{
				{Kind: PhaseSine, QPS: 25, Amplitude: 0.4, PeriodMS: 2000},
				{Kind: PhaseFlash, QPS: 0, PeakQPS: 80, StartMS: 1000, EndMS: 3000,
					PeakStartMS: 1800, PeakEndMS: 2200, RampMS: 150},
			}},
			{Service: 1, Process: ProcessSpec{Kind: ProcGamma, Shape: 2.5},
				Phases: []PhaseSpec{{Kind: PhaseRamp, QPS: 5, ToQPS: 45}}},
		},
		Cohorts: []CohortSpec{{
			Service: 0, Clients: 20, Think: ThinkSpec{MeanMS: 500}, ServiceMS: 40,
		}},
	}
	return specs
}

// TestPrefixLaw is the generic lazy/materialized equivalence law: for every
// spec kind, the Source's first k arrivals are byte-identical to the first k
// entries of Materialize.
func TestPrefixLaw(t *testing.T) {
	for name, spec := range specKinds() {
		t.Run(name, func(t *testing.T) {
			c := mustBind(t, spec)
			all := c.Materialize()
			if len(all) == 0 {
				t.Fatal("spec produced no arrivals")
			}
			for _, k := range []int{1, 7, len(all) / 2, len(all)} {
				got := trace.Collect(c.Source(), k)
				if !reflect.DeepEqual(got, all[:k]) {
					t.Fatalf("first %d of Source differ from Materialize prefix", k)
				}
			}
			// The stream ends exactly where the slice does.
			src := c.Source()
			for range all {
				if _, ok := src.Next(); !ok {
					t.Fatal("source ended early")
				}
			}
			if a, ok := src.Next(); ok {
				t.Fatalf("source yielded extra arrival at %v", a.Time)
			}
		})
	}
}

// TestArrivalInvariants checks every generated arrival is inside the
// horizon, time-sorted, with inputs the bound models actually serve.
func TestArrivalInvariants(t *testing.T) {
	for name, spec := range specKinds() {
		t.Run(name, func(t *testing.T) {
			c := mustBind(t, spec)
			prev := 0.0
			for i, a := range c.Materialize() {
				if a.Time < prev || a.Time >= spec.DurationMS {
					t.Fatalf("arrival %d time %v outside sorted [0, %v)", i, a.Time, spec.DurationMS)
				}
				prev = a.Time
				if a.Service < 0 || a.Service >= len(twoModels) {
					t.Fatalf("arrival %d service %d out of range", i, a.Service)
				}
				m := dnn.Get(twoModels[a.Service])
				if a.Input.Batch < m.MinBatch || a.Input.Batch > m.MaxBatch {
					t.Fatalf("arrival %d batch %d outside [%d, %d]", i, a.Input.Batch, m.MinBatch, m.MaxBatch)
				}
				if m.IsSequence() == (a.Input.SeqLen == 0) {
					t.Fatalf("arrival %d seqlen %d inconsistent with model %s", i, a.Input.SeqLen, m.Name)
				}
			}
		})
	}
}

// TestDeterminism: same spec, same seed → identical arrivals; different
// seed → different arrivals.
func TestDeterminism(t *testing.T) {
	for name, spec := range specKinds() {
		t.Run(name, func(t *testing.T) {
			a := mustBind(t, spec).Materialize()
			b := mustBind(t, spec).Materialize()
			if !reflect.DeepEqual(a, b) {
				t.Fatal("same seed produced different arrivals")
			}
			reseeded := *spec
			reseeded.Seed = spec.Seed + 1
			c := mustBind(t, &reseeded).Materialize()
			if reflect.DeepEqual(a, c) {
				t.Fatal("different seed produced identical arrivals")
			}
		})
	}
}

// TestStreamIndependence is the knob-orthogonality contract: adding a
// service to a spec must not perturb the arrivals of the services already
// there.
func TestStreamIndependence(t *testing.T) {
	one := &Spec{
		Name: "one", Seed: 5, DurationMS: 3000,
		Services: []ServiceSpec{{Service: 0, Phases: []PhaseSpec{{Kind: PhaseConstant, QPS: 30}}}},
	}
	two := &Spec{
		Name: "two", Seed: 5, DurationMS: 3000,
		Services: []ServiceSpec{
			{Service: 0, Phases: []PhaseSpec{{Kind: PhaseConstant, QPS: 30}}},
			{Service: 1, Process: ProcessSpec{Kind: ProcPareto, Alpha: 2},
				Phases: []PhaseSpec{{Kind: PhaseConstant, QPS: 50}}},
		},
	}
	base := mustBind(t, one).Materialize()
	var svc0 []trace.Arrival
	for _, a := range mustBind(t, two).Materialize() {
		if a.Service == 0 {
			svc0 = append(svc0, a)
		}
	}
	if !reflect.DeepEqual(base, svc0) {
		t.Fatal("adding service 1 perturbed service 0's arrivals")
	}
}

// TestMeanRate checks the time-rescaled generator hits the phase envelope's
// mean for every process kind (the renewal gaps are unit-mean, so counts
// must match ∫r dt within sampling noise).
func TestMeanRate(t *testing.T) {
	for _, proc := range []ProcessSpec{
		{},
		{Kind: ProcGamma, Shape: 0.4},
		{Kind: ProcGamma, Shape: 3},
		{Kind: ProcPareto, Alpha: 1.8},
		{Kind: ProcOnOff, OnMS: 150, OffMS: 350, OffFactor: 0.2},
	} {
		name := proc.Kind
		if name == "" {
			name = "poisson"
		}
		t.Run(name, func(t *testing.T) {
			spec := &Spec{
				Name: "rate", Seed: 11, DurationMS: 120_000,
				Services: []ServiceSpec{{Service: 0, Process: proc,
					Phases: []PhaseSpec{{Kind: PhaseConstant, QPS: 50}}}},
			}
			got := float64(len(mustBind(t, spec).Materialize())) / (spec.DurationMS / 1000)
			if math.Abs(got-50) > 5 {
				t.Fatalf("mean rate %.1f qps, want 50±5", got)
			}
		})
	}
}

// TestRampShape checks time-varying envelopes actually vary: a 0→60 ramp
// must put far more arrivals in the last quarter than the first.
func TestRampShape(t *testing.T) {
	spec := &Spec{
		Name: "rampshape", Seed: 3, DurationMS: 20_000,
		Services: []ServiceSpec{{Service: 0,
			Phases: []PhaseSpec{{Kind: PhaseRamp, QPS: 0, ToQPS: 60}}}},
	}
	var first, last int
	for _, a := range mustBind(t, spec).Materialize() {
		switch {
		case a.Time < 5000:
			first++
		case a.Time >= 15_000:
			last++
		}
	}
	if last < 4*first {
		t.Fatalf("ramp not rising: %d arrivals in first quarter, %d in last", first, last)
	}
}

// TestFlashShape checks the flash phase surges: peak-window rate must dwarf
// the baseline.
func TestFlashShape(t *testing.T) {
	spec := &Spec{
		Name: "flashshape", Seed: 3, DurationMS: 10_000,
		Services: []ServiceSpec{{Service: 0, Phases: []PhaseSpec{{
			Kind: PhaseFlash, QPS: 10, PeakQPS: 200,
			PeakStartMS: 4000, PeakEndMS: 6000, RampMS: 300,
		}}}},
	}
	var peak, off int
	for _, a := range mustBind(t, spec).Materialize() {
		if a.Time >= 4000 && a.Time < 6000 {
			peak++
		} else if a.Time < 3000 {
			off++
		}
	}
	peakRate := float64(peak) / 2 // per second
	offRate := float64(off) / 3
	if peakRate < 10*offRate {
		t.Fatalf("flash peak %.0f qps vs baseline %.0f qps: surge missing", peakRate, offRate)
	}
}

// TestOnOffBurstiness: the MMPP modulator must make per-100ms counts far
// more variable than Poisson at the same mean (index of dispersion ≫ 1).
func TestOnOffBurstiness(t *testing.T) {
	dispersion := func(proc ProcessSpec) float64 {
		spec := &Spec{
			Name: "disp", Seed: 9, DurationMS: 60_000,
			Services: []ServiceSpec{{Service: 0, Process: proc,
				Phases: []PhaseSpec{{Kind: PhaseConstant, QPS: 80}}}},
		}
		counts := make([]float64, 600)
		for _, a := range mustBind(t, spec).Materialize() {
			counts[int(a.Time/100)]++
		}
		var mean, varr float64
		for _, c := range counts {
			mean += c
		}
		mean /= float64(len(counts))
		for _, c := range counts {
			varr += (c - mean) * (c - mean)
		}
		varr /= float64(len(counts))
		return varr / mean
	}
	poisson := dispersion(ProcessSpec{})
	bursty := dispersion(ProcessSpec{Kind: ProcOnOff, OnMS: 200, OffMS: 600})
	if poisson > 2 {
		t.Fatalf("poisson dispersion %.2f, want ≈1", poisson)
	}
	if bursty < 3*poisson {
		t.Fatalf("onoff dispersion %.2f not much above poisson %.2f", bursty, poisson)
	}
}

// TestCohortClosedLoop checks cohort load self-limits: a population of C
// clients can never exceed C in-flight cycles, so offered rate tops out at
// C/(think+service) regardless of how small think gets drawn.
func TestCohortClosedLoop(t *testing.T) {
	spec := &Spec{
		Name: "closed", Seed: 13, DurationMS: 30_000,
		Cohorts: []CohortSpec{{
			Service: 0, Clients: 40,
			Think:     ThinkSpec{Kind: ThinkConstant, MeanMS: 100},
			ServiceMS: 100,
		}},
	}
	got := mustBind(t, spec).Materialize()
	// Constant think: each client fires exactly every 200 ms after its
	// offset, so the rate is exactly 200 qps.
	rate := float64(len(got)) / 30
	if math.Abs(rate-200) > 10 {
		t.Fatalf("closed-loop rate %.1f qps, want 200±10", rate)
	}
	// Per-client gap must be exactly think+service.
	for i := 1; i < len(got); i++ {
		if got[i].Time < got[i-1].Time {
			t.Fatalf("cohort arrivals unsorted at %d", i)
		}
	}
}

// TestCohortSeedPerClient: client streams derive from (cohort, client)
// index, so enlarging the population leaves existing clients' schedules
// untouched.
func TestCohortSeedPerClient(t *testing.T) {
	build := func(clients int) []trace.Arrival {
		spec := &Spec{
			Name: "grow", Seed: 21, DurationMS: 5000,
			Cohorts: []CohortSpec{{
				Service: 0, Clients: clients,
				Think: ThinkSpec{MeanMS: 300}, ServiceMS: 50,
			}},
		}
		return mustBind(t, spec).Materialize()
	}
	small, big := build(5), build(6)
	// Every arrival of the 5-client run must appear in the 6-client run
	// (the extra client only adds arrivals).
	idx := 0
	for _, a := range small {
		found := false
		for ; idx < len(big); idx++ {
			if big[idx] == a {
				found = true
				idx++
				break
			}
		}
		if !found {
			t.Fatalf("arrival %+v from 5-client cohort missing after growing to 6", a)
		}
	}
}

// TestSummary sanity-checks the preflight digest against materialized counts.
func TestSummary(t *testing.T) {
	spec := &Spec{
		Name: "sum", Seed: 17, DurationMS: 30_000,
		Services: []ServiceSpec{
			{Service: 0, Phases: []PhaseSpec{{Kind: PhaseConstant, QPS: 40}}},
		},
		Cohorts: []CohortSpec{{
			Service: 1, Clients: 30,
			Think: ThinkSpec{Kind: ThinkConstant, MeanMS: 200}, ServiceMS: 100,
		}},
	}
	c := mustBind(t, spec)
	sum := c.Summary()
	if len(sum) != 2 {
		t.Fatalf("summary has %d services, want 2", len(sum))
	}
	if sum[0].Service != 0 || math.Abs(sum[0].MeanQPS-40) > 0.5 || sum[0].Model != "Res152" {
		t.Fatalf("service 0 summary %+v, want mean 40 qps of Res152", sum[0])
	}
	if sum[1].Service != 1 || math.Abs(sum[1].MeanQPS-100) > 0.5 {
		t.Fatalf("service 1 summary %+v, want cohort mean 100 qps", sum[1])
	}
	counts := map[int]int{}
	for _, a := range c.Materialize() {
		counts[a.Service]++
	}
	for _, s := range sum {
		got := float64(counts[s.Service]) / 30
		if math.Abs(got-s.MeanQPS) > 0.15*s.MeanQPS {
			t.Fatalf("service %d materialized %.1f qps vs summary %.1f", s.Service, got, s.MeanQPS)
		}
	}
}

func TestBindRejects(t *testing.T) {
	cases := map[string]*Spec{
		"service-out-of-range": {Name: "x", DurationMS: 1000,
			Services: []ServiceSpec{{Service: 2, Phases: []PhaseSpec{{Kind: PhaseConstant, QPS: 1}}}}},
		"model-mismatch": {Name: "x", DurationMS: 1000,
			Services: []ServiceSpec{{Service: 0, Model: "VGG16", Phases: []PhaseSpec{{Kind: PhaseConstant, QPS: 1}}}}},
		"batch-out-of-envelope": {Name: "x", DurationMS: 1000,
			Services: []ServiceSpec{{Service: 0, Input: &InputSpec{Batch: 64},
				Phases: []PhaseSpec{{Kind: PhaseConstant, QPS: 1}}}}},
		"seqlen-on-cv-model": {Name: "x", DurationMS: 1000,
			Services: []ServiceSpec{{Service: 0, Input: &InputSpec{Batch: 8, SeqLen: 16},
				Phases: []PhaseSpec{{Kind: PhaseConstant, QPS: 1}}}}},
		"seqlen-not-served": {Name: "x", DurationMS: 1000,
			Services: []ServiceSpec{{Service: 1, Input: &InputSpec{Batch: 8, SeqLen: 7},
				Phases: []PhaseSpec{{Kind: PhaseConstant, QPS: 1}}}}},
		"batch-below-envelope": {Name: "x", DurationMS: 1000,
			Services: []ServiceSpec{{Service: 0, Input: &InputSpec{Batch: 2},
				Phases: []PhaseSpec{{Kind: PhaseConstant, QPS: 1}}}}},
		"seqlen-missing-on-sequence-model": {Name: "x", DurationMS: 1000,
			Services: []ServiceSpec{{Service: 1, Input: &InputSpec{Batch: 8},
				Phases: []PhaseSpec{{Kind: PhaseConstant, QPS: 1}}}}},
		"cohort-batch-out-of-envelope": {Name: "x", DurationMS: 1000,
			Cohorts: []CohortSpec{{Service: 0, Clients: 3, Think: ThinkSpec{MeanMS: 10},
				Input: &InputSpec{Batch: 64}}}},
		"cohort-service-out-of-range": {Name: "x", DurationMS: 1000,
			Cohorts: []CohortSpec{{Service: 9, Clients: 3, Think: ThinkSpec{MeanMS: 10}}}},
	}
	for name, spec := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := spec.Bind(twoModels, 1); err == nil {
				t.Fatal("Bind accepted an invalid deployment binding")
			}
		})
	}
}

func TestValidateRejects(t *testing.T) {
	base := func() *Spec {
		return &Spec{Name: "v", DurationMS: 1000,
			Services: []ServiceSpec{{Service: 0, Phases: []PhaseSpec{{Kind: PhaseConstant, QPS: 5}}}}}
	}
	cases := map[string]func(*Spec){
		"no-name":       func(s *Spec) { s.Name = "" },
		"zero-duration": func(s *Spec) { s.DurationMS = 0 },
		"empty":         func(s *Spec) { s.Services = nil },
		"no-phases":     func(s *Spec) { s.Services[0].Phases = nil },
		"bad-kind":      func(s *Spec) { s.Services[0].Phases[0].Kind = "spike" },
		"window-backwards": func(s *Spec) {
			s.Services[0].Phases[0].StartMS = 900
			s.Services[0].Phases[0].EndMS = 100
		},
		"gamma-no-shape": func(s *Spec) { s.Services[0].Process = ProcessSpec{Kind: ProcGamma} },
		"pareto-alpha-1": func(s *Spec) { s.Services[0].Process = ProcessSpec{Kind: ProcPareto, Alpha: 1} },
		"onoff-no-durations": func(s *Spec) {
			s.Services[0].Process = ProcessSpec{Kind: ProcOnOff, OffFactor: 0.5}
		},
		"flash-peak-outside": func(s *Spec) {
			s.Services[0].Phases[0] = PhaseSpec{Kind: PhaseFlash, QPS: 1, PeakQPS: 10,
				PeakStartMS: 800, PeakEndMS: 1200}
		},
		"sine-amplitude": func(s *Spec) {
			s.Services[0].Phases[0] = PhaseSpec{Kind: PhaseSine, QPS: 5, Amplitude: 1.5}
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			s := base()
			mutate(s)
			if err := s.Validate(); err == nil {
				t.Fatal("Validate accepted a bad spec")
			}
		})
	}
}

func TestParseJSON(t *testing.T) {
	src := `{
		"name": "demo", "seed": 4, "duration_ms": 2000,
		"services": [
			{"service": 0, "process": {"kind": "gamma", "shape": 0.5},
			 "phases": [{"kind": "constant", "qps": 20}]}
		]
	}`
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Name != "demo" || s.Services[0].Process.Shape != 0.5 {
		t.Fatalf("parsed %+v", s)
	}
	for name, bad := range map[string]string{
		"unknown-field":  `{"name": "x", "duration_ms": 100, "bogus": 1}`,
		"misspelt-phase": strings.Replace(src, `"qps"`, `"qsp"`, 1),
		"trailing-junk":  src + " trailing junk",
		"second-object":  src + src,
		"stray-brace":    src + "}",
		"yaml":           "name: demo\nseed: 4\nduration_ms: 2000\n",
		"empty":          "  ",
	} {
		if _, err := Parse([]byte(bad)); err == nil {
			t.Errorf("%s: Parse accepted %q", name, bad)
		}
	}
}

func TestTraceV2RoundTrip(t *testing.T) {
	for name, spec := range specKinds() {
		t.Run(name, func(t *testing.T) {
			c := mustBind(t, spec)
			arrivals := c.Materialize()
			meta := Meta{Name: spec.Name, Seed: spec.Seed, DurationMS: spec.DurationMS, Services: len(twoModels)}

			var buf1 bytes.Buffer
			if err := WriteTrace(&buf1, meta, arrivals); err != nil {
				t.Fatalf("WriteTrace: %v", err)
			}
			gotMeta, gotArrivals, err := ReadTrace(bytes.NewReader(buf1.Bytes()))
			if err != nil {
				t.Fatalf("ReadTrace: %v", err)
			}
			if gotMeta != meta {
				t.Fatalf("meta round-trip %+v != %+v", gotMeta, meta)
			}
			if !reflect.DeepEqual(gotArrivals, arrivals) {
				t.Fatal("arrivals not preserved")
			}
			var buf2 bytes.Buffer
			if err := WriteTrace(&buf2, gotMeta, gotArrivals); err != nil {
				t.Fatalf("re-WriteTrace: %v", err)
			}
			if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
				t.Fatal("tracev2 round trip is not byte-identical")
			}
		})
	}
}

// sealed completes a tracev2 body with its checksum line, so a test or fuzz
// input reaches row parsing.
func sealed(body string) string {
	h := fnv.New64a()
	h.Write([]byte(body))
	return fmt.Sprintf("%s%s%016x\n", body, tracev2Sum, h.Sum64())
}

func TestTraceV2RejectsCorruption(t *testing.T) {
	c := mustBind(t, specKinds()["constant/poisson"])
	meta := Meta{Name: "x", Seed: 7, DurationMS: 4000, Services: 2}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, meta, c.Materialize()); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	good := buf.String()
	head := "#tracev2 v1\n#meta name=x seed=7 duration_ms=4000 services=2\ntime_ms,service,batch,seqlen\n"
	if _, _, err := ReadTrace(strings.NewReader(sealed(head + "1.5,1,8,0\n"))); err != nil {
		t.Fatalf("ReadTrace rejected a hand-sealed file: %v", err)
	}

	mutations := map[string]string{
		"flipped-row":  strings.Replace(good, ",0,", ",1,", 1),
		"truncated":    good[:len(good)-40],
		"no-magic":     strings.TrimPrefix(good, tracev2Magic+"\n"),
		"edited-meta":  strings.Replace(good, "seed=7", "seed=8", 1),
		"bad-checksum": good[:len(good)-17] + "0000000000000000\n",
		"after-sum":    good + "\n",
		"nan-time":     sealed(head + "NaN,0,1,0\n"),
		"neg-seqlen":   sealed(head + "1,0,1,-7\n"),
		"neg-time":     sealed(head + "-5,0,4,0\n"),
		"bad-number":   sealed(head + "xx,0,4,0\n"),
		"bad-service":  sealed(head + "1,9,4,0\n"),
		"zero-batch":   sealed(head + "1,0,0,0\n"),
		"short-row":    sealed(head + "1,0\n"),
		"blank-row":    sealed(head + "1,0,4,0\n\n"),
		"padded-time":  sealed(head + "1.50,0,4,0\n"),
		"meta-order":   sealed(strings.Replace(head, "seed=7 duration_ms=4000", "duration_ms=4000 seed=7", 1)),
	}
	for name, bad := range mutations {
		t.Run(name, func(t *testing.T) {
			if _, _, err := ReadTrace(strings.NewReader(bad)); err == nil {
				t.Fatal("ReadTrace accepted a corrupted file")
			}
		})
	}

	for name, a := range map[string]trace.Arrival{
		"nan-time":   {Time: math.NaN(), Input: dnn.Input{Batch: 1}},
		"neg-seqlen": {Time: 1, Input: dnn.Input{Batch: 1, SeqLen: -7}},
	} {
		if err := WriteTrace(io.Discard, meta, []trace.Arrival{a}); err == nil {
			t.Errorf("%s: WriteTrace accepted %+v", name, a)
		}
	}
}

// FuzzReadTrace seals arbitrary bytes with a valid checksum line so they
// reach row parsing: ReadTrace must never panic, and any file it accepts
// must be exactly what WriteTrace writes for its contents.
func FuzzReadTrace(f *testing.F) {
	head := "#tracev2 v1\n#meta name=x seed=7 duration_ms=4000 services=2\ntime_ms,service,batch,seqlen\n"
	for _, body := range []string{head, head + "1.5,1,8,0\n2,0,4,128\n", head + "NaN,0,1,-7\n", head + "1e3,0,4,0\n"} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		file := sealed(string(body))
		meta, arrivals, err := ReadTrace(strings.NewReader(file))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteTrace(&out, meta, arrivals); err != nil {
			t.Fatalf("WriteTrace rejected what ReadTrace accepted: %v", err)
		}
		if out.String() != file {
			t.Fatalf("accepted file does not rewrite byte-identically:\n%q\n%q", file, out.String())
		}
	})
}

func TestTraceV2NameEscaping(t *testing.T) {
	meta := Meta{Name: "spaces & =signs", Seed: 1, DurationMS: 100, Services: 1}
	arr := []trace.Arrival{{Time: 1.5, Service: 0, Input: dnn.Input{Batch: 8}}}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, meta, arr); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	got, _, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if got.Name != meta.Name {
		t.Fatalf("name round-trip %q != %q", got.Name, meta.Name)
	}
}

func TestSubSeedIndependence(t *testing.T) {
	seen := map[uint64]bool{}
	for svc := uint64(0); svc < 100; svc++ {
		for _, salt := range []uint64{saltService, saltMod, saltCohort} {
			s := SubSeed(42, salt, svc)
			if seen[s] {
				t.Fatalf("SubSeed collision at salt %#x svc %d", salt, svc)
			}
			seen[s] = true
		}
	}
}

func TestPRNGDistributions(t *testing.T) {
	const n = 200_000
	mean := func(draw func(*PRNG) float64) float64 {
		r := NewPRNG(99)
		var sum float64
		for i := 0; i < n; i++ {
			sum += draw(r)
		}
		return sum / n
	}
	cases := map[string]func(*PRNG) float64{
		"exp":       func(r *PRNG) float64 { return r.Exp() },
		"gamma0.3":  func(r *PRNG) float64 { return r.Gamma(0.3) / 0.3 },
		"gamma4":    func(r *PRNG) float64 { return r.Gamma(4) / 4 },
		"pareto1.5": func(r *PRNG) float64 { return r.Pareto(1.5) },
		"lognormal": func(r *PRNG) float64 { return r.LogNormal(1, 1) },
	}
	for name, draw := range cases {
		tol := 0.05
		if strings.HasPrefix(name, "pareto") {
			tol = 0.25 // infinite-variance tail converges slowly
		}
		if m := mean(draw); math.Abs(m-1) > tol {
			t.Errorf("%s mean %.3f, want 1±%.2f", name, m, tol)
		}
	}
}
