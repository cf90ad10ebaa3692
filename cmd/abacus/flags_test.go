package main

import (
	"strings"
	"testing"

	"abacus/internal/dnn"
	"abacus/internal/serving"
)

func TestParseModels(t *testing.T) {
	models, err := parseModels(" Res152, IncepV3 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 || models[0] != dnn.ResNet152 || models[1] != dnn.InceptionV3 {
		t.Errorf("parsed %v", models)
	}
	for _, bad := range []string{"", ",", "Res152,NoSuchNet"} {
		if _, err := parseModels(bad); err == nil {
			t.Errorf("parseModels(%q) accepted", bad)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	cases := map[string]serving.PolicyKind{
		"FCFS":        serving.PolicyFCFS,
		"sjf":         serving.PolicySJF,
		"Edf":         serving.PolicyEDF,
		"Abacus":      serving.PolicyAbacus,
		"ABACUS":      serving.PolicyAbacus,
		"mps":         serving.PolicyMPS,
		"KernelLevel": serving.PolicyKernelLevel,
	}
	for name, want := range cases {
		got, err := parsePolicy(name)
		if err != nil || got != want {
			t.Errorf("parsePolicy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := parsePolicy("RoundRobin"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestVersion(t *testing.T) {
	v := version()
	if !strings.HasPrefix(v, "abacus ") || !strings.Contains(v, "go") {
		t.Errorf("version() = %q", v)
	}
}
