package workload

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"abacus/internal/dnn"
)

// examplesSHA256 pins the tracev2 bytes each spec under examples/workloads
// materializes to, bound the way abacus workload binds it at its default
// -models and -seed.
var examplesSHA256 = map[string]string{
	"cohorts.json":      "edb6d91a321ac6bdd445d63fcdca1eef8f755093a49e7772cf407dfd2435decb",
	"diurnal-ramp.json": "bac3269b501d519e06ed4f6edc43105aaec28f3e5dea1f06cfbb762813a61add",
	"flash-crowd.json":  "9c546945690b697716e88b9313a9544cf7231cec35453d74b8bb199dfe247aa3",
	"heavy-tail.json":   "8a3dc63dfc78ee06b2da6a80c530f59e362a011566dd773eacee84f29e80cebd",
}

func TestExampleSpecsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests pinned on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	paths, err := filepath.Glob("../../examples/workloads/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(examplesSHA256) {
		t.Fatalf("examples/workloads holds %d files, %d are pinned", len(paths), len(examplesSHA256))
	}
	for _, path := range paths {
		name := filepath.Base(path)
		t.Run(name, func(t *testing.T) {
			want, ok := examplesSHA256[name]
			if !ok {
				t.Fatalf("%s has no pinned digest", name)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := Parse(data)
			if err != nil {
				t.Fatal(err)
			}
			models := []dnn.ModelID{dnn.ResNet152, dnn.InceptionV3}
			for _, s := range spec.Services {
				if s.Model != "" {
					models[s.Service], _ = dnn.ModelIDByName(s.Model)
				}
			}
			for _, co := range spec.Cohorts {
				if co.Model != "" {
					models[co.Service], _ = dnn.ModelIDByName(co.Model)
				}
			}
			c, err := spec.Bind(models, 1)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			meta := Meta{Name: spec.Name, Seed: c.Seed, DurationMS: spec.DurationMS, Services: len(models)}
			if err := WriteTrace(h, meta, c.Materialize()); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
				t.Errorf("tracev2 digest %s, want %s", got, want)
			}
		})
	}
}
