package workload

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"abacus/internal/dnn"
)

// goldenDigests returns the "workload tracev2" lines of GOLDEN.sha256 at
// the repository root, keyed by example file name.
func goldenDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("../../GOLDEN.sha256")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, label, ok := strings.Cut(sc.Text(), "  ")
		if name, found := strings.CutPrefix(label, "workload tracev2: "); ok && found {
			out[name] = sum
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestExampleSpecsPinned checks the tracev2 bytes each spec under
// examples/workloads materializes to, bound the way abacus workload binds
// it at its default -models and -seed, against the manifest's digest.
func TestExampleSpecsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests pinned on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	pinned := goldenDigests(t)
	paths, err := filepath.Glob("../../examples/workloads/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(pinned) {
		t.Fatalf("examples/workloads holds %d files, %d are pinned", len(paths), len(pinned))
	}
	for _, path := range paths {
		name := filepath.Base(path)
		t.Run(name, func(t *testing.T) {
			want, ok := pinned[name]
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
