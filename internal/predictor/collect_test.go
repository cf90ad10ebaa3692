package predictor

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"abacus/internal/dnn"
	"abacus/internal/runner"
)

// sequentialCollect is the one-goroutine collection loop Collect replaced:
// draw a group, then measure it Runs times, the noise seed counting up from
// cfg.Seed across every measurement of the run.
func sequentialCollect(models []dnn.ModelID, k, perCombo int, cfg SamplerConfig) []Sample {
	s := NewSampler(cfg)
	seed := cfg.Seed
	var out []Sample
	for _, combo := range Combinations(models, k) {
		for i := 0; i < perCombo; i++ {
			g := s.SampleGroup(combo)
			lat := make([]float64, cfg.Runs)
			for r := range lat {
				seed++
				lat[r] = Measure(g, cfg.Profile, cfg.NoiseSigma, seed)
			}
			var mean float64
			for _, l := range lat {
				mean += l
			}
			mean /= float64(len(lat))
			var ss float64
			for _, l := range lat {
				d := l - mean
				ss += d * d
			}
			std := 0.0
			if len(lat) > 1 {
				std = math.Sqrt(ss / float64(len(lat)))
			}
			out = append(out, Sample{Group: g, Latency: mean, StdDev: std})
		}
	}
	return out
}

// TestCollectWidthIndependent holds Collect's samples to the sequential
// loop bit for bit at runner widths 1 and 4: same groups in the same order,
// same latencies and stddevs. A sequence model is in the mix so the spec
// table's sequence-length slots are exercised too.
func TestCollectWidthIndependent(t *testing.T) {
	cfg := DefaultSamplerConfig()
	cfg.Runs = 3
	cfg.Seed = 11
	models := []dnn.ModelID{dnn.ResNet152, dnn.InceptionV3, dnn.Bert}
	defer runner.SetDefaultParallel(0)
	for k := 1; k <= 2; k++ {
		want := sequentialCollect(models, k, 12, cfg)
		for _, width := range []int{1, 4} {
			runner.SetDefaultParallel(width)
			got := Collect(models, k, 12, cfg)
			if len(got) != len(want) {
				t.Fatalf("k=%d width %d: %d samples, want %d", k, width, len(got), len(want))
			}
			for i := range got {
				g, w := got[i], want[i]
				if fmt.Sprint(g.Group) != fmt.Sprint(w.Group) ||
					math.Float64bits(g.Latency) != math.Float64bits(w.Latency) ||
					math.Float64bits(g.StdDev) != math.Float64bits(w.StdDev) {
					t.Fatalf("k=%d width %d sample %d: %+v, want %+v", k, width, i, g, w)
				}
			}
		}
	}
}

// goldenDigest returns the SHA-256 that GOLDEN.sha256 at the repository
// root records for the artifact named label.
func goldenDigest(t *testing.T, label string) string {
	t.Helper()
	f, err := os.Open("../../GOLDEN.sha256")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if sum, name, ok := strings.Cut(sc.Text(), "  "); ok && name == label {
			return sum
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	t.Fatalf("GOLDEN.sha256 has no line %q", label)
	return ""
}

// TestTrainedWeightsPinned trains a small run shaped like the benchmark's
// (the §7.3 pair at co-location degrees 1 and 2, the default sampler and
// training settings, fewer samples and epochs) with one Collect call per
// degree and compares the SHA-256 of the saved predictor with the
// manifest's "predictor weights" line, which TestGolden in cmd/abacus
// renders through CollectDegrees. Any change to sampling, measurement or
// training arithmetic shows, and so does any drift between the two
// collection paths. It runs on amd64 only: other architectures may fuse
// multiply-adds, which moves the low bits.
func TestTrainedWeightsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest pinned on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	want := goldenDigest(t, "predictor weights: Res152,IncepV3 k<=2")
	pair := []dnn.ModelID{dnn.ResNet152, dnn.InceptionV3}
	var samples []Sample
	for k := 1; k <= 2; k++ {
		samples = append(samples, Collect(pair, k, 40, DefaultSamplerConfig())...)
	}
	tc := DefaultTrainConfig()
	tc.Epochs = 30
	p, err := Train(samples, NewCodec(), tc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Errorf("trained weights digest %s, want %s", got, want)
	}
}

// BenchmarkCollect measures ground-truth collection for the benchmark's
// pair: 100 co-located groups, each measured Runs times.
func BenchmarkCollect(b *testing.B) {
	pair := []dnn.ModelID{dnn.ResNet152, dnn.InceptionV3}
	cfg := DefaultSamplerConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Collect(pair, 2, 100, cfg)
	}
}
