package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"abacus/internal/calib"
	"abacus/internal/dnn"
	"abacus/internal/predictor"
	"abacus/internal/realtime"
	"abacus/internal/server"
	"abacus/internal/trace"
	"abacus/internal/workload"
)

// goldenFile is the committed manifest: one "<sha256>  <artifact>" line per
// deterministic artifact, in registry order.
const goldenFile = "../../GOLDEN.sha256"

var update = flag.Bool("update", false, "rewrite "+goldenFile+" and log the lines that moved (make golden-update)")

// artifact is one deterministic output of the program. Each render returns
// one or more named byte strings; the manifest holds their digests.
type artifact struct {
	name   string
	render func(t *testing.T) []named
}

type named struct {
	name string
	data []byte
}

// goldenRegistry lists every artifact the manifest pins.
func goldenRegistry() []artifact {
	return []artifact{
		{"chaos -json", renderChaos},
		{"serve", renderCmd("serve")},
		{"workload examples", renderExampleTraces},
		{"predictor weights", renderTrainedWeights},
		{"gateway", renderGateways},
	}
}

// TestGolden renders every registered artifact and compares its SHA-256
// with GOLDEN.sha256. Any change to a virtual-time, sampling or training
// output moves a line; a change meant to move one says so and reruns
// `make golden-update`.
func TestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("manifest pinned on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	var got []string
	for _, a := range goldenRegistry() {
		for _, n := range a.render(t) {
			got = append(got, fmt.Sprintf("%x  %s", sha256.Sum256(n.data), n.name))
		}
	}
	raw, err := os.ReadFile(goldenFile)
	if err != nil && !*update {
		t.Fatal(err)
	}
	// The "expr -quick: " lines are TestAllExperimentsQuick's
	// (internal/experiments): kept as they are, after this test's own.
	var want, expr []string
	for _, l := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		if _, name, _ := strings.Cut(l, "  "); strings.HasPrefix(name, "expr -quick: ") {
			expr = append(expr, l)
		} else {
			want = append(want, l)
		}
	}
	if *update {
		for _, line := range moved(want, got) {
			t.Logf("moved: %s", line)
		}
		if err := os.WriteFile(goldenFile, []byte(strings.Join(append(got, expr...), "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, line := range moved(want, got) {
		t.Errorf("%s", line)
	}
}

// moved lists the manifest lines that differ between want and got, by
// artifact name.
func moved(want, got []string) []string {
	digest := func(lines []string) map[string]string {
		m := make(map[string]string, len(lines))
		for _, l := range lines {
			if sum, name, ok := strings.Cut(l, "  "); ok {
				m[name] = sum
			}
		}
		return m
	}
	w, g := digest(want), digest(got)
	var out []string
	for _, l := range got {
		_, name, _ := strings.Cut(l, "  ")
		switch old, ok := w[name]; {
		case !ok:
			out = append(out, "new "+name)
		case old != g[name]:
			out = append(out, fmt.Sprintf("%s: %.8s… → %.8s…", name, old, g[name]))
		}
	}
	for _, l := range want {
		if _, name, ok := strings.Cut(l, "  "); ok {
			if _, kept := g[name]; !kept {
				out = append(out, "gone "+name)
			}
		}
	}
	return out
}

// renderCmd runs one abacus command in-process and returns its stdout.
func renderCmd(args ...string) func(*testing.T) []named {
	return func(t *testing.T) []named {
		code, stdout, stderr := runCmd(args...)
		if code != 0 {
			t.Fatalf("abacus %s: exit %d: %s", strings.Join(args, " "), code, stderr)
		}
		return []named{{strings.Join(args, " "), []byte(stdout)}}
	}
}

// renderChaos runs the built-in suite once: one line for the whole -json
// output and one per scenario, so a moved line names its scenario.
func renderChaos(t *testing.T) []named {
	out := renderCmd("chaos", "-json")(t)
	var reps []json.RawMessage
	if err := json.Unmarshal(out[0].data, &reps); err != nil {
		t.Fatal(err)
	}
	for _, r := range reps {
		var head struct{ Name string }
		if err := json.Unmarshal(r, &head); err != nil {
			t.Fatal(err)
		}
		out = append(out, named{"chaos -json: " + head.Name, r})
	}
	return out
}

// renderExampleTraces materializes each spec under examples/workloads to
// tracev2, bound the way `abacus workload` binds it at its default -models
// and -seed.
func renderExampleTraces(t *testing.T) []named {
	paths, err := filepath.Glob("../../examples/workloads/*")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example specs: %v", err)
	}
	var out []named
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := workload.Parse(data)
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
		var buf bytes.Buffer
		meta := workload.Meta{Name: spec.Name, Seed: c.Seed, DurationMS: spec.DurationMS, Services: len(models)}
		if err := workload.WriteTrace(&buf, meta, c.Materialize()); err != nil {
			t.Fatal(err)
		}
		out = append(out, named{"workload tracev2: " + filepath.Base(path), buf.Bytes()})
	}
	return out
}

// renderTrainedWeights trains a small run shaped like the benchmark's (the
// §7.3 pair at co-location degrees 1 and 2, the default sampler and
// training settings, fewer samples and epochs) and saves the predictor, so
// any change to sampling, measurement or training arithmetic shows.
func renderTrainedWeights(t *testing.T) []named {
	pair := []dnn.ModelID{dnn.ResNet152, dnn.InceptionV3}
	samples := predictor.CollectDegrees(pair, 2, 40, predictor.DefaultSamplerConfig())
	tc := predictor.DefaultTrainConfig()
	tc.Epochs = 30
	p, err := predictor.Train(samples, predictor.NewCodec(), tc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return []named{{"predictor weights: Res152,IncepV3 k<=2", buf.Bytes()}}
}

// gatewayLayouts are the unpaced gateway deployments whose /statz and
// /metrics bodies the manifest pins, each with calibration off and on.
var gatewayLayouts = []struct {
	name string
	cfg  server.Config
}{
	{"2 models, 1 node", server.Config{Models: pair}},
	{"2 models, 1 node, no predict cache", server.Config{Models: pair, PredictCache: -1}},
	{"4 models, 1 node", server.Config{Models: quad}},
	{"2 models, 2 replicated nodes", server.Config{Models: pair, Placement: [][]dnn.ModelID{pair, pair}}},
	{"4 models, 2 disjoint nodes", server.Config{Models: quad, Placement: [][]dnn.ModelID{quad[:2], quad[2:]}}},
	{"4 models, 3 derived nodes", server.Config{Models: quad, Nodes: 3}},
}

var (
	pair = []dnn.ModelID{dnn.ResNet152, dnn.InceptionV3}
	quad = []dnn.ModelID{dnn.ResNet50, dnn.ResNet152, dnn.InceptionV3, dnn.VGG19}
)

// renderGateways replays one seeded Poisson trace through each layout's
// unpaced gateway, one request at a time, and returns its /statz and
// /metrics bodies.
func renderGateways(t *testing.T) []named {
	var out []named
	for _, l := range gatewayLayouts {
		for _, cal := range []bool{false, true} {
			cfg := l.cfg
			cfg.Speedup = realtime.Unpaced
			name := l.name
			if cal {
				cfg.Calib = &calib.Config{}
				name += ", calibrated"
			}
			statz, metrics := driveGateway(t, cfg)
			out = append(out, named{"gateway /statz: " + name, statz}, named{"gateway /metrics: " + name, metrics})
		}
	}
	return out
}

func driveGateway(t *testing.T, cfg server.Config) (statz, metrics []byte) {
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Drain()
	h := s.Handler()
	get := func(method, path, body string) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		b, err := io.ReadAll(rec.Result().Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, a := range trace.NewGenerator(cfg.Models, 23).Poisson(80, 7500) {
		body := fmt.Sprintf(`{"model":%q,"batch":%d,"seqlen":%d}`, cfg.Models[a.Service], a.Input.Batch, a.Input.SeqLen)
		get(http.MethodPost, "/v1/infer", body)
	}
	return get(http.MethodGet, "/statz", ""), get(http.MethodGet, "/metrics", "")
}
