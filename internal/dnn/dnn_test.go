package dnn

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"abacus/internal/gpusim"
	"abacus/internal/sim"
)

func TestZooContents(t *testing.T) {
	models := All()
	if len(models) != int(NumModels) {
		t.Fatalf("zoo has %d models, want %d", len(models), NumModels)
	}
	wantNames := []string{"Res50", "Res101", "Res152", "IncepV3", "VGG16", "VGG19", "Bert"}
	for i, m := range models {
		if m.Name != wantNames[i] {
			t.Errorf("model %d name = %q, want %q", i, m.Name, wantNames[i])
		}
		if m.ID != i {
			t.Errorf("model %q ID = %d, want %d", m.Name, m.ID, i)
		}
		if ModelID(i).String() != wantNames[i] {
			t.Errorf("ModelID(%d).String() = %q, want %q", i, ModelID(i).String(), wantNames[i])
		}
	}
}

func TestModelIDByName(t *testing.T) {
	for id := ModelID(0); id < NumModels; id++ {
		got, err := ModelIDByName(id.String())
		if err != nil || got != id {
			t.Errorf("ModelIDByName(%q) = %v, %v; want %v", id.String(), got, err, id)
		}
	}
	if _, err := ModelIDByName("NoSuchNet"); err == nil {
		t.Error("ModelIDByName of unknown name should error")
	}
}

func TestGetReturnsSharedInstance(t *testing.T) {
	if Get(ResNet50) != Get(ResNet50) {
		t.Error("Get should return the cached model")
	}
}

func TestGetOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("did not panic")
		}
	}()
	Get(NumModels)
}

func TestTopologyInvariant(t *testing.T) {
	for _, m := range All() {
		if err := m.ValidateTopology(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestOperatorCounts(t *testing.T) {
	// Pin the zoo's structural sizes so accidental builder edits surface.
	// The paper quotes "241 operators for Resnet101" under PyTorch's op
	// accounting; our graphs keep bn/relu as separate operators, so counts
	// are larger but ordering must match: VGG tiny, ResNets large.
	counts := map[ModelID]int{}
	for id := ModelID(0); id < NumModels; id++ {
		counts[id] = Get(id).NumOps()
	}
	if !(counts[ResNet50] < counts[ResNet101] && counts[ResNet101] < counts[ResNet152]) {
		t.Errorf("ResNet op counts not increasing: %v", counts)
	}
	if counts[VGG16] >= counts[ResNet50] {
		t.Errorf("VGG16 (%d ops) should have far fewer operators than Res50 (%d)", counts[VGG16], counts[ResNet50])
	}
	if counts[VGG19] <= counts[VGG16] {
		t.Errorf("VGG19 (%d) should exceed VGG16 (%d)", counts[VGG19], counts[VGG16])
	}
	if counts[ResNet101] < 200 {
		t.Errorf("Res101 has %d ops; expected hundreds (paper: 241 fused)", counts[ResNet101])
	}
}

func TestModelInputDomains(t *testing.T) {
	for _, m := range All() {
		if m.MinBatch != 4 || m.MaxBatch != 32 {
			t.Errorf("%s batch range [%d,%d], want [4,32] per Table 1", m.Name, m.MinBatch, m.MaxBatch)
		}
		if m.Name == "Bert" {
			if !m.IsSequence() {
				t.Error("Bert must be a sequence model")
			}
			want := []int{8, 16, 32, 64}
			for i, s := range want {
				if m.SeqLens[i] != s {
					t.Errorf("Bert SeqLens = %v, want %v", m.SeqLens, want)
					break
				}
			}
		} else if m.IsSequence() {
			t.Errorf("%s should not be a sequence model", m.Name)
		}
	}
}

func TestMaxMinInput(t *testing.T) {
	bert := Get(Bert)
	if in := bert.MaxInput(); in.Batch != 32 || in.SeqLen != 64 {
		t.Errorf("Bert MaxInput = %+v, want {32 64}", in)
	}
	if in := bert.MinInput(); in.Batch != 4 || in.SeqLen != 8 {
		t.Errorf("Bert MinInput = %+v, want {4 8}", in)
	}
	res := Get(ResNet50)
	if in := res.MaxInput(); in.Batch != 32 || in.SeqLen != 0 {
		t.Errorf("Res50 MaxInput = %+v, want {32 0}", in)
	}
}

func TestCheckInput(t *testing.T) {
	for _, m := range All() {
		for _, in := range []Input{m.MinInput(), m.MaxInput()} {
			if err := m.CheckInput(in); err != nil {
				t.Errorf("%s rejects its own envelope input %+v: %v", m.Name, in, err)
			}
			if allocs := testing.AllocsPerRun(100, func() { _ = m.CheckInput(in) }); allocs != 0 {
				t.Errorf("%s: served input costs %.0f allocs", m.Name, allocs)
			}
		}
	}
	cases := []struct {
		model ModelID
		in    Input
		want  string
	}{
		{ResNet50, Input{Batch: 3}, "batch 3 outside served range [4, 32]"},
		{ResNet50, Input{Batch: 33}, "batch 33 outside served range [4, 32]"},
		{ResNet50, Input{Batch: 8, SeqLen: 8}, `model "Res50" takes no sequence length`},
		{Bert, Input{Batch: 8}, "seqlen 0 not served (allowed [8 16 32 64])"},
		{Bert, Input{Batch: 8, SeqLen: 7}, "seqlen 7 not served (allowed [8 16 32 64])"},
		{Bert, Input{Batch: 64, SeqLen: 8}, "batch 64 outside served range [4, 32]"},
	}
	for _, tc := range cases {
		err := Get(tc.model).CheckInput(tc.in)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%v %+v: got %v, want %q", tc.model, tc.in, err, tc.want)
		}
	}
}

func TestCostEval(t *testing.T) {
	c := Cost{C0: 1, C1: 2, C2: 3}
	got := c.Eval(Input{Batch: 2, SeqLen: 4})
	want := 2.0 * (1 + 2*4 + 3*16)
	if got != want {
		t.Errorf("Eval = %v, want %v", got, want)
	}
	if !(Cost{}).Zero() {
		t.Error("zero Cost should report Zero")
	}
	if c.Zero() {
		t.Error("non-zero Cost should not report Zero")
	}
}

func TestFLOPsScaleWithBatch(t *testing.T) {
	m := Get(ResNet50)
	f4 := m.FLOPs(Input{Batch: 4})
	f32 := m.FLOPs(Input{Batch: 32})
	if f32 != 8*f4 {
		t.Errorf("FLOPs not linear in batch: f32=%v f4=%v", f32, f4)
	}
}

func TestBertFLOPsGrowSuperlinearlyInSeq(t *testing.T) {
	m := Get(Bert)
	f8 := m.FLOPs(Input{Batch: 8, SeqLen: 8})
	f64 := m.FLOPs(Input{Batch: 8, SeqLen: 64})
	if f64 < 8*f8 {
		t.Errorf("Bert FLOPs should grow at least linearly with seq (attention quadratic): f8=%v f64=%v", f8, f64)
	}
}

func TestResNetFLOPsMatchLiterature(t *testing.T) {
	// Literature (fvcore-style MAC counting ×2): Res50 ≈ 8.2 GFLOPs/sample,
	// Res152 ≈ 23 GFLOPs/sample at 224². Allow ±25% for bn/elementwise.
	cases := []struct {
		id   ModelID
		want float64
	}{
		{ResNet50, 8.2e9},
		{ResNet101, 15.7e9},
		{ResNet152, 23.1e9},
		{VGG16, 31.0e9},
		{VGG19, 39.3e9},
	}
	for _, c := range cases {
		got := Get(c.id).FLOPs(Input{Batch: 1})
		if got < c.want*0.75 || got > c.want*1.25 {
			t.Errorf("%s FLOPs/sample = %.2fG, want ≈ %.2fG ±25%%", c.id, got/1e9, c.want/1e9)
		}
	}
}

func TestKernelForValidSpecs(t *testing.T) {
	p := gpusim.A100Profile()
	for _, m := range All() {
		for _, in := range []Input{m.MinInput(), m.MaxInput()} {
			for i := range m.Ops {
				spec := KernelFor(&m.Ops[i], in, p)
				if err := spec.Validate(); err != nil {
					t.Fatalf("%s op %d (%s) input %+v: %v", m.Name, i, m.Ops[i].Name, in, err)
				}
			}
		}
	}
}

func TestKernelWorkMonotoneInBatch(t *testing.T) {
	p := gpusim.A100Profile()
	m := Get(ResNet152)
	for i := range m.Ops {
		w4 := KernelFor(&m.Ops[i], Input{Batch: 4}, p).Work
		w32 := KernelFor(&m.Ops[i], Input{Batch: 32}, p).Work
		if w32 < w4 {
			t.Errorf("op %s: work decreased with batch (%v -> %v)", m.Ops[i].Name, w4, w32)
		}
	}
}

func TestVGGSaturatesResNetDoesNot(t *testing.T) {
	p := gpusim.A100Profile()
	smWeightedFrac := func(id ModelID, in Input) float64 {
		m := Get(id)
		var wsum, tsum float64
		for i := range m.Ops {
			k := KernelFor(&m.Ops[i], in, p)
			wsum += k.SMFrac * k.Work
			tsum += k.Work
		}
		return wsum / tsum
	}
	vgg := smWeightedFrac(VGG16, Input{Batch: 32})
	res := smWeightedFrac(ResNet152, Input{Batch: 16})
	if vgg < 0.8 {
		t.Errorf("VGG16 bs32 work-weighted SMFrac = %.3f, want near saturation (>0.8)", vgg)
	}
	if res > 0.8 {
		t.Errorf("Res152 bs16 work-weighted SMFrac = %.3f, want clearly below VGG (%.3f)", res, vgg)
	}
	if res >= vgg {
		t.Errorf("expected Res152 occupancy (%.3f) < VGG16 occupancy (%.3f)", res, vgg)
	}
}

func TestKernelsSpan(t *testing.T) {
	p := gpusim.A100Profile()
	m := Get(ResNet50)
	in := Input{Batch: 8}
	all := Kernels(m, in, p, 0, m.NumOps())
	if len(all) != m.NumOps() {
		t.Fatalf("full span has %d kernels, want %d", len(all), m.NumOps())
	}
	span := Kernels(m, in, p, 10, 20)
	if len(span) != 10 {
		t.Fatalf("span [10,20) has %d kernels", len(span))
	}
	for i, k := range span {
		if k != all[10+i] {
			t.Errorf("span kernel %d differs from full list", i)
		}
	}
	if len(Kernels(m, in, p, 5, 5)) != 0 {
		t.Error("empty span should produce no kernels")
	}
}

func TestKernelsInvalidSpanPanics(t *testing.T) {
	m := Get(ResNet50)
	p := gpusim.A100Profile()
	tab := NewSpecs(p)
	for _, span := range [][2]int{{-1, 3}, {3, 1}, {0, m.NumOps() + 1}} {
		for name, f := range map[string]func(){
			"Kernels":    func() { Kernels(m, Input{Batch: 4}, p, span[0], span[1]) },
			"Specs.Span": func() { tab.Span(ResNet50, Input{Batch: 4}, span[0], span[1]) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: span %v did not panic", name, span)
					}
				}()
				f()
			}()
		}
	}
}

func TestSpanWorkAdditive(t *testing.T) {
	p := gpusim.A100Profile()
	m := Get(InceptionV3)
	in := Input{Batch: 16}
	whole := SpanWork(m, in, p, 0, m.NumOps())
	split := SpanWork(m, in, p, 0, 100) + SpanWork(m, in, p, 100, m.NumOps())
	if diff := whole - split; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("SpanWork not additive: whole=%v split=%v", whole, split)
	}
}

func TestSpanWorkMatchesSpanLatency(t *testing.T) {
	// Exclusive chain latency equals the summed solo works + gaps, because a
	// solo chain runs every kernel at rate 1.
	p := gpusim.A100Profile()
	m := Get(VGG16)
	in := Input{Batch: 8}
	w := SpanWork(m, in, p, 0, m.NumOps())
	l := SpanLatency(m, in, p, 0, m.NumOps())
	if diff := w - l; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("SpanWork %v != SpanLatency %v", w, l)
	}
}

func TestTransferTime(t *testing.T) {
	p := gpusim.A100Profile()
	m := Get(ResNet50)
	tt := TransferTime(m, Input{Batch: 32}, p)
	// 32 × 3·224²·4 bytes ≈ 18.4 MB → ~0.8 ms at 22 GB/s.
	if tt < 0.2 || tt > 3 {
		t.Errorf("Res50 bs32 transfer time %v ms out of plausible range", tt)
	}
	if tt2 := TransferTime(m, Input{Batch: 4}, p); tt2 >= tt {
		t.Errorf("transfer time should grow with batch: bs4=%v bs32=%v", tt2, tt)
	}
}

func TestSwapTimeScalesWithParams(t *testing.T) {
	p := gpusim.A100Profile()
	small := SwapTime(Get(ResNet50), p)
	big := SwapTime(Get(VGG19), p)
	if small <= 0 || big <= small {
		t.Errorf("swap times: Res50=%v VGG19=%v; want 0 < Res50 < VGG19", small, big)
	}
}

func TestOpKindString(t *testing.T) {
	if Conv2D.String() != "conv2d" || GELU.String() != "gelu" {
		t.Errorf("OpKind names wrong: %v %v", Conv2D, GELU)
	}
	if !strings.Contains(OpKind(99).String(), "99") {
		t.Errorf("out-of-range OpKind String = %q", OpKind(99).String())
	}
	for k := OpKind(0); k < numOpKinds; k++ {
		if k.String() == "" {
			t.Errorf("OpKind %d has empty name", k)
		}
	}
}

func TestMatMulLike(t *testing.T) {
	for _, k := range []OpKind{Conv2D, Dense, MatMul} {
		if !k.MatMulLike() {
			t.Errorf("%v should be MatMulLike", k)
		}
	}
	for _, k := range []OpKind{ReLU, Add, Softmax, MaxPool, Embedding} {
		if k.MatMulLike() {
			t.Errorf("%v should not be MatMulLike", k)
		}
	}
}

func TestGraphBuilderRejectsForwardDeps(t *testing.T) {
	g := &graph{}
	g.add(reluOp("a", tensor{1, 1, 1}))
	defer func() {
		if recover() == nil {
			t.Error("forward dependency did not panic")
		}
	}()
	g.add(reluOp("b", tensor{1, 1, 1}), 5)
}

func TestConcatShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("did not panic")
		}
	}()
	concatOp("bad", tensor{3, 8, 8}, tensor{3, 4, 4})
}

// Property: SpanLatency is monotone — extending a span never shortens it —
// and sub-additive relative to SpanWork (chains never run faster than solo
// work allows).
func TestSpanLatencyProperties(t *testing.T) {
	p := gpusim.A100Profile()
	f := func(modelRaw, startRaw, lenRaw uint8, batchIdx uint8) bool {
		m := Get(ModelID(int(modelRaw) % int(NumModels)))
		in := Input{Batch: Batches()[int(batchIdx)%4]}
		if m.IsSequence() {
			in.SeqLen = m.SeqLens[int(batchIdx)%len(m.SeqLens)]
		}
		start := int(startRaw) % m.NumOps()
		length := int(lenRaw)%(m.NumOps()-start) + 1
		inner := SpanLatency(m, in, p, start, start+length)
		var outerEnd int
		if start+length+1 <= m.NumOps() {
			outerEnd = start + length + 1
		} else {
			outerEnd = m.NumOps()
		}
		outer := SpanLatency(m, in, p, start, outerEnd)
		return outer >= inner-1e-9 && inner > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Error(err)
	}
}

func TestParamCountsMatchLiterature(t *testing.T) {
	// Literature parameter counts (fp32 bytes): Res50 ≈ 25.6M, Res101 ≈
	// 44.5M, Res152 ≈ 60.2M, VGG16 ≈ 138M, VGG19 ≈ 144M, IncepV3 ≈ 23.8M,
	// BERT-base ≈ 110M. Allow ±15% for head/embedding simplifications.
	cases := []struct {
		id     ModelID
		params float64
	}{
		{ResNet50, 25.6e6},
		{ResNet101, 44.5e6},
		{ResNet152, 60.2e6},
		{InceptionV3, 23.8e6},
		{VGG16, 138e6},
		{VGG19, 144e6},
		{Bert, 110e6},
	}
	for _, c := range cases {
		got := Get(c.id).ParamBytes() / 4
		if got < c.params*0.85 || got > c.params*1.15 {
			t.Errorf("%v: %.1fM params, literature ≈ %.1fM (±15%%)", c.id, got/1e6, c.params/1e6)
		}
	}
}

func TestSpatialDimsFlowCorrectly(t *testing.T) {
	// The ResNet stem halves twice (224→112→56) and each later stage halves
	// once more; the final global pool must see 7×7. Verify indirectly: the
	// last conv's per-sample output elements are 2048·7·7.
	m := Get(ResNet50)
	var lastConv *Op
	for i := range m.Ops {
		if m.Ops[i].Kind == Conv2D {
			lastConv = &m.Ops[i]
		}
	}
	if lastConv == nil {
		t.Fatal("no conv found")
	}
	want := 2048.0 * 7 * 7
	if got := lastConv.OutElems.Eval(Input{Batch: 1}); got != want {
		t.Errorf("last conv out elems = %v, want %v", got, want)
	}
}

func TestInceptionUses299Input(t *testing.T) {
	m := Get(InceptionV3)
	want := 3.0 * 299 * 299 * 4
	if got := m.InputBytes(Input{Batch: 1}); got != want {
		t.Errorf("IncepV3 input bytes = %v, want %v (299x299)", got, want)
	}
}

func TestBertOpCountScalesWithLayers(t *testing.T) {
	// 12 encoder layers × 12 ops + embedding block (2) + head (2).
	m := Get(Bert)
	if got, want := m.NumOps(), 12*12+4; got != want {
		t.Errorf("Bert has %d ops, want %d", got, want)
	}
}

func TestModelsSlowerOnV100(t *testing.T) {
	a, v := gpusim.A100Profile(), gpusim.V100Profile()
	for _, id := range []ModelID{ResNet152, VGG16, Bert} {
		m := Get(id)
		in := m.MaxInput()
		la, lv := SoloLatency(m, in, a), SoloLatency(m, in, v)
		if lv <= la {
			t.Errorf("%v: V100 solo %v not slower than A100 %v", id, lv, la)
		}
	}
}

func TestProfileAndSummarize(t *testing.T) {
	p := gpusim.A100Profile()
	m := Get(ResNet50)
	in := Input{Batch: 16}
	profs := m.Profile(in, p)
	if len(profs) != m.NumOps() {
		t.Fatalf("profile has %d rows, want %d", len(profs), m.NumOps())
	}
	var flops float64
	for i, pr := range profs {
		if pr.Index != i || pr.WorkMS <= 0 {
			t.Fatalf("row %d invalid: %+v", i, pr)
		}
		flops += pr.FLOPs
	}
	if flops != m.FLOPs(in) {
		t.Errorf("profile FLOPs %v != model FLOPs %v", flops, m.FLOPs(in))
	}
	s := m.Summarize(in, p)
	if s.Ops != m.NumOps() || s.FLOPs != flops {
		t.Errorf("summary mismatch: %+v", s)
	}
	want := SpanWork(m, in, p, 0, m.NumOps())
	if diff := s.TotalMS - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("summary TotalMS %v != SpanWork %v", s.TotalMS, want)
	}
	// Convolutions dominate a ResNet's time.
	var maxKind OpKind
	var maxMS float64
	for k, ms := range s.KindMS {
		if ms > maxMS {
			maxKind, maxMS = k, ms
		}
	}
	if maxKind != Conv2D {
		t.Errorf("dominant kind %v, want conv2d", maxKind)
	}
}

func TestWriteProfileOutputs(t *testing.T) {
	p := gpusim.A100Profile()
	m := Get(VGG16)
	in := Input{Batch: 8}
	var human strings.Builder
	m.WriteProfile(&human, in, p)
	if !strings.Contains(human.String(), "VGG16/fc1") {
		t.Error("human profile missing fc1 row")
	}
	var buf strings.Builder
	if err := m.WriteProfileCSV(&buf, in, p); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != m.NumOps()+1 {
		t.Fatalf("CSV has %d lines for %d ops", len(lines), m.NumOps())
	}
}

func TestRunDFGCompletesAllOps(t *testing.T) {
	p := gpusim.A100Profile()
	for _, id := range []ModelID{ResNet50, InceptionV3, VGG16, Bert} {
		m := Get(id)
		in := m.MinInput()
		eng := sim.NewEngine()
		dev := gpusim.New(eng, p)
		done := false
		RunDFG(dev, m, in, func() { done = true })
		eng.Run()
		if !done {
			t.Errorf("%v: DFG execution did not complete", id)
		}
		if got := dev.Launched(); got != int64(m.NumOps()) {
			t.Errorf("%v: launched %d kernels, want %d", id, got, m.NumOps())
		}
	}
}

func TestDFGNeverSlowerThanChain(t *testing.T) {
	p := gpusim.A100Profile()
	for _, m := range All() {
		in := Input{Batch: 8}
		if m.IsSequence() {
			in.SeqLen = 16
		}
		chain := SoloLatency(m, in, p)
		dfg := DFGLatency(m, in, p)
		if dfg > chain+1e-6 {
			t.Errorf("%s: DFG %v slower than chain %v", m.Name, dfg, chain)
		}
	}
}

func TestDFGBranchGains(t *testing.T) {
	p := gpusim.A100Profile()
	gain := func(id ModelID) float64 {
		m := Get(id)
		in := Input{Batch: 16}
		if m.IsSequence() {
			in.SeqLen = 32
		}
		return SoloLatency(m, in, p) / DFGLatency(m, in, p)
	}
	incep := gain(InceptionV3)
	vgg := gain(VGG16)
	bert := gain(Bert)
	t.Logf("DFG speedups: IncepV3=%.3f VGG16=%.3f Bert=%.3f", incep, vgg, bert)
	if incep < 1.05 {
		t.Errorf("Inception's branches should yield >5%% DFG speedup, got %.3fx", incep)
	}
	// VGG and BERT are chains: ratio ≈ 1.
	for name, g := range map[string]float64{"VGG16": vgg, "Bert": bert} {
		if g < 0.999 || g > 1.01 {
			t.Errorf("%s is a pure chain; DFG speedup %.3fx should be ≈1", name, g)
		}
	}
}

func TestRunDFGEmptyModel(t *testing.T) {
	eng := sim.NewEngine()
	dev := gpusim.New(eng, gpusim.A100Profile())
	done := false
	RunDFG(dev, &Model{Name: "empty"}, Input{Batch: 1}, func() { done = true })
	if !done {
		t.Error("empty model should complete immediately")
	}
}
