package ml

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"abacus/internal/stats"
)

// synthLinear builds y = 3·x0 − 2·x1 + 0.5·x2 + 7 with optional noise.
func synthLinear(n int, noise float64, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	var ds Dataset
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64() * 10, rng.Float64() * 5, rng.Float64() * 20}
		y := 3*x[0] - 2*x[1] + 0.5*x[2] + 7 + rng.NormFloat64()*noise
		ds.Append(x, y)
	}
	return ds
}

// synthNonlinear builds y = x0·x1 + sin(x2) + 5 — not learnable by the
// linear baselines, learnable by the MLP.
func synthNonlinear(n int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	var ds Dataset
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64() * 4, rng.Float64() * 4, rng.Float64() * 6}
		y := x[0]*x[1] + math.Sin(x[2]) + 5
		ds.Append(x, y)
	}
	return ds
}

func TestDatasetBasics(t *testing.T) {
	var ds Dataset
	if ds.Len() != 0 || ds.Dim() != 0 {
		t.Error("empty dataset should have zero len/dim")
	}
	ds.Append([]float64{1, 2}, 3)
	ds.Append([]float64{4, 5}, 6)
	if ds.Len() != 2 || ds.Dim() != 2 {
		t.Errorf("len=%d dim=%d, want 2, 2", ds.Len(), ds.Dim())
	}
	if err := ds.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestDatasetAppendMismatchPanics(t *testing.T) {
	var ds Dataset
	ds.Append([]float64{1, 2}, 3)
	defer func() {
		if recover() == nil {
			t.Error("did not panic")
		}
	}()
	ds.Append([]float64{1}, 2)
}

func TestDatasetValidateCatchesRagged(t *testing.T) {
	ds := Dataset{X: [][]float64{{1, 2}, {3}}, Y: []float64{1, 2}}
	if ds.Validate() == nil {
		t.Error("ragged X not caught")
	}
	ds2 := Dataset{X: [][]float64{{1}}, Y: []float64{1, 2}}
	if ds2.Validate() == nil {
		t.Error("length mismatch not caught")
	}
}

func TestDatasetSplit(t *testing.T) {
	ds := synthLinear(100, 0, 1)
	rng := rand.New(rand.NewSource(2))
	train, test := ds.Split(0.8, rng)
	if train.Len() != 80 || test.Len() != 20 {
		t.Errorf("split sizes %d/%d, want 80/20", train.Len(), test.Len())
	}
	// Original untouched (same first sample as a fresh build).
	ref := synthLinear(100, 0, 1)
	for i := range ds.Y {
		if ds.Y[i] != ref.Y[i] {
			t.Fatal("Split mutated the source dataset")
		}
	}
}

func TestDatasetSplitBadFracPanics(t *testing.T) {
	ds := synthLinear(10, 0, 1)
	for _, f := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Split(%v) did not panic", f)
				}
			}()
			ds.Split(f, rand.New(rand.NewSource(1)))
		}()
	}
}

func TestDatasetSubset(t *testing.T) {
	ds := synthLinear(10, 0, 3)
	sub := ds.Subset([]int{0, 5, 9})
	if sub.Len() != 3 || sub.Y[1] != ds.Y[5] {
		t.Errorf("Subset wrong: %v", sub.Y)
	}
}

func TestScalerStandardizes(t *testing.T) {
	X := [][]float64{{1, 10}, {3, 10}, {5, 10}}
	s := FitScaler(X)
	if !almost(s.Mean[0], 3) || !almost(s.Mean[1], 10) {
		t.Errorf("Mean = %v", s.Mean)
	}
	// Constant feature keeps std 1 → transforms to 0.
	tr := s.Transform([]float64{3, 10})
	if !almost(tr[0], 0) || !almost(tr[1], 0) {
		t.Errorf("Transform(mean) = %v, want zeros", tr)
	}
	all := s.TransformAll(X)
	var m0, v0 float64
	for _, r := range all {
		m0 += r[0]
	}
	m0 /= 3
	for _, r := range all {
		v0 += (r[0] - m0) * (r[0] - m0)
	}
	if !almost(m0, 0) || !almost(math.Sqrt(v0/3), 1) {
		t.Errorf("standardized feature mean %v std %v", m0, math.Sqrt(v0/3))
	}
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestLinearRegressionRecoversExactModel(t *testing.T) {
	ds := synthLinear(200, 0, 4)
	var lr LinearRegression
	if err := lr.Fit(ds); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.Len(); i++ {
		if got := lr.Predict(ds.X[i]); math.Abs(got-ds.Y[i]) > 1e-6 {
			t.Fatalf("sample %d: predict %v, want %v", i, got, ds.Y[i])
		}
	}
}

func TestLinearRegressionWithNoise(t *testing.T) {
	ds := synthLinear(500, 0.5, 5)
	var lr LinearRegression
	if err := lr.Fit(ds); err != nil {
		t.Fatal(err)
	}
	test := synthLinear(100, 0, 6)
	mape := stats.MAPE(PredictAll(&lr, test.X), test.Y)
	if mape > 0.05 {
		t.Errorf("noisy linear fit MAPE = %.3f, want < 5%%", mape)
	}
}

func TestLinearRegressionErrors(t *testing.T) {
	var lr LinearRegression
	if err := lr.Fit(Dataset{}); err == nil {
		t.Error("empty dataset should error")
	}
	if err := lr.Fit(Dataset{X: [][]float64{{1}}, Y: []float64{1, 2}}); err == nil {
		t.Error("invalid dataset should error")
	}
}

func TestPredictBeforeFitPanics(t *testing.T) {
	models := map[string]Regressor{
		"lr":  &LinearRegression{},
		"svr": &SVR{},
		"mlp": &MLP{},
	}
	for name, m := range models {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("did not panic")
				}
			}()
			m.Predict([]float64{1})
		})
	}
}

func TestSVRFitsLinearData(t *testing.T) {
	ds := synthLinear(400, 0.1, 7)
	svr := SVR{Seed: 1}
	if err := svr.Fit(ds); err != nil {
		t.Fatal(err)
	}
	test := synthLinear(100, 0, 8)
	mape := stats.MAPE(PredictAll(&svr, test.X), test.Y)
	if mape > 0.08 {
		t.Errorf("SVR linear fit MAPE = %.3f, want < 8%%", mape)
	}
}

func TestSVRDeterministicGivenSeed(t *testing.T) {
	ds := synthLinear(100, 0.2, 9)
	a := SVR{Seed: 42}
	b := SVR{Seed: 42}
	if err := a.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(ds); err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 2, 3}
	if a.Predict(x) != b.Predict(x) {
		t.Error("same seed produced different SVR models")
	}
}

func TestMLPFitsNonlinearData(t *testing.T) {
	ds := synthNonlinear(1500, 10)
	mlp := MLP{Epochs: 200, Seed: 1}
	if err := mlp.Fit(ds); err != nil {
		t.Fatal(err)
	}
	test := synthNonlinear(200, 11)
	mape := stats.MAPE(PredictAll(&mlp, test.X), test.Y)
	if mape > 0.08 {
		t.Errorf("MLP nonlinear fit MAPE = %.3f, want < 8%%", mape)
	}
}

func TestMLPBeatsLinearBaselinesOnNonlinearData(t *testing.T) {
	// The §5.5 ranking: MLP ≪ LR/SVM on the nonlinear duration surface.
	train := synthNonlinear(1500, 12)
	test := synthNonlinear(300, 13)

	mlp := MLP{Epochs: 150, Seed: 2}
	if err := mlp.Fit(train); err != nil {
		t.Fatal(err)
	}
	var lr LinearRegression
	if err := lr.Fit(train); err != nil {
		t.Fatal(err)
	}
	svr := SVR{Seed: 2}
	if err := svr.Fit(train); err != nil {
		t.Fatal(err)
	}

	mlpErr := stats.MAPE(PredictAll(&mlp, test.X), test.Y)
	lrErr := stats.MAPE(PredictAll(&lr, test.X), test.Y)
	svrErr := stats.MAPE(PredictAll(&svr, test.X), test.Y)
	t.Logf("MAPE: mlp=%.3f lr=%.3f svr=%.3f", mlpErr, lrErr, svrErr)
	if mlpErr >= lrErr || mlpErr >= svrErr {
		t.Errorf("MLP (%.3f) should beat LR (%.3f) and SVR (%.3f) on nonlinear data", mlpErr, lrErr, svrErr)
	}
}

func TestMLPDeterministicGivenSeed(t *testing.T) {
	ds := synthNonlinear(200, 14)
	a := MLP{Epochs: 30, Seed: 5}
	b := MLP{Epochs: 30, Seed: 5}
	if err := a.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(ds); err != nil {
		t.Fatal(err)
	}
	x := ds.X[0]
	if a.Predict(x) != b.Predict(x) {
		t.Error("same seed produced different MLPs")
	}
	c := MLP{Epochs: 30, Seed: 6}
	if err := c.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if a.Predict(x) == c.Predict(x) {
		t.Error("different seeds produced identical MLPs (suspicious)")
	}
}

func TestMLPPredictBatchMatchesPredict(t *testing.T) {
	ds := synthNonlinear(300, 15)
	mlp := MLP{Epochs: 30, Seed: 1}
	if err := mlp.Fit(ds); err != nil {
		t.Fatal(err)
	}
	batch := make([]float64, 50)
	mlp.PredictBatchTo(batch, ds.X[:50])
	for i, x := range ds.X[:50] {
		if batch[i] != mlp.Predict(x) {
			t.Fatalf("batch[%d] = %v != Predict %v", i, batch[i], mlp.Predict(x))
		}
	}
}

func TestMLPWrongWidthPanics(t *testing.T) {
	ds := synthLinear(50, 0, 16)
	mlp := MLP{Epochs: 5, Seed: 1}
	if err := mlp.Fit(ds); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("did not panic")
		}
	}()
	mlp.Predict([]float64{1})
}

func TestMLPParamCount(t *testing.T) {
	ds := synthLinear(50, 0, 17)
	mlp := MLP{Epochs: 1, Seed: 1}
	if err := mlp.Fit(ds); err != nil {
		t.Fatal(err)
	}
	// 3→32, 32→32, 32→32, 32→1 with biases.
	want := (3*32 + 32) + 2*(32*32+32) + (32 + 1)
	if got := mlp.ParamCount(); got != want {
		t.Errorf("ParamCount = %d, want %d", got, want)
	}
	// ≈ paper's "approximately 14kB" predictor footprint at float32.
	if kb := float64(mlp.ParamCount()) * 4 / 1024; kb < 5 || kb > 30 {
		t.Errorf("predictor footprint %.1f kB outside the paper's order of magnitude", kb)
	}
}

func TestKFoldPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	folds := KFold(10, 3, rng)
	if len(folds) != 3 {
		t.Fatalf("got %d folds", len(folds))
	}
	seen := map[int]bool{}
	for _, f := range folds {
		if len(f) < 3 || len(f) > 4 {
			t.Errorf("fold size %d, want 3 or 4", len(f))
		}
		for _, i := range f {
			if seen[i] {
				t.Errorf("index %d in two folds", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != 10 {
		t.Errorf("%d unique indices, want 10", len(seen))
	}
}

func TestKFoldInvalidPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{1, 11} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("KFold(10, %d) did not panic", k)
				}
			}()
			KFold(10, k, rng)
		}()
	}
}

func TestCrossValidate(t *testing.T) {
	ds := synthLinear(100, 0.1, 18)
	rng := rand.New(rand.NewSource(3))
	errs, err := CrossValidate(ds, 5, rng,
		func() Regressor { return &LinearRegression{} },
		stats.MAPE)
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) != 5 {
		t.Fatalf("got %d fold errors", len(errs))
	}
	for i, e := range errs {
		if e > 0.05 {
			t.Errorf("fold %d error %.3f too high for near-noiseless linear data", i, e)
		}
	}
}

func TestSolveLinearSystem(t *testing.T) {
	A := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := solveLinearSystem(A, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(x[0], 1) || !almost(x[1], 3) {
		t.Errorf("solution %v, want [1 3]", x)
	}
}

func TestSolveLinearSystemSingular(t *testing.T) {
	A := [][]float64{{1, 2}, {2, 4}}
	b := []float64{1, 2}
	if _, err := solveLinearSystem(A, b); err == nil {
		t.Error("singular system should error")
	}
}

// Property: solveLinearSystem inverts well-conditioned diagonally dominant
// systems.
func TestSolveLinearSystemProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%6) + 2
		rng := rand.New(rand.NewSource(seed))
		A := make([][]float64, n)
		xTrue := make([]float64, n)
		for i := range A {
			A[i] = make([]float64, n)
			for j := range A[i] {
				A[i][j] = rng.NormFloat64()
			}
			A[i][i] += float64(n) + 1 // diagonal dominance
			xTrue[i] = rng.NormFloat64() * 5
		}
		b := make([]float64, n)
		for i := range b {
			for j := range xTrue {
				b[i] += A[i][j] * xTrue[j]
			}
		}
		// Copy since the solver overwrites.
		Ac := make([][]float64, n)
		for i := range A {
			Ac[i] = append([]float64(nil), A[i]...)
		}
		got, err := solveLinearSystem(Ac, append([]float64(nil), b...))
		if err != nil {
			return false
		}
		for i := range got {
			if math.Abs(got[i]-xTrue[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: LR predictions are invariant to feature scaling of the training
// data (the scaler absorbs affine transforms).
func TestLinearRegressionScaleInvariance(t *testing.T) {
	ds := synthLinear(100, 0, 19)
	scaled := Dataset{Y: ds.Y}
	for _, row := range ds.X {
		scaled.X = append(scaled.X, []float64{row[0] * 1000, row[1] * 0.001, row[2] + 500})
	}
	var a, b LinearRegression
	if err := a.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(scaled); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		pa := a.Predict(ds.X[i])
		pb := b.Predict(scaled.X[i])
		if math.Abs(pa-pb) > 1e-6 {
			t.Fatalf("sample %d: %v vs %v", i, pa, pb)
		}
	}
}

func TestMLPJSONRoundTrip(t *testing.T) {
	ds := synthNonlinear(300, 20)
	orig := MLP{Epochs: 40, Seed: 3}
	if err := orig.Fit(ds); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(&orig)
	if err != nil {
		t.Fatal(err)
	}
	var restored MLP
	if err := json.Unmarshal(raw, &restored); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if got, want := restored.Predict(ds.X[i]), orig.Predict(ds.X[i]); got != want {
			t.Fatalf("sample %d: restored %v != original %v", i, got, want)
		}
	}
}

func TestMLPMarshalUnfitErrors(t *testing.T) {
	var m MLP
	if _, err := json.Marshal(&m); err == nil {
		t.Error("marshaling an unfit MLP should error")
	}
}

func TestMLPUnmarshalCorrupt(t *testing.T) {
	cases := []string{
		`{"dims":[2]}`,
		`{"dims":[2,1],"weights":[[1,2]],"biases":[[0]],"feat_mean":[0],"feat_std":[1],"target_std":1}`,
		`{"dims":[2,1],"weights":[[1,2]],"biases":[[0]],"feat_mean":[0,0],"feat_std":[1,1],"target_std":0}`,
		`{"dims":[2,1],"weights":[[1]],"biases":[[0]],"feat_mean":[0,0],"feat_std":[1,1],"target_std":1}`,
	}
	for i, c := range cases {
		var m MLP
		if err := json.Unmarshal([]byte(c), &m); err == nil {
			t.Errorf("case %d: corrupt MLP state accepted", i)
		}
	}
}
