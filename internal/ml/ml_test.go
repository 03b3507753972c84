package ml

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/ixp-scrubber/ixpscrubber/internal/ml/mltest"
	"github.com/ixp-scrubber/ixpscrubber/internal/ml/xgb"
)

func blobsDataset(t *testing.T, seed uint64, n int) *Dataset {
	t.Helper()
	x, y := mltest.Blobs(seed, n, 6, 3)
	d, err := NewDataset(x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewDatasetValidation(t *testing.T) {
	if _, err := NewDataset([][]float64{{1}}, []int{1, 0}, nil); err == nil {
		t.Error("row/label mismatch accepted")
	}
	if _, err := NewDataset([][]float64{{1, 2}, {3}}, []int{0, 1}, nil); err == nil {
		t.Error("ragged rows accepted")
	}
	if _, err := NewDataset([][]float64{{1, 2}}, []int{0}, []string{"a"}); err == nil {
		t.Error("name count mismatch accepted")
	}
	d, err := NewDataset([][]float64{{1, 2}}, []int{1}, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1 {
		t.Errorf("dataset Len = %d", d.Len())
	}
}

func TestFolds(t *testing.T) {
	d := blobsDataset(t, 1, 300)
	folds := d.Folds(7, 3)
	total := 0
	seen := map[int]bool{}
	for _, f := range folds {
		total += len(f)
		for _, i := range f {
			if seen[i] {
				t.Fatal("duplicate index across folds")
			}
			seen[i] = true
		}
	}
	if total != d.Len() {
		t.Fatalf("folds cover %d of %d", total, d.Len())
	}
	if len(TrainFold(folds, 0)) != d.Len()-len(folds[0]) {
		t.Error("TrainFold size")
	}
}

func TestFoldsDeterministicPerSeed(t *testing.T) {
	d := blobsDataset(t, 1, 101)
	a, b, c := d.Folds(7, 4), d.Folds(7, 4), d.Folds(8, 4)
	same := true
	for f := range a {
		if len(a[f]) != len(b[f]) {
			t.Fatalf("fold %d: sizes %d vs %d for one seed", f, len(a[f]), len(b[f]))
		}
		for i := range a[f] {
			if a[f][i] != b[f][i] {
				t.Fatalf("fold %d differs at %d for one seed", f, i)
			}
			if i < len(c[f]) && a[f][i] != c[f][i] {
				same = false
			}
		}
		if n, lo := len(a[f]), d.Len()/4; n < lo || n > lo+1 {
			t.Errorf("fold %d holds %d of %d rows, want %d or %d", f, n, d.Len(), lo, lo+1)
		}
	}
	if same {
		t.Error("seeds 7 and 8 gave identical folds")
	}
	if got := len(d.Folds(7, 1)); got != 2 {
		t.Errorf("k=1 gave %d folds, want the minimum of 2", got)
	}
}

func TestTrainFoldComplement(t *testing.T) {
	folds := [][]int{{4, 0}, {2}, {1, 3}}
	for i := range folds {
		train := TrainFold(folds, i)
		in := map[int]bool{}
		for _, j := range train {
			in[j] = true
		}
		for _, j := range folds[i] {
			if in[j] {
				t.Errorf("fold %d: held-out row %d in the training set", i, j)
			}
		}
		if len(train)+len(folds[i]) != 5 || len(in) != len(train) {
			t.Errorf("fold %d: train %v is not the complement", i, train)
		}
	}
}

func TestSample(t *testing.T) {
	d := blobsDataset(t, 2, 100)
	s := d.Sample(1, 50)
	if s.Len() != 50 {
		t.Errorf("sample = %d", s.Len())
	}
	if d.Sample(1, 10000).Len() != d.Len() {
		t.Error("oversized sample must return the full set")
	}
}

func TestConfusionMetrics(t *testing.T) {
	yTrue := []int{1, 1, 1, 1, 0, 0, 0, 0, 0, 0}
	yPred := []int{1, 1, 1, 0, 0, 0, 0, 0, 1, 1}
	c := Confuse(yTrue, yPred)
	if c.TP != 3 || c.FN != 1 || c.TN != 4 || c.FP != 2 {
		t.Fatalf("confusion = %+v", c)
	}
	if math.Abs(c.TPR()-0.75) > 1e-12 || math.Abs(c.FPR()-2.0/6.0) > 1e-12 {
		t.Errorf("rates: tpr=%v fpr=%v", c.TPR(), c.FPR())
	}
	wantF1 := 3.0 / (3 + 0.5*(2+1))
	if math.Abs(c.F1()-wantF1) > 1e-12 {
		t.Errorf("F1 = %v, want %v", c.F1(), wantF1)
	}
	b2 := 0.25
	wantFb := (1 + b2) * 3 / ((1+b2)*3 + b2*1 + 2)
	if math.Abs(c.FBeta(0.5)-wantFb) > 1e-12 {
		t.Errorf("Fβ = %v, want %v", c.FBeta(0.5), wantFb)
	}
	if c.String() == "" {
		t.Error("String")
	}
	// β=1 equals F1.
	if math.Abs(c.FBeta(1)-c.F1()) > 1e-12 {
		t.Error("FBeta(1) != F1")
	}
}

func TestConfusionPerfectAndZero(t *testing.T) {
	c := Confuse([]int{1, 0}, []int{1, 0})
	if c.F1() != 1 || c.FBeta(0.5) != 1 {
		t.Error("perfect prediction scores")
	}
	c = Confuse([]int{0, 0}, []int{0, 0})
	if c.F1() != 0 || c.TPR() != 0 {
		t.Error("degenerate all-negative scores")
	}
}

func TestImputer(t *testing.T) {
	im := &Imputer{Value: -1}
	out := im.Transform([][]float64{{1, math.NaN()}, {math.NaN(), 4}})
	if out[0][1] != -1 || out[1][0] != -1 || out[0][0] != 1 || out[1][1] != 4 {
		t.Errorf("imputed = %v", out)
	}
}

func TestStandardScaler(t *testing.T) {
	s := &StandardScaler{}
	x := [][]float64{{1, 10}, {2, 20}, {3, 30}}
	s.Fit(x, nil)
	out := s.Transform(x)
	for j := 0; j < 2; j++ {
		var mean, varr float64
		for i := range out {
			mean += out[i][j]
		}
		mean /= 3
		for i := range out {
			d := out[i][j] - mean
			varr += d * d
		}
		varr /= 3
		if math.Abs(mean) > 1e-12 || math.Abs(varr-1) > 1e-9 {
			t.Errorf("col %d: mean=%v var=%v", j, mean, varr)
		}
	}
	// Constant column: no division by zero.
	s2 := &StandardScaler{}
	s2.Fit([][]float64{{5}, {5}}, nil)
	if got := s2.Transform([][]float64{{5}}); got[0][0] != 0 {
		t.Errorf("constant col transform = %v", got[0][0])
	}
}

func TestMinMaxNormalizer(t *testing.T) {
	n := &MinMaxNormalizer{}
	x := [][]float64{{0, -5}, {10, 5}}
	n.Fit(x, nil)
	out := n.Transform([][]float64{{5, 0}, {20, -10}})
	if out[0][0] != 0.5 || out[0][1] != 0.5 {
		t.Errorf("normalized = %v", out[0])
	}
	if out[1][0] != 1 || out[1][1] != 0 {
		t.Errorf("clamping failed: %v", out[1])
	}
}

func TestVarianceThreshold(t *testing.T) {
	v := &VarianceThreshold{Min: 1e-9}
	x := [][]float64{{1, 7, 0}, {2, 7, 0}, {3, 7, 0}}
	v.Fit(x, nil)
	if len(v.Kept()) != 1 || v.Kept()[0] != 0 {
		t.Fatalf("kept = %v", v.Kept())
	}
	out := v.Transform(x)
	if len(out[0]) != 1 || out[2][0] != 3 {
		t.Errorf("transform = %v", out)
	}
	// All-constant input: keep everything rather than emit zero columns.
	v2 := &VarianceThreshold{Min: 1e-9}
	v2.Fit([][]float64{{1, 1}, {1, 1}}, nil)
	if len(v2.Kept()) != 2 {
		t.Errorf("all-constant kept = %v", v2.Kept())
	}
}

func TestPCARecoversStructure(t *testing.T) {
	// Data varies along one direction in 5D: first component must explain
	// nearly all variance.
	x := make([][]float64, 200)
	for i := range x {
		tv := float64(i) / 100.0
		x[i] = []float64{tv, 2 * tv, -tv, 0.5 * tv, tv + 0.001*float64(i%3)}
	}
	p := &PCA{Components: 3}
	p.Fit(x, nil)
	ev := p.ExplainedVarianceRatio()
	if ev[0] < 0.99 {
		t.Errorf("first component explains %v, want ~1", ev[0])
	}
	out := p.Transform(x[:5])
	if len(out[0]) != 3 {
		t.Errorf("projected dims = %d", len(out[0]))
	}
}

func TestPCAOrthogonalTransform(t *testing.T) {
	// PCA of white data preserves total variance across components.
	xs, _ := mltest.Blobs(3, 300, 4, 0)
	p := &PCA{Components: 4}
	p.Fit(xs, nil)
	ev := p.ExplainedVarianceRatio()
	var sum float64
	for _, v := range ev {
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("explained variance ratios sum to %v", sum)
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	d := blobsDataset(t, 5, 400)
	p := &Pipeline{
		Name: "xgb",
		Stages: []Transformer{
			&Imputer{Value: -1},
			&StandardScaler{},
		},
		Model: xgb.New(xgb.Options{Estimators: 8, MaxDepth: 4, Bins: 32}),
	}
	folds := d.Folds(1, 3)
	train, test := d.Subset(TrainFold(folds, 0)), d.Subset(folds[0])
	if err := p.Fit(train.X, train.Y); err != nil {
		t.Fatal(err)
	}
	if c := Confuse(test.Y, p.Predict(test.X)); c.FBeta(0.5) < 0.9 {
		t.Errorf("Fβ = %.3f", c.FBeta(0.5))
	}
	if (&Pipeline{Name: "nil"}).Fit(train.X, train.Y) == nil {
		t.Error("pipeline without model must error on fit")
	}
}

func TestCrossValidate(t *testing.T) {
	d := blobsDataset(t, 6, 200)
	score, err := CrossValidate(func() *Pipeline {
		return &Pipeline{Model: xgb.New(xgb.Options{Estimators: 5, MaxDepth: 3, Bins: 16})}
	}, d, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if score < 0.9 {
		t.Errorf("CV Fβ = %.3f", score)
	}
}

func TestGrid(t *testing.T) {
	g := Grid(map[string][]float64{"a": {1, 2}, "b": {10, 20, 30}})
	if len(g) != 6 {
		t.Fatalf("grid size = %d", len(g))
	}
	seen := map[[2]float64]bool{}
	for _, p := range g {
		seen[[2]float64{p["a"], p["b"]}] = true
	}
	if len(seen) != 6 {
		t.Error("grid has duplicates")
	}
	if len(Grid(nil)) != 1 {
		t.Error("empty grid must yield one empty assignment")
	}
}

func TestGridSearch(t *testing.T) {
	d := blobsDataset(t, 7, 150)
	res, err := GridSearch(
		map[string][]float64{"estimators": {1, 8}},
		func(p Params) *Pipeline {
			return &Pipeline{Model: xgb.New(xgb.Options{
				Estimators: int(p["estimators"]), MaxDepth: 3, Bins: 16,
			})}
		}, d, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %d", len(res))
	}
	if res[0].Score < res[1].Score {
		t.Error("results not sorted by score")
	}
}

// TestFBetaProperty: Fβ is always within [0,1] and false positives hurt
// Fβ=0.5 more than false negatives do.
func TestFBetaProperty(t *testing.T) {
	f := func(tp, tn, fp, fn uint8) bool {
		c := Confusion{TP: int(tp), TN: int(tn), FP: int(fp), FN: int(fn)}
		v := c.FBeta(0.5)
		if v < 0 || v > 1 {
			return false
		}
		if tp == 0 {
			return true
		}
		cFP := Confusion{TP: int(tp), TN: int(tn), FP: int(fp) + 10, FN: int(fn)}
		cFN := Confusion{TP: int(tp), TN: int(tn), FP: int(fp), FN: int(fn) + 10}
		return cFP.FBeta(0.5) <= cFN.FBeta(0.5)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
