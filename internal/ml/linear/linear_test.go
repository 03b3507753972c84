package linear

import (
	"testing"

	"github.com/ixp-scrubber/ixpscrubber/internal/ml/mltest"
)

func TestFitSeparableBlobs(t *testing.T) {
	x, y := mltest.Blobs(1, 500, 5, 3)
	m := New(Options{C: 1, Epochs: 30, BatchSize: 64, LearningRate: 0.05, Seed: 1})
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	xt, yt := mltest.Blobs(2, 200, 5, 3)
	if acc := mltest.Accuracy(yt, m.Predict(xt)); acc < 0.95 {
		t.Errorf("test accuracy = %.3f", acc)
	}
}

func TestXORIsHard(t *testing.T) {
	// A linear model cannot solve XOR: accuracy must hover near chance.
	x, y := mltest.XOR(3, 800)
	m := New(DefaultOptions())
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	acc := mltest.Accuracy(y, m.Predict(x))
	if acc > 0.7 {
		t.Errorf("linear model 'solved' XOR with accuracy %.3f — implementation suspect", acc)
	}
}

func TestBalancedClassWeights(t *testing.T) {
	// 95:5 imbalance: unweighted SVM may collapse to the majority class;
	// balanced weighting must recover minority recall.
	x, y := mltest.Blobs(5, 400, 4, 2.5)
	var xi [][]float64
	var yi []int
	kept1 := 0
	for i := range x {
		if y[i] == 1 {
			if kept1 >= 20 {
				continue
			}
			kept1++
		}
		xi = append(xi, x[i])
		yi = append(yi, y[i])
	}
	m := New(Options{C: 1, Balanced: true, Epochs: 40, BatchSize: 32, LearningRate: 0.05, Seed: 2})
	if err := m.Fit(xi, yi); err != nil {
		t.Fatal(err)
	}
	xt, yt := mltest.Blobs(6, 100, 4, 2.5)
	tp, pos := 0, 0
	pred := m.Predict(xt)
	for i := range yt {
		if yt[i] == 1 {
			pos++
			if pred[i] == 1 {
				tp++
			}
		}
	}
	if recall := float64(tp) / float64(pos); recall < 0.8 {
		t.Errorf("balanced minority recall = %.3f", recall)
	}
}

func TestEmptyTrainingSet(t *testing.T) {
	if err := New(DefaultOptions()).Fit(nil, nil); err == nil {
		t.Fatal("want error")
	}
}

func TestWeightsExposed(t *testing.T) {
	x, y := mltest.Blobs(7, 200, 3, 3)
	m := New(Options{C: 1, Epochs: 20, BatchSize: 64, LearningRate: 0.05, Seed: 3})
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	w := m.w
	if len(w) != 3 {
		t.Fatalf("weights len = %d", len(w))
	}
	// All three features carry equal signal toward class 1.
	for j, v := range w {
		if v <= 0 {
			t.Errorf("weight %d = %v, want positive (class 1 sits at +3σ)", j, v)
		}
	}
}

func TestDeterminism(t *testing.T) {
	x, y := mltest.Blobs(9, 300, 4, 2)
	m1 := New(DefaultOptions())
	m2 := New(DefaultOptions())
	if err := m1.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := m2.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	w1, b1 := m1.w, m1.b
	w2, b2 := m2.w, m2.b
	if b1 != b2 {
		t.Error("bias differs")
	}
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatal("weights differ between identical fits")
		}
	}
}

func BenchmarkFit(b *testing.B) {
	x, y := mltest.Blobs(1, 2000, 20, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := New(DefaultOptions())
		if err := m.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
