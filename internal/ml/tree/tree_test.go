package tree

import (
	"testing"

	"github.com/ixp-scrubber/ixpscrubber/internal/ml/mltest"
)

func TestFitBlobs(t *testing.T) {
	x, y := mltest.Blobs(1, 400, 5, 3)
	m := New(DefaultOptions())
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	xt, yt := mltest.Blobs(2, 200, 5, 3)
	if acc := mltest.Accuracy(yt, m.Predict(xt)); acc < 0.93 {
		t.Errorf("test accuracy = %.3f", acc)
	}
}

func TestFitXOR(t *testing.T) {
	x, y := mltest.XOR(3, 800)
	m := New(DefaultOptions())
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	xt, yt := mltest.XOR(4, 400)
	if acc := mltest.Accuracy(yt, m.Predict(xt)); acc < 0.93 {
		t.Errorf("XOR accuracy = %.3f", acc)
	}
}

func TestEmptyAndSingleClass(t *testing.T) {
	m := New(DefaultOptions())
	if err := m.Fit(nil, nil); err == nil {
		t.Fatal("want error on empty set")
	}
	x := [][]float64{{1}, {2}, {3}}
	if err := m.Fit(x, []int{0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Predict(x) {
		if p != 0 {
			t.Error("pure class must predict 0")
		}
	}
}

func TestMinSamplesLeaf(t *testing.T) {
	x, y := mltest.XOR(5, 600)
	big := New(Options{MinSamplesLeaf: 200, MinSamplesSplit: 2})
	small := New(Options{MinSamplesLeaf: 1, MinSamplesSplit: 2})
	if err := big.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := small.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if big.NodeCount() >= small.NodeCount() {
		t.Errorf("MinSamplesLeaf=200 grew %d nodes, unconstrained grew %d", big.NodeCount(), small.NodeCount())
	}
}

func TestCCPPruning(t *testing.T) {
	x, y := mltest.XOR(7, 600)
	// Inject label noise so an unpruned tree overfits deep branches.
	for i := 0; i < len(y); i += 17 {
		y[i] = 1 - y[i]
	}
	unpruned := New(Options{MinSamplesLeaf: 1, MinSamplesSplit: 2, CCPAlpha: 0})
	pruned := New(Options{MinSamplesLeaf: 1, MinSamplesSplit: 2, CCPAlpha: 0.005})
	if err := unpruned.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := pruned.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if pruned.NodeCount() >= unpruned.NodeCount() {
		t.Errorf("pruned %d nodes >= unpruned %d", pruned.NodeCount(), unpruned.NodeCount())
	}
	xt, yt := mltest.XOR(8, 400)
	if acc := mltest.Accuracy(yt, pruned.Predict(xt)); acc < 0.85 {
		t.Errorf("pruned accuracy = %.3f", acc)
	}
}

func TestMaxDepth(t *testing.T) {
	x, y := mltest.XOR(9, 500)
	m := New(Options{MaxDepth: 1, MinSamplesLeaf: 1, MinSamplesSplit: 2})
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if m.NodeCount() > 3 {
		t.Errorf("depth-1 tree has %d nodes", m.NodeCount())
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

// NodeCount returns the number of nodes (pruning observability).
func (m *Model) NodeCount() int {
	count := 0
	var walk func(int)
	walk = func(i int) {
		count++
		if m.nodes[i].feature >= 0 {
			walk(m.nodes[i].left)
			walk(m.nodes[i].right)
		}
	}
	if len(m.nodes) > 0 {
		walk(0)
	}
	return count
}
