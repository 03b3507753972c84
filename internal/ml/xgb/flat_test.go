package xgb

import (
	"bytes"
	"math"
	"testing"

	"github.com/ixp-scrubber/ixpscrubber/internal/ml/mltest"
	"github.com/ixp-scrubber/ixpscrubber/internal/par"
)

// The compiled flat program is derived state pinned bit-for-bit to the
// reference node walker: same margins, same scores, same labels, for any
// model — freshly fitted or loaded from a bundle — at any worker count.

// refMargin is the reference inference sum: base + tree0 + tree1 + …
// through tree.predict.
func refMargin(m *Model, row []float64) float64 {
	z := m.base
	for i := range m.trees {
		z += m.trees[i].predict(row)
	}
	return z
}

func TestFlatMatchesNodeWalk(t *testing.T) {
	for _, seed := range []uint64{7, 41, 1337} {
		x, y := mltest.Blobs(seed, 900, 12, 2)
		punchNaNs(x, int64(seed+1), 0.15)
		m := New(fitOpts(false, 1))
		if err := m.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		if m.prog == nil {
			t.Fatal("Fit left no compiled program")
		}

		// Also score rows the model never saw, including all-NaN rows.
		xs, _ := mltest.Blobs(seed+9, 500, 12, 2)
		punchNaNs(xs, int64(seed+10), 0.3)
		for i := range xs[0] {
			xs[0][i] = math.NaN()
		}

		for _, workers := range []int{1, 2, 8} {
			m.opts.Workers = workers
			margins := make([]float64, len(xs))
			m.MarginInto(xs, margins)
			preds := make([]int, len(xs))
			m.PredictInto(xs, preds)
			scores := make([]float64, len(xs))
			m.ScoreInto(xs, scores)
			for i := range xs {
				want := refMargin(m, xs[i])
				if math.Float64bits(margins[i]) != math.Float64bits(want) {
					t.Fatalf("seed %d workers %d row %d: flat margin %v != walker %v",
						seed, workers, i, margins[i], want)
				}
				wantScore := sigmoid(want)
				if math.Float64bits(scores[i]) != math.Float64bits(wantScore) {
					t.Fatalf("seed %d workers %d row %d: flat score %v != walker %v",
						seed, workers, i, scores[i], wantScore)
				}
				wantPred := 0
				if wantScore >= 0.5 {
					wantPred = 1
				}
				if preds[i] != wantPred {
					t.Fatalf("seed %d workers %d row %d: flat label %d != walker %d",
						seed, workers, i, preds[i], wantPred)
				}
			}
		}

		// A Save/Load round-trip must compile an equivalent program.
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.prog == nil {
			t.Fatal("Load left no compiled program")
		}
		for i := range xs {
			a, b := m.Score(xs[i]), loaded.Score(xs[i])
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("seed %d row %d: loaded flat score %v != fitted %v", seed, i, b, a)
			}
		}
	}
}

// TestPredictIntoAllocs is the acceptance gate: the flat batch predict
// path allocates nothing per call with Workers == 1.
func TestPredictIntoAllocs(t *testing.T) {
	x, y := mltest.Blobs(5, 600, 10, 2)
	m := New(fitOpts(false, 1))
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	out := make([]int, len(x))
	scores := make([]float64, len(x))
	margins := make([]float64, len(x))
	m.PredictInto(x, out) // warm up
	if n := testing.AllocsPerRun(200, func() { m.PredictInto(x, out) }); n != 0 {
		t.Fatalf("PredictInto allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { m.ScoreInto(x, scores) }); n != 0 {
		t.Fatalf("ScoreInto allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { m.MarginInto(x, margins) }); n != 0 {
		t.Fatalf("MarginInto allocates %v per run, want 0", n)
	}
}

// TestCompileArena spot-checks the arena invariants Load and Fit rely on:
// preorder layout (left child at i+1), per-tree roots in tree order, and
// self-absorbing leaves.
func TestCompileArena(t *testing.T) {
	x, y := mltest.Blobs(11, 400, 8, 2)
	m := New(fitOpts(false, 1))
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	p := m.prog
	total := 0
	for i := range m.trees {
		total += len(m.trees[i].nodes)
	}
	if len(p.nodes) != total {
		t.Fatalf("arena size %d, want %d nodes", len(p.nodes), total)
	}
	if len(p.roots) != len(m.trees) {
		t.Fatalf("roots %d, want %d", len(p.roots), len(m.trees))
	}
	for i, root := range p.roots {
		if i > 0 && root <= p.roots[i-1] {
			t.Fatalf("roots not ascending: %v", p.roots)
		}
		if int(root) >= total {
			t.Fatalf("root %d out of arena", root)
		}
	}
	for i := range p.nodes {
		n := p.nodes[i]
		right := int(nodeRightOff(n)) / flatStride
		if nodeSplitRank(n) < 0 {
			// Self-absorbing leaf: splitRank -1, feat 0, right pointing at
			// itself, so the lockstep walkers park here instead of
			// branching out.
			if right != i || nodeFeat(n) != 0 || nodeSplitRank(n) != -1 {
				t.Fatalf("leaf %d not self-absorbing: rank %d feat %d right %d",
					i, nodeSplitRank(n), nodeFeat(n), right)
			}
			continue
		}
		if int(nodeFeat(n)) >= m.cols {
			t.Fatalf("node %d splits feature %d beyond %d cols", i, nodeFeat(n), m.cols)
		}
		if int(nodeSplitRank(n)) >= 1<<p.levels {
			t.Fatalf("node %d splitRank %d beyond table size %d", i, nodeSplitRank(n), 1<<p.levels)
		}
		// Internal node: left child is implicitly i+1, right child must be
		// inside the arena and beyond the left child.
		if right <= i+1 || right >= total {
			t.Fatalf("node %d right child %d out of order", i, right)
		}
	}
}

func nodeSplitRank(n flatNode) int16 { return int16(int64(n) >> 48) }
func nodeFeat(n flatNode) uint8      { return uint8(n >> 32) }
func nodeRightOff(n flatNode) uint32 { return uint32(n) }

// MarginInto writes each row's raw margin (log-odds) into out, which must
// have len(x) slots, sharded over the model's worker pool. Allocation-free
// with Workers == 1; bit-identical at any worker count.
func (m *Model) MarginInto(x [][]float64, out []float64) {
	if p := m.prog; p != nil {
		workers := gate(par.Workers(m.opts.Workers), len(x)*(1+len(m.trees)))
		if workers <= 1 {
			p.marginInto(x, out)
			return
		}
		par.ForChunks(workers, len(x), func(_, lo, hi int) {
			p.marginInto(x[lo:hi], out[lo:hi])
		})
		return
	}
	for i := range x {
		z := m.base
		for t := range m.trees {
			z += m.trees[t].predict(x[i])
		}
		out[i] = z
	}
}

// ScoreInto writes the predicted positive-class probability of every row
// into out, which must have len(x) slots. Allocation-free with Workers == 1.
func (m *Model) ScoreInto(x [][]float64, out []float64) {
	workers := gate(par.Workers(m.opts.Workers), len(x)*(1+len(m.trees)))
	if p := m.prog; p != nil {
		if workers <= 1 {
			p.scoreInto(x, out)
			return
		}
		par.ForChunks(workers, len(x), func(_, lo, hi int) {
			p.scoreInto(x[lo:hi], out[lo:hi])
		})
		return
	}
	par.ForChunks(workers, len(x), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = m.Score(x[i])
		}
	})
}

// scoreInto writes sigmoid probabilities, allocating nothing.
func (p *program) scoreInto(x [][]float64, out []float64) {
	p.marginInto(x, out)
	for i, z := range out {
		out[i] = sigmoid(z)
	}
}
