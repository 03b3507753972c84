// Package tree implements a CART decision tree classifier with Gini
// impurity, the DT model of the paper's comparison, including the
// hyperparameters of its Appendix C grid: minimal cost-complexity pruning
// (ccp_alpha), minimum impurity decrease, and minimum samples per leaf and
// split.
package tree

import (
	"fmt"
	"math"
	"sort"
)

// Options are the decision tree hyperparameters.
type Options struct {
	MaxDepth            int     // 0 = unlimited
	MinSamplesLeaf      int     // paper grid: {1, 100, 300}
	MinSamplesSplit     int     // paper grid: {2, 100}
	MinImpurityDecrease float64 // paper grid: {1e-5, 1e-3}
	CCPAlpha            float64 // paper grid: {1e-9, 1e-7, 1e-5, 0}
}

// DefaultOptions returns the paper's selected parameters.
func DefaultOptions() Options {
	return Options{
		MinSamplesLeaf:      1,
		MinSamplesSplit:     2,
		MinImpurityDecrease: 1e-5,
		CCPAlpha:            1e-7,
	}
}

type node struct {
	feature     int // -1 = leaf
	thresh      float64
	left, right int
	// prediction data
	prob    float64 // P(y=1) among training rows in this node
	samples int
	// pruning bookkeeping
	impurity float64
}

// Model is a fitted decision tree.
type Model struct {
	opts  Options
	nodes []node
}

// New returns an unfitted tree.
func New(opts Options) *Model {
	if opts.MinSamplesLeaf <= 0 {
		opts.MinSamplesLeaf = 1
	}
	if opts.MinSamplesSplit < 2 {
		opts.MinSamplesSplit = 2
	}
	return &Model{opts: opts}
}

func gini(pos, n int) float64 {
	if n == 0 {
		return 0
	}
	p := float64(pos) / float64(n)
	return 2 * p * (1 - p)
}

type buildItem struct {
	nodeIdx int
	rows    []int
	depth   int
}

// Fit grows the tree and applies cost-complexity pruning.
func (m *Model) Fit(x [][]float64, y []int) error {
	if len(x) == 0 {
		return fmt.Errorf("tree: empty training set")
	}
	cols := len(x[0])
	all := make([]int, len(x))
	for i := range all {
		all[i] = i
	}
	m.nodes = []node{{feature: -1}}
	queue := []buildItem{{0, all, 0}}

	type cand struct {
		idx  int
		vals []float64
	}
	_ = cand{}

	for len(queue) > 0 {
		it := queue[len(queue)-1]
		queue = queue[:len(queue)-1]

		pos := 0
		for _, r := range it.rows {
			pos += y[r]
		}
		n := len(it.rows)
		nd := node{
			feature:  -1,
			prob:     float64(pos) / float64(n),
			samples:  n,
			impurity: gini(pos, n),
		}
		m.nodes[it.nodeIdx] = nd
		if pos == 0 || pos == n || n < m.opts.MinSamplesSplit ||
			(m.opts.MaxDepth > 0 && it.depth >= m.opts.MaxDepth) {
			continue
		}

		// Exact greedy split search over sorted feature values.
		bestGain := m.opts.MinImpurityDecrease
		bestFeat := -1
		bestThresh := 0.0
		parentImp := nd.impurity
		order := make([]int, n)
		for j := 0; j < cols; j++ {
			copy(order, it.rows)
			sort.Slice(order, func(a, b int) bool { return x[order[a]][j] < x[order[b]][j] })
			posL, nL := 0, 0
			for k := 0; k < n-1; k++ {
				r := order[k]
				posL += y[r]
				nL++
				if x[order[k]][j] == x[order[k+1]][j] {
					continue
				}
				nR := n - nL
				if nL < m.opts.MinSamplesLeaf || nR < m.opts.MinSamplesLeaf {
					continue
				}
				posR := pos - posL
				wImp := (float64(nL)*gini(posL, nL) + float64(nR)*gini(posR, nR)) / float64(n)
				gain := (parentImp - wImp) * float64(n) / float64(len(x))
				if gain > bestGain {
					bestGain = gain
					bestFeat = j
					bestThresh = (x[order[k]][j] + x[order[k+1]][j]) / 2
				}
			}
		}
		if bestFeat < 0 {
			continue
		}
		var leftRows, rightRows []int
		for _, r := range it.rows {
			if x[r][bestFeat] <= bestThresh {
				leftRows = append(leftRows, r)
			} else {
				rightRows = append(rightRows, r)
			}
		}
		if len(leftRows) == 0 || len(rightRows) == 0 {
			continue
		}
		li := len(m.nodes)
		m.nodes = append(m.nodes, node{feature: -1}, node{feature: -1})
		nd.feature = bestFeat
		nd.thresh = bestThresh
		nd.left, nd.right = li, li+1
		m.nodes[it.nodeIdx] = nd
		queue = append(queue,
			buildItem{li, leftRows, it.depth + 1},
			buildItem{li + 1, rightRows, it.depth + 1},
		)
	}
	if m.opts.CCPAlpha > 0 {
		m.prune(0, len(x))
	}
	return nil
}

// prune applies one-pass minimal cost-complexity pruning: a subtree is
// collapsed when its impurity improvement per leaf is below alpha.
func (m *Model) prune(idx, total int) (leaves int, cost float64) {
	nd := &m.nodes[idx]
	w := float64(nd.samples) / float64(total)
	if nd.feature < 0 {
		return 1, w * nd.impurity
	}
	lLeaves, lCost := m.prune(nd.left, total)
	rLeaves, rCost := m.prune(nd.right, total)
	leaves = lLeaves + rLeaves
	cost = lCost + rCost
	own := w * nd.impurity
	alphaEff := (own - cost) / float64(leaves-1)
	if alphaEff < m.opts.CCPAlpha {
		nd.feature = -1 // collapse to leaf
		return 1, own
	}
	return leaves, cost
}

// Score returns P(y=1) from the leaf the row lands in.
func (m *Model) Score(row []float64) float64 {
	i := 0
	for {
		n := &m.nodes[i]
		if n.feature < 0 {
			return n.prob
		}
		v := row[n.feature]
		if math.IsNaN(v) || v <= n.thresh {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// Predict labels rows at the 0.5 threshold.
func (m *Model) Predict(x [][]float64) []int {
	out := make([]int, len(x))
	for i, row := range x {
		if m.Score(row) >= 0.5 {
			out[i] = 1
		}
	}
	return out
}
