// Package xgb implements gradient-boosted decision trees with second-order
// (Newton) boosting on the logistic loss — the XGBoost algorithm of Chen &
// Guestrin (2016) as used for the paper's best-performing model. Split
// finding is histogram-based: features are bucketed into quantile bins once
// per Fit, and each tree node scans per-bin gradient statistics, giving
// training cost O(rows·cols + nodes·cols·bins).
//
// The trainer follows the layout tricks of modern GBDT engines: the bin
// matrix is column-major so each feature's histogram accumulates from one
// contiguous byte column; histograms are compact (per-feature bin counts,
// not a fixed stride) with gradient and hessian interleaved so one cell is
// one cache line touch; node membership is an in-place stable partition of
// a single reusable row-index buffer, so growing a tree allocates nothing
// per node; and boosting-round margin updates walk no trees at all — every
// row's leaf is already known from the partition, so the update is a scatter
// over leaf segments. All of that is bit-for-bit identical to the textbook
// formulation. Optionally (Options.FastHist) each split builds only the
// smaller child's histogram and derives the sibling as parent − child;
// subtraction reorders float summation, so it is off by default and treated
// like a sketch mode: exact-mode output is pinned to the reference, and
// FastHist mode is pinned to identical tree structure within quality ε.
//
// Inference compiles the fitted ensemble into a flat SoA program (depth-
// first node arena, implicit left child, leaf values inline) with
// zero-allocation batch entry points; see flat.go. The compiled program is
// pinned bit-for-bit to the reference node-walk (tree.predict).
//
// Training and scoring are feature-/row-parallel on a bounded worker pool
// (internal/par) with deterministic ordered reductions: every worker owns a
// contiguous feature or row range, per-cell accumulation order matches the
// serial loop, and split candidates merge in ascending feature order — so
// tree structure and scores are bit-for-bit identical at every worker
// count, including the Workers == 1 serial fallback, in both histogram
// modes.
//
// The implementation exposes per-feature total gain, the importance measure
// plotted in Figure 10.
package xgb

import (
	"fmt"
	"math"
	"sort"

	"github.com/ixp-scrubber/ixpscrubber/internal/par"
)

// Options are the XGBoost hyperparameters exercised by the Appendix C grid.
type Options struct {
	// Estimators is the number of boosted trees (paper selects 24).
	Estimators int
	// MaxDepth bounds tree depth (paper selects 24; the histogram builder
	// stops earlier when nodes become pure).
	MaxDepth int
	// LearningRate is the shrinkage applied to every leaf (paper: 0.3).
	LearningRate float64
	// Lambda is the L2 regularization on leaf weights.
	Lambda float64
	// Gamma is the minimum gain required to split.
	Gamma float64
	// MinChildWeight is the minimum hessian sum per child.
	MinChildWeight float64
	// Bins is the number of histogram bins per feature.
	Bins int
	// FastHist enables histogram subtraction: each split builds only the
	// smaller child's histogram from rows and derives the sibling as
	// parent − child, roughly halving histogram work on balanced trees.
	// Subtraction reorders floating-point summation, so fitted models are
	// not bit-identical to the exact mode — tree structure matches and
	// quality stays within ε (see the equivalence tests) — which is why it
	// is opt-in. Both modes are bit-for-bit deterministic at every worker
	// count.
	FastHist bool `json:"fast_hist,omitempty"`
	// Workers bounds the worker pool for Fit and Predict: 0 sizes from
	// GOMAXPROCS, 1 forces the serial path. Results are identical at every
	// value; the knob is an execution parameter, so it is not serialized
	// with fitted models.
	Workers int `json:"-"`
}

// DefaultOptions mirrors the paper's selected operating point with
// practical defaults for the remaining knobs.
func DefaultOptions() Options {
	return Options{
		Estimators:     24,
		MaxDepth:       24,
		LearningRate:   0.3,
		Lambda:         1.0,
		Gamma:          0.0,
		MinChildWeight: 1.0,
		Bins:           64,
	}
}

type node struct {
	feature int     // split feature, -1 for leaf
	thresh  float64 // go left if value <= thresh (bins are (lo, hi] ranges)
	left    int
	right   int
	leaf    float64
	defLeft bool // direction for missing (NaN) values
}

type tree struct {
	nodes []node
}

// predict is the reference node-walk over raw feature values. It is the
// semantic ground truth the compiled flat program (flat.go) is pinned to
// bit-for-bit, and the fallback for models without a compiled program.
func (t *tree) predict(row []float64) float64 {
	i := 0
	for {
		n := &t.nodes[i]
		if n.feature < 0 {
			return n.leaf
		}
		v := row[n.feature]
		if math.IsNaN(v) {
			if n.defLeft {
				i = n.left
			} else {
				i = n.right
			}
			continue
		}
		if v <= n.thresh {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// Model is a fitted gradient-boosted tree ensemble.
type Model struct {
	opts  Options
	trees []tree
	base  float64 // base score (log-odds of the positive class)
	gain  []float64
	cols  int
	// prog is the compiled flat inference program, rebuilt after every Fit
	// and Load. It is derived state — never serialized — and bit-identical
	// to walking trees via tree.predict.
	prog *program
}

// New returns an unfitted model.
func New(opts Options) *Model {
	if opts.Estimators <= 0 {
		opts.Estimators = 24
	}
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = 6
	}
	if opts.LearningRate <= 0 {
		opts.LearningRate = 0.3
	}
	if opts.Bins <= 1 {
		opts.Bins = 64
	}
	if opts.Lambda < 0 {
		opts.Lambda = 1
	}
	if opts.MinChildWeight <= 0 {
		opts.MinChildWeight = 1
	}
	return &Model{opts: opts}
}

// minParallelWork is the work floor (inner-loop iterations) below which a
// parallel region is not worth its goroutine fan-out and runs serially.
// Purely a scheduling decision: outputs are identical either way.
const minParallelWork = 4096

// gate returns the worker count for a region with `work` inner iterations.
func gate(workers, work int) int {
	if work < minParallelWork {
		return 1
	}
	return workers
}

// Fit trains the ensemble.
func (m *Model) Fit(x [][]float64, y []int) error {
	if len(x) == 0 {
		return fmt.Errorf("xgb: empty training set")
	}
	rows, cols := len(x), len(x[0])
	m.cols = cols
	m.gain = make([]float64, cols)
	m.trees = m.trees[:0]
	m.prog = nil
	workers := par.Workers(m.opts.Workers)

	// Base score: log odds of the training positive rate.
	pos := 0
	for _, v := range y {
		if v == 1 {
			pos++
		}
	}
	p := (float64(pos) + 1) / (float64(rows) + 2)
	m.base = math.Log(p / (1 - p))

	// Quantile binning per feature, feature-parallel: every worker owns a
	// contiguous column range with a reusable sort buffer. The bin matrix is
	// column-major — binIdx[j*rows+i] = bin of x[i][j] — so histogram
	// accumulation for feature j streams one contiguous byte column. Bins
	// index 0..nb-1 where nb = len(edges[j])+1; missing (NaN) values get the
	// dedicated trailing bin nb, so the accumulation loop needs no missing
	// branch and histogram subtraction carries the missing sums for free.
	bins := m.opts.Bins
	if bins > 254 {
		bins = 254
	}
	edges := make([][]float64, cols)
	binIdx := make([]uint8, cols*rows)
	par.ForChunks(gate(workers, rows*cols), cols, func(_, lo, hi int) {
		vals := make([]float64, 0, rows)
		for j := lo; j < hi; j++ {
			vals = vals[:0]
			for i := 0; i < rows; i++ {
				if !math.IsNaN(x[i][j]) {
					vals = append(vals, x[i][j])
				}
			}
			sort.Float64s(vals)
			e := quantileEdges(vals, bins)
			edges[j] = e
			miss := uint8(len(e) + 1)
			col := binIdx[j*rows : (j+1)*rows]
			for i := 0; i < rows; i++ {
				col[i] = binValue(e, x[i][j], miss)
			}
		}
	})

	margin := make([]float64, rows)
	for i := range margin {
		margin[i] = m.base
	}
	// Gradient and hessian interleave into one array — the histogram loop
	// reads both per row, so pairing them halves its cache-line fetches.
	gh := make([]float64, 2*rows)

	b := newTreeBuilder(m, rows, cols, workers, edges)
	for t := 0; t < m.opts.Estimators; t++ {
		// Row-parallel gradient/hessian refresh: each row's statistics are
		// independent, so sharding rows is trivially deterministic.
		par.ForChunks(gate(workers, rows), rows, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				pi := sigmoid(margin[i])
				g := pi - float64(y[i])
				h := pi * (1 - pi)
				if h < 1e-16 {
					h = 1e-16
				}
				gh[2*i] = g
				gh[2*i+1] = h
			}
		})
		tr := b.build(binIdx, gh)
		m.trees = append(m.trees, tr)
		// Margin update in bin space: the partition already routed every row
		// to its leaf (split thresholds are bin edges, so bin routing equals
		// threshold routing exactly), so the update is a scatter over the
		// tree's leaf segments — no tree walk, each row updated once.
		b.applyLeaves(margin)
	}
	m.prog = compile(m)
	return nil
}

// binValue maps v to its bin under ascending edges e: the SearchFloat64s
// bucket for real values, the dedicated trailing miss bin for NaN.
func binValue(e []float64, v float64, miss uint8) uint8 {
	if math.IsNaN(v) {
		return miss
	}
	return uint8(sort.SearchFloat64s(e, v))
}

// quantileEdges returns ascending bin edges splitting sorted vals into at
// most `bins` buckets; duplicates collapse.
func quantileEdges(sorted []float64, bins int) []float64 {
	if len(sorted) == 0 {
		return nil
	}
	var edges []float64
	maxVal := sorted[len(sorted)-1]
	for b := 1; b < bins; b++ {
		v := sorted[len(sorted)*b/bins]
		if v >= maxVal {
			break // an edge at the maximum leaves the right bin empty
		}
		if len(edges) == 0 || v > edges[len(edges)-1] {
			edges = append(edges, v)
		}
	}
	return edges
}

// buildItem is one pending node on the builder's explicit stack. Its row
// set is the rowIdx segment [lo, hi); in FastHist mode it carries the
// node's pre-built histogram.
type buildItem struct {
	nodeIdx int
	lo, hi  int32
	depth   int
	gSum    float64
	hSum    float64
	hist    []float64
}

// leafSeg records a finalized leaf's rowIdx segment for the bin-space
// margin update. Segments of distinct leaves never overlap, and a
// finalized segment is never re-partitioned, so the scatter is race-free
// at any worker count.
type leafSeg struct {
	lo, hi int32
	val    float64
}

// splitCand is one worker's best split over its feature range.
type splitCand struct {
	gain     float64
	feat     int
	bin      int
	missLeft bool
}

// treeBuilder carries the scratch state reused across boosting rounds:
// the row-index permutation and its partition staging buffer, the compact
// shared histogram (feature cell ranges are disjoint across workers), the
// FastHist histogram pool, and the per-tree leaf segments.
type treeBuilder struct {
	m       *Model
	rows    int
	cols    int
	workers int
	edges   [][]float64
	// featOff[j] is the first histogram cell of feature j; feature j owns
	// len(edges[j])+2 cells (its bins plus the trailing missing-value
	// cell). One cell is an interleaved (grad, hess) float pair.
	featOff []int32
	nCells  int
	hist    []float64 // shared per-node histogram (exact mode)
	rowIdx  []int32   // one reusable permutation of all rows
	scratch []int32   // right-child staging for the stable partition
	cands   []splitCand
	stack   []buildItem
	leaves  []leafSeg
	pool    [][]float64 // FastHist histogram free list (O(depth) live)
}

func newTreeBuilder(m *Model, rows, cols, workers int, edges [][]float64) *treeBuilder {
	off := make([]int32, cols+1)
	for j := 0; j < cols; j++ {
		off[j+1] = off[j] + int32(len(edges[j])+2)
	}
	b := &treeBuilder{
		m:       m,
		rows:    rows,
		cols:    cols,
		workers: workers,
		edges:   edges,
		featOff: off,
		nCells:  int(off[cols]),
		rowIdx:  make([]int32, rows),
		scratch: make([]int32, rows),
		cands:   make([]splitCand, workers),
	}
	if !m.opts.FastHist {
		b.hist = make([]float64, 2*b.nCells)
	}
	return b
}

// grabHist takes a zeroed histogram from the FastHist pool.
func (b *treeBuilder) grabHist() []float64 {
	if n := len(b.pool); n > 0 {
		h := b.pool[n-1]
		b.pool = b.pool[:n-1]
		return h
	}
	return make([]float64, 2*b.nCells)
}

// releaseHist returns a histogram to the pool once its node is finalized.
func (b *treeBuilder) releaseHist(h []float64) {
	if h != nil {
		b.pool = append(b.pool, h)
	}
}

// zeroRange clears the cells of features [lo, hi).
func (b *treeBuilder) zeroRange(hist []float64, lo, hi int) {
	clear(hist[2*b.featOff[lo] : 2*b.featOff[hi]])
}

// accumRange accumulates the gradient/hessian histogram of features
// [lo, hi) over the rows of seg, in seg order — the same per-cell float
// summation order as the serial loop, whatever the chunking.
func (b *treeBuilder) accumRange(hist []float64, binIdx []uint8, gh []float64, seg []int32, lo, hi int) {
	rows := b.rows
	for j := lo; j < hi; j++ {
		col := binIdx[j*rows : (j+1)*rows]
		cells := hist[2*b.featOff[j] : 2*b.featOff[j+1]]
		for _, r := range seg {
			k := 2 * int(col[r])
			cells[k] += gh[2*r]
			cells[k+1] += gh[2*r+1]
		}
	}
}

// buildHist fills hist with the histogram of seg, feature-parallel.
func (b *treeBuilder) buildHist(hist []float64, binIdx []uint8, gh []float64, seg []int32) {
	w := gate(b.workers, len(seg)*b.cols)
	if w > b.cols {
		w = b.cols
	}
	par.ForChunks(w, b.cols, func(_, lo, hi int) {
		b.zeroRange(hist, lo, hi)
		b.accumRange(hist, binIdx, gh, seg, lo, hi)
	})
}

// scanRange scans the histograms of features [lo, hi) for the best split,
// reproducing the serial scan's first-strictly-greater tie-breaking.
func (b *treeBuilder) scanRange(hist []float64, gSum, hSum, parentScore float64, lo, hi int) splitCand {
	m := b.m
	lambda := m.opts.Lambda
	best := splitCand{gain: m.opts.Gamma, feat: -1, bin: -1}
	for j := lo; j < hi; j++ {
		off := int(b.featOff[j])
		nb := len(b.edges[j]) + 1
		missG := hist[2*(off+nb)]
		missH := hist[2*(off+nb)+1]
		var gl, hl float64
		for bin := 0; bin < nb-1; bin++ {
			k := 2 * (off + bin)
			gl += hist[k]
			hl += hist[k+1]
			// Try missing values going right (default) and left.
			for _, missLeft := range [2]bool{false, true} {
				gL, hL := gl, hl
				if missLeft {
					gL += missG
					hL += missH
				}
				gR := gSum - gL
				hR := hSum - hL
				if hL < m.opts.MinChildWeight || hR < m.opts.MinChildWeight {
					continue
				}
				gain := 0.5 * (gL*gL/(hL+lambda) + gR*gR/(hR+lambda) - parentScore)
				if gain > best.gain {
					best = splitCand{gain: gain, feat: j, bin: bin, missLeft: missLeft}
				}
			}
		}
	}
	return best
}

func (b *treeBuilder) setLeaf(tr *tree, it buildItem, weight float64) {
	tr.nodes[it.nodeIdx] = node{feature: -1, leaf: weight}
	b.leaves = append(b.leaves, leafSeg{lo: it.lo, hi: it.hi, val: weight})
	b.releaseHist(it.hist)
}

func (b *treeBuilder) build(binIdx []uint8, gh []float64) tree {
	m, cols, rows := b.m, b.cols, b.rows
	for i := range b.rowIdx {
		b.rowIdx[i] = int32(i)
	}
	var g0, h0 float64
	for i := 0; i < rows; i++ {
		g0 += gh[2*i]
		h0 += gh[2*i+1]
	}
	tr := tree{nodes: []node{{feature: -1}}}
	b.leaves = b.leaves[:0]
	root := buildItem{nodeIdx: 0, lo: 0, hi: int32(rows), depth: 0, gSum: g0, hSum: h0}
	if m.opts.FastHist {
		root.hist = b.grabHist()
		b.buildHist(root.hist, binIdx, gh, b.rowIdx)
	}
	stack := append(b.stack[:0], root)
	lambda := m.opts.Lambda

	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		leafWeight := -it.gSum / (it.hSum + lambda) * m.opts.LearningRate
		if it.depth >= m.opts.MaxDepth || it.hi-it.lo < 2 {
			b.setLeaf(&tr, it, leafWeight)
			continue
		}
		seg := b.rowIdx[it.lo:it.hi]

		// Histogram + split scan for this node, feature-parallel: every
		// worker owns a contiguous feature range, so each (feature, bin)
		// cell is accumulated by exactly one worker in row order — the same
		// floating-point sum as the serial loop. Each worker then scans only
		// the histograms it owns and reports its best candidate; candidates
		// merge below in ascending feature order, reproducing the serial
		// scan's first-strictly-greater tie-breaking. In FastHist mode the
		// node's histogram already exists (built at its parent's split), so
		// only the scan runs.
		nodeWorkers := gate(b.workers, len(seg)*cols)
		if nodeWorkers > cols {
			nodeWorkers = cols
		}
		hist := it.hist
		if hist == nil {
			hist = b.hist
		}
		cands := b.cands[:nodeWorkers]
		parentScore := it.gSum * it.gSum / (it.hSum + lambda)
		par.ForChunks(nodeWorkers, cols, func(w, lo, hi int) {
			if it.hist == nil {
				b.zeroRange(hist, lo, hi)
				b.accumRange(hist, binIdx, gh, seg, lo, hi)
			}
			cands[w] = b.scanRange(hist, it.gSum, it.hSum, parentScore, lo, hi)
		})

		// Ordered reduction: chunk w covers lower features than chunk w+1,
		// and within a chunk the serial tie-break already applied, so taking
		// the first strictly-greater candidate equals the serial scan.
		best := splitCand{gain: m.opts.Gamma, feat: -1, bin: -1}
		for _, c := range cands {
			if c.feat >= 0 && c.gain > best.gain {
				best = c
			}
		}
		if best.feat < 0 {
			b.setLeaf(&tr, it, leafWeight)
			continue
		}
		m.gain[best.feat] += best.gain

		// In-place stable partition of the node's rowIdx segment: left rows
		// compact forward in order, right rows stage in scratch and copy
		// back behind them — the same left/right sequences the reference's
		// per-node append lists produced, with zero allocations.
		thresh := b.edges[best.feat][best.bin]
		col := binIdx[best.feat*rows : (best.feat+1)*rows]
		miss := uint8(len(b.edges[best.feat]) + 1)
		var gL, hL float64
		w := it.lo
		nRight := 0
		for k := it.lo; k < it.hi; k++ {
			r := b.rowIdx[k]
			bin := col[r]
			goLeft := int(bin) <= best.bin
			if bin == miss {
				goLeft = best.missLeft
			}
			if goLeft {
				b.rowIdx[w] = r
				w++
				gL += gh[2*r]
				hL += gh[2*r+1]
			} else {
				b.scratch[nRight] = r
				nRight++
			}
		}
		copy(b.rowIdx[w:it.hi], b.scratch[:nRight])
		if w == it.lo || nRight == 0 {
			b.setLeaf(&tr, it, leafWeight)
			continue
		}

		li := len(tr.nodes)
		tr.nodes = append(tr.nodes, node{feature: -1}, node{feature: -1})
		tr.nodes[it.nodeIdx] = node{
			feature: best.feat,
			thresh:  thresh,
			left:    li,
			right:   li + 1,
			defLeft: best.missLeft,
		}
		left := buildItem{nodeIdx: li, lo: it.lo, hi: w, depth: it.depth + 1, gSum: gL, hSum: hL}
		right := buildItem{nodeIdx: li + 1, lo: w, hi: it.hi, depth: it.depth + 1, gSum: it.gSum - gL, hSum: it.hSum - hL}
		if it.hist != nil {
			// Histogram subtraction: build only the smaller child's
			// histogram from its rows; the sibling's is parent − child,
			// derived cell-wise into the parent's buffer. Both steps are
			// deterministic at any worker count (fixed row order per cell,
			// elementwise subtraction).
			small, large := &left, &right
			if int(it.hi)-int(w) < int(w)-int(it.lo) {
				small, large = &right, &left
			}
			small.hist = b.grabHist()
			b.buildHist(small.hist, binIdx, gh, b.rowIdx[small.lo:small.hi])
			large.hist = it.hist
			sh := small.hist
			par.ForChunks(gate(b.workers, b.nCells), 2*b.nCells, func(_, lo, hi int) {
				lh := large.hist[lo:hi]
				for i, v := range sh[lo:hi] {
					lh[i] -= v
				}
			})
		}
		stack = append(stack, left, right)
	}
	b.stack = stack[:0] // keep the grown backing array for the next tree
	return tr
}

// applyLeaves adds each leaf's weight to the margins of its rows. Leaf
// segments partition the row set, so every margin slot is written by
// exactly one leaf — deterministic at any worker count.
func (b *treeBuilder) applyLeaves(margin []float64) {
	par.ForChunks(gate(b.workers, b.rows), len(b.leaves), func(_, lo, hi int) {
		for _, lf := range b.leaves[lo:hi] {
			v := lf.val
			for _, r := range b.rowIdx[lf.lo:lf.hi] {
				margin[r] += v
			}
		}
	})
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

// Score returns the predicted probability of the positive class.
func (m *Model) Score(row []float64) float64 {
	if m.prog != nil {
		return sigmoid(m.prog.marginRow(row))
	}
	z := m.base
	for i := range m.trees {
		z += m.trees[i].predict(row)
	}
	return sigmoid(z)
}

// Predict labels rows at the 0.5 probability threshold. Rows are scored in
// parallel shards; every output slot depends only on its own row, so the
// result is identical at any worker count.
func (m *Model) Predict(x [][]float64) []int {
	out := make([]int, len(x))
	m.PredictInto(x, out)
	return out
}

// PredictInto labels rows at the 0.5 probability threshold into out, which
// must have len(x) slots. The flat-program batch path allocates nothing;
// with Workers == 1 the whole call is allocation-free.
func (m *Model) PredictInto(x [][]float64, out []int) {
	workers := gate(par.Workers(m.opts.Workers), len(x)*(1+len(m.trees)))
	if p := m.prog; p != nil {
		if workers <= 1 {
			// Direct call: the closure below escapes and would cost one
			// allocation even on the serial fallback.
			p.predictInto(x, out)
			return
		}
		par.ForChunks(workers, len(x), func(_, lo, hi int) {
			p.predictInto(x[lo:hi], out[lo:hi])
		})
		return
	}
	par.ForChunks(workers, len(x), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if m.Score(x[i]) >= 0.5 {
				out[i] = 1
			} else {
				out[i] = 0
			}
		}
	})
}

// GainImportance returns the total split gain attributed to each feature
// column across all trees (Figure 10's "average gain" up to normalization).
func (m *Model) GainImportance() []float64 {
	return append([]float64(nil), m.gain...)
}

// NumTrees returns the number of fitted trees.
func (m *Model) NumTrees() int { return len(m.trees) }
