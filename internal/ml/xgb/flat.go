package xgb

import (
	"math"
	"math/bits"
	"sort"
	"unsafe"
)

// maxFlatCols bounds the stack-allocated per-row rank buffer the batch
// walkers reuse. Models wider than this (none in this system — the
// encoded feature matrix is ~45 columns) simply don't compile a flat
// program and score through the reference tree walker instead. The
// value must stay a power of two: the hot loop indexes the rank buffer
// with feat & (maxFlatCols-1), which the compiler can prove in-bounds —
// together with the offset-based node cursors that makes the inner walk
// entirely bounds-check-free.
const maxFlatCols = 256

const signBit = 1 << 63

// nanKey is the missing-value sentinel: strictly above every real key,
// never produced by a finite threshold. Rows containing it are detected
// once, during the rank transform, and routed through the reference
// tree walker — the lockstep fast path never sees missing values.
const nanKey = ^uint64(0)

// floatKey maps a float64 to a uint64 whose unsigned order equals the
// float order: positives get their sign bit set, negatives are bitwise
// inverted, and NaN maps to the nanKey sentinel. For any non-NaN a, b
// with a, b not both zeros: a <= b ⟺ floatKey(a) <= floatKey(b). The
// zeros are the one subtlety: key(-0) = signBit-1 and key(+0) = signBit
// are ADJACENT integers, so no other value's key falls between them and
// any threshold except zero itself orders them identically. Thresholds
// are therefore normalized (-0 → +0) by compileKey at compile time,
// which keeps -0 row values ranking exactly like +0 without spending a
// normalization branch in the per-row hot transform.
func floatKey(v float64) uint64 {
	if v != v {
		return nanKey
	}
	b := math.Float64bits(v)
	return b ^ (uint64(int64(b)>>63) | signBit)
}

// compileKey is floatKey for thresholds: -0 collapses to +0 so that a
// zero threshold admits both zero row values on its left side, exactly
// as the float-domain compare v <= 0.0 does.
func compileKey(v float64) uint64 {
	if v == 0 {
		v = 0
	}
	return floatKey(v)
}

// flatStride is the byte size of one compiled node; walk cursors are
// byte offsets into the arena, so child links never pay an
// index-scaling or bounds-check instruction on the critical
// load-to-load path.
const flatStride = 8

// maxFlatRanks caps the number of distinct thresholds per feature a
// program can express: ranks must fit uint8 alongside the miss-free
// fast path. Trained models stay far below it (quantile binning yields
// at most Bins-1 distinct edges per feature).
const maxFlatRanks = 255

// Each compiled node is ONE uint64 — a single load per visit:
//
//	[63:48] splitRank, int16: rank of the threshold among this feature's
//	        distinct thresholds; -1 marks a leaf (so bit 63 doubles as
//	        the leaf flag)
//	[39:32] feat, uint8
//	[31:0]  right-child byte offset (the left child is off+flatStride)
//
// The walk compares RANKS, not raw floats: compile sorts each feature's
// distinct thresholds and the per-row transform ranks every value
// against that table, so v <= thresh ⟺ rank(v) <= splitRank — the
// rank is "how many distinct thresholds are strictly below v", and the
// equivalence is exact, not approximate, because ranking and the float
// compare are both resolved by the same total order on floatKeys.
//
// Leaves are self-absorbing: splitRank -1 is below every rank, so the
// branchless step always "goes right", and right = own offset — a chain
// that reaches its leaf simply steps in place. That lets the lockstep
// walkers keep stepping all chains with no per-chain leaf branch and
// exit on one test: AND the node words together and check bit 63 —
// every chain parked. Leaf values live in the program's leafVal array.
type flatNode = uint64

func packNode(splitRank int16, feat uint8, rightOff uint32) flatNode {
	return uint64(uint16(splitRank))<<48 | uint64(feat)<<32 | uint64(rightOff)
}

// program is the compiled flat inference form of a fitted ensemble:
// every tree's nodes laid out depth-first in one contiguous arena of
// single-word nodes, plus per-feature Eytzinger threshold tables for
// the row transform and the leaf values (off the hot path).
//
// The program is derived state, rebuilt from the trees after Fit and
// Load, never serialized, and pinned bit-for-bit to tree.predict by the
// equivalence suite: same routing decisions, the same leaf values, and
// per-row margin sums in the same base + tree0 + tree1 + … order. Rows
// with missing values bypass the program entirely and walk the
// reference trees, which also keeps the rank transform free of the
// default-direction logic.
//
// The walkers address the arena through unsafe.Add with byte-offset
// cursors. Every offset is either a root (bounded by construction) or a
// child link of a previously visited node; Load's structural validation
// (children in range and after their parent, single parent each)
// guarantees those stay inside the arena, which is what makes dropping
// the per-visit bounds check sound.
type program struct {
	base    float64
	cols    int
	nodes   []flatNode
	leafVal []float64 // leaf value per arena slot; 0 for internal nodes
	// table holds cols consecutive Eytzinger heaps of 1<<levels
	// threshold keys each (slot 0 of each heap unused, pad nanKey);
	// fillRanks runs `levels` branchless halving steps per value.
	table  []uint64
	levels uint
	roots  []int32 // arena index of each tree's root, in tree order
	trees  []tree  // reference trees, for rows with missing values
}

// arena returns the base pointer the offset walkers add into.
func (p *program) arena() unsafe.Pointer {
	return unsafe.Pointer(unsafe.SliceData(p.nodes))
}

func nodeAt(base unsafe.Pointer, off uintptr) flatNode {
	return *(*uint64)(unsafe.Add(base, off))
}

// compile lowers m's trees into a flat program, or nil for models too
// wide or threshold-rich for the packed encoding (those keep scoring
// through the reference walker). It handles any model that passes Load
// validation, so arenas stay linear in node count; a model with no
// trees compiles to just the base score.
func compile(m *Model) *program {
	if m.cols > maxFlatCols {
		return nil
	}
	total := 0
	for i := range m.trees {
		total += len(m.trees[i].nodes)
	}
	if uint64(total)*flatStride > math.MaxUint32 {
		return nil // byte offsets must fit the packed 32-bit child link
	}

	// Distinct threshold keys per feature, sorted: the rank universe.
	thresh := make([][]uint64, m.cols)
	for ti := range m.trees {
		for ni := range m.trees[ti].nodes {
			n := &m.trees[ti].nodes[ni]
			if n.feature >= 0 {
				thresh[n.feature] = append(thresh[n.feature], compileKey(n.thresh))
			}
		}
	}
	maxRanks := 0
	for f := range thresh {
		t := thresh[f]
		sort.Slice(t, func(a, b int) bool { return t[a] < t[b] })
		w := 0
		for i := range t {
			if i == 0 || t[i] != t[i-1] {
				t[w] = t[i]
				w++
			}
		}
		thresh[f] = t[:w]
		if w > maxRanks {
			maxRanks = w
		}
	}
	if maxRanks > maxFlatRanks {
		return nil
	}
	levels := uint(bits.Len(uint(maxRanks))) // 1<<levels > maxRanks

	p := &program{
		base:    m.base,
		cols:    m.cols,
		nodes:   make([]flatNode, 0, total),
		leafVal: make([]float64, 0, total),
		table:   make([]uint64, m.cols<<levels),
		levels:  levels,
		roots:   make([]int32, len(m.trees)),
		trees:   m.trees,
	}
	size := 1 << levels
	for f := range thresh {
		heap := p.table[f<<levels : (f+1)<<levels]
		pos := 0
		// In-order fill places the sorted keys across the implicit tree;
		// unused slots pad with nanKey, which no real key exceeds, so
		// searches fall left past the padding and ranks stay exact.
		var fill func(i int)
		fill = func(i int) {
			if i >= size {
				return
			}
			fill(2 * i)
			if pos < len(thresh[f]) {
				heap[i] = thresh[f][pos]
				pos++
			} else {
				heap[i] = nanKey
			}
			fill(2*i + 1)
		}
		heap[0] = nanKey
		if size > 1 {
			fill(1)
		}
	}

	for i := range m.trees {
		p.roots[i] = int32(len(p.nodes))
		p.emit(&m.trees[i], 0, thresh)
	}
	return p
}

// emit appends node ni of tr depth-first: the node, its left subtree
// (landing at the next slot), then its right subtree, backpatching the
// right-child offset into the packed word.
func (p *program) emit(tr *tree, ni int, thresh [][]uint64) int32 {
	n := &tr.nodes[ni]
	at := int32(len(p.nodes))
	if n.feature < 0 {
		p.nodes = append(p.nodes, packNode(-1, 0, uint32(at)*flatStride))
		p.leafVal = append(p.leafVal, n.leaf)
		return at
	}
	t := thresh[n.feature]
	key := compileKey(n.thresh)
	rank := sort.Search(len(t), func(i int) bool { return t[i] >= key })
	p.nodes = append(p.nodes, packNode(int16(rank), uint8(n.feature), 0))
	p.leafVal = append(p.leafVal, 0)
	p.emit(tr, n.left, thresh)
	r := p.emit(tr, n.right, thresh)
	p.nodes[at] |= uint64(uint32(r) * flatStride)
	return at
}

// rawKey is floatKey without the NaN branch, for the batched rank
// transform: NaN maps to SOME key (above +Inf for positive-sign NaN,
// below -Inf for negative), which is fine because rows containing NaN
// are detected separately and never use their ranks.
func rawKey(v float64) uint64 {
	b := math.Float64bits(v)
	return b ^ (uint64(int64(b)>>63) | signBit)
}

// rankStep is one Eytzinger halving: the borrow of (table key − value
// key) picks the child. After `levels` steps the heap position IS the
// count of distinct thresholds strictly below the value.
func rankStep(tb unsafe.Pointer, bias, i uintptr, k uint64) uintptr {
	h := *(*uint64)(unsafe.Add(tb, (bias+i)*8))
	_, borrow := bits.Sub64(h, k, 0) // 1 iff k > h
	return 2*i + uintptr(borrow)
}

// fillRanks transforms one row into threshold ranks — once per row; the
// ranks are then read ~trees × depth times as single-byte compares.
// Each value runs `levels` branchless Eytzinger steps, four feature
// columns interleaved so the serial load→borrow→index chains overlap
// (a single chain is ~10 cycles per level; four in flight approach the
// issue-width floor — array-based level-synchronous variants measured
// ~2× slower: more µops per step and the state round-trips through L1).
// Returns whether the row contains any missing value, in which case the
// caller abandons the fast path for that row (the overwhelmingly common
// case has none: the core pipeline imputes before scoring) — which is
// also why the transform itself needs no NaN handling beyond detection.
func (p *program) fillRanks(ranks []uint8, row []float64) bool {
	levels := p.levels
	size := uintptr(1) << levels
	tb := unsafe.Pointer(unsafe.SliceData(p.table))
	anyNaN := false
	j := 0
	for ; j+4 <= len(ranks); j += 4 {
		v0, v1, v2, v3 := row[j], row[j+1], row[j+2], row[j+3]
		if v0 != v0 || v1 != v1 || v2 != v2 || v3 != v3 {
			anyNaN = true
		}
		k0, k1, k2, k3 := rawKey(v0), rawKey(v1), rawKey(v2), rawKey(v3)
		b0 := uintptr(j) << levels
		b1 := uintptr(j+1) << levels
		b2 := uintptr(j+2) << levels
		b3 := uintptr(j+3) << levels
		i0, i1, i2, i3 := uintptr(1), uintptr(1), uintptr(1), uintptr(1)
		for s := uint(0); s < levels; s++ {
			i0 = rankStep(tb, b0, i0, k0)
			i1 = rankStep(tb, b1, i1, k1)
			i2 = rankStep(tb, b2, i2, k2)
			i3 = rankStep(tb, b3, i3, k3)
		}
		ranks[j] = uint8(i0 - size)
		ranks[j+1] = uint8(i1 - size)
		ranks[j+2] = uint8(i2 - size)
		ranks[j+3] = uint8(i3 - size)
	}
	for ; j < len(ranks); j++ {
		v := row[j]
		if v != v {
			anyNaN = true
		}
		k := rawKey(v)
		bias := uintptr(j) << levels
		i := uintptr(1)
		for s := uint(0); s < levels; s++ {
			i = rankStep(tb, bias, i, k)
		}
		ranks[j] = uint8(i - size)
	}
	return anyNaN
}

// step advances one chain a level without a data-dependent branch: the
// sign of (splitRank − rank) — one subtract and an arithmetic shift on
// values already in registers — selects the right-child offset or the
// adjacent left child. The left/right decision is the one genuinely
// unpredictable branch in tree inference — every row flips it
// near-randomly per node — so computing it arithmetically trades a
// ~15-cycle misprediction for a few single-cycle ops and, crucially,
// stops mispredictions from flushing the other interleaved chains'
// in-flight loads. At a self-absorbing leaf (splitRank -1, below every
// rank) it returns off unchanged.
func step(n flatNode, off uintptr, ranks *[maxFlatCols]uint8) uintptr {
	b := int64(ranks[(n>>32)&(maxFlatCols-1)]) // masked index: provably in bounds
	sr := int64(n) >> 48
	mask := uintptr((sr - b) >> 63) // all ones iff rank > splitRank → go right
	left := off + flatStride
	right := uintptr(uint32(n))
	return left ^ ((left ^ right) & mask)
}

// allLeaves tests whether every chain is parked: leaf words carry bit 63
// (splitRank -1), so the AND of the words keeps it only when all do.
// (Walking a fixed max-depth iteration count instead — dropping the test
// — measured ~25% slower: typical max path depth across the chains is
// well below the global max, and the early exit reclaims those levels.)
func allLeaves(and uint64) bool { return int64(and) < 0 }

// walkOne routes one row (as ranks) down one tree; the odd-tree tail of
// the pairwise walks.
func (p *program) walkOne(off uintptr, ranks *[maxFlatCols]uint8) float64 {
	base := p.arena()
	for {
		n := nodeAt(base, off)
		if allLeaves(n) {
			return p.leafVal[off/flatStride]
		}
		off = step(n, off, ranks)
	}
}

// walkPair routes one row down two trees in lockstep; the odd-row tail
// of the 4×2 batch walk.
func (p *program) walkPair(o0, o1 uintptr, ranks *[maxFlatCols]uint8) (float64, float64) {
	base := p.arena()
	for {
		n0 := nodeAt(base, o0)
		n1 := nodeAt(base, o1)
		if allLeaves(n0 & n1) {
			break
		}
		o0 = step(n0, o0, ranks)
		o1 = step(n1, o1, ranks)
	}
	return p.leafVal[o0/flatStride], p.leafVal[o1/flatStride]
}

// walk2x2 routes two rows down the same two trees in lockstep: the
// even-pair tail of the 4×2 batch walk.
func (p *program) walk2x2(o0, o1 uintptr, ra, rb *[maxFlatCols]uint8) (a0, a1, b0, b1 float64) {
	base := p.arena()
	xa0, xa1, xb0, xb1 := o0, o1, o0, o1
	for {
		na0 := nodeAt(base, xa0)
		na1 := nodeAt(base, xa1)
		nb0 := nodeAt(base, xb0)
		nb1 := nodeAt(base, xb1)
		if allLeaves(na0 & na1 & nb0 & nb1) {
			break // all four chains parked on leaves
		}
		xa0 = step(na0, xa0, ra)
		xa1 = step(na1, xa1, ra)
		xb0 = step(nb0, xb0, rb)
		xb1 = step(nb1, xb1, rb)
	}
	return p.leafVal[xa0/flatStride], p.leafVal[xa1/flatStride],
		p.leafVal[xb0/flatStride], p.leafVal[xb1/flatStride]
}

// walk4x2 routes four rows down the same two trees in lockstep: eight
// independent chains of one 8-byte load plus a handful of single-cycle
// ops each. A chain's next load depends on its own previous step —
// latency that cannot be shortened — so throughput comes from
// overlapping many such chains per iteration; eight named chains are
// the most that fit x86-64's register file before spill traffic eats
// the win (wider array-based lockstep blocks measured ~2× slower).
// Chains that reach their leaf park there (self-absorbing step) while
// the others finish, so the only branch in the loop is the all-done
// test, on words the steps need anyway. Routing per tree is exactly the
// single-chain walk's, so results are bit-identical.
func (p *program) walk4x2(o0, o1 uintptr, ra, rb, rc, rd *[maxFlatCols]uint8) (a0, a1, b0, b1, c0, c1, d0, d1 float64) {
	base := p.arena()
	xa0, xa1 := o0, o1
	xb0, xb1 := o0, o1
	xc0, xc1 := o0, o1
	xd0, xd1 := o0, o1
	for {
		na0 := nodeAt(base, xa0)
		na1 := nodeAt(base, xa1)
		nb0 := nodeAt(base, xb0)
		nb1 := nodeAt(base, xb1)
		nc0 := nodeAt(base, xc0)
		nc1 := nodeAt(base, xc1)
		nd0 := nodeAt(base, xd0)
		nd1 := nodeAt(base, xd1)
		if allLeaves(na0 & na1 & nb0 & nb1 & nc0 & nc1 & nd0 & nd1) {
			break // all eight chains parked on leaves
		}
		xa0 = step(na0, xa0, ra)
		xa1 = step(na1, xa1, ra)
		xb0 = step(nb0, xb0, rb)
		xb1 = step(nb1, xb1, rb)
		xc0 = step(nc0, xc0, rc)
		xc1 = step(nc1, xc1, rc)
		xd0 = step(nd0, xd0, rd)
		xd1 = step(nd1, xd1, rd)
	}
	return p.leafVal[xa0/flatStride], p.leafVal[xa1/flatStride],
		p.leafVal[xb0/flatStride], p.leafVal[xb1/flatStride],
		p.leafVal[xc0/flatStride], p.leafVal[xc1/flatStride],
		p.leafVal[xd0/flatStride], p.leafVal[xd1/flatStride]
}

// rootOff converts a tree's root index to its arena byte offset.
func (p *program) rootOff(t int) uintptr { return uintptr(p.roots[t]) * flatStride }

// refMarginRow is the reference inference sum for one row — used for
// rows with missing values, where default-direction routing lives in
// the reference trees.
func (p *program) refMarginRow(row []float64) float64 {
	z := p.base
	for t := range p.trees {
		z += p.trees[t].predict(row)
	}
	return z
}

// marginRow returns the raw margin (log-odds) of one row: base plus
// every tree's leaf in tree order — the reference summation order.
func (p *program) marginRow(row []float64) float64 {
	var ranks [maxFlatCols]uint8
	if p.fillRanks(ranks[:p.cols], row[:p.cols]) {
		return p.refMarginRow(row)
	}
	z := p.base
	t := 0
	for ; t+2 <= len(p.roots); t += 2 {
		v0, v1 := p.walkPair(p.rootOff(t), p.rootOff(t+1), &ranks)
		z += v0
		z += v1
	}
	if t < len(p.roots) {
		z += p.walkOne(p.rootOff(t), &ranks)
	}
	return z
}

// tileRows is the batch blocking factor: this many rows' rank vectors
// (2 KB total) are transformed at once, then the tree loop runs OUTER
// in pairs with row quads INNER, so each two-tree slab of the arena
// (~8 KB at depth 8) is walked by the whole tile while L1-hot instead
// of the full arena streaming through cache per row.
const tileRows = 64

// marginInto writes each row's raw margin into out (len(out) == len(x)),
// allocating nothing: all tile state lives on the stack.
//
// Each row still accumulates base + tree0 + tree1 + … in exactly the
// reference order — tree pairs ascend, the two adds within a pair
// ascend, a trailing odd tree comes last — so margins are bit-identical
// to the per-row walk at any batch size.
func (p *program) marginInto(x [][]float64, out []float64) {
	var ranks [tileRows][maxFlatCols]uint8
	var clean [tileRows]int32
	nTrees := len(p.roots)
	for lo := 0; lo < len(x); lo += tileRows {
		n := len(x) - lo
		if n > tileRows {
			n = tileRows
		}
		// Transform the tile's rows once; rows with missing values drop
		// out of the lockstep walks and take the reference path below.
		nc, nanRows := 0, 0
		for r := 0; r < n; r++ {
			if p.fillRanks(ranks[r][:p.cols], x[lo+r][:p.cols]) {
				nanRows++
			} else {
				clean[nc] = int32(r)
				nc++
			}
			out[lo+r] = p.base
		}
		t := 0
		for ; t+2 <= nTrees; t += 2 {
			r0, r1 := p.rootOff(t), p.rootOff(t+1)
			c := 0
			for ; c+4 <= nc; c += 4 {
				ra, rb := clean[c], clean[c+1]
				rc, rd := clean[c+2], clean[c+3]
				a0, a1, b0, b1, c0, c1, d0, d1 := p.walk4x2(r0, r1,
					&ranks[ra], &ranks[rb], &ranks[rc], &ranks[rd])
				za := out[lo+int(ra)]
				za += a0
				za += a1
				out[lo+int(ra)] = za
				zb := out[lo+int(rb)]
				zb += b0
				zb += b1
				out[lo+int(rb)] = zb
				zc := out[lo+int(rc)]
				zc += c0
				zc += c1
				out[lo+int(rc)] = zc
				zd := out[lo+int(rd)]
				zd += d0
				zd += d1
				out[lo+int(rd)] = zd
			}
			if c+2 <= nc {
				ra, rb := clean[c], clean[c+1]
				a0, a1, b0, b1 := p.walk2x2(r0, r1, &ranks[ra], &ranks[rb])
				za := out[lo+int(ra)]
				za += a0
				za += a1
				out[lo+int(ra)] = za
				zb := out[lo+int(rb)]
				zb += b0
				zb += b1
				out[lo+int(rb)] = zb
				c += 2
			}
			if c < nc {
				ra := clean[c]
				a0, a1 := p.walkPair(r0, r1, &ranks[ra])
				za := out[lo+int(ra)]
				za += a0
				za += a1
				out[lo+int(ra)] = za
			}
		}
		if t < nTrees {
			root := p.rootOff(t)
			for c := 0; c < nc; c++ {
				out[lo+int(clean[c])] += p.walkOne(root, &ranks[clean[c]])
			}
		}
		if nanRows > 0 {
			// Rare once the pipeline's imputer has run; clean rows already
			// hold their final margin.
			for r, c := 0, 0; r < n; r++ {
				if c < nc && int(clean[c]) == r {
					c++
					continue
				}
				out[lo+r] = p.refMarginRow(x[lo+r])
			}
		}
	}
}

// labelMargin converts a raw margin to the 0/1 label that
// sigmoid(z) >= 0.5 produces. Mathematically that's just z >= 0, and the
// sign decides directly outside a ±1e-9 band; inside it, math.Exp's
// rounding can legitimately land sigmoid exactly on 0.5 for slightly
// negative z (exp(tiny) rounds to 1.0), so the band — crossed almost
// never — recomputes the actual sigmoid to stay bit-compatible with the
// reference scoring path.
func labelMargin(z float64) int {
	if z > 1e-9 {
		return 1
	}
	if z < -1e-9 {
		return 0
	}
	if sigmoid(z) >= 0.5 {
		return 1
	}
	return 0
}

// predictInto writes 0/1 labels at the 0.5 probability threshold,
// allocating nothing, skipping the sigmoid on the label-only path.
func (p *program) predictInto(x [][]float64, out []int) {
	var margins [tileRows]float64
	for lo := 0; lo < len(x); lo += tileRows {
		n := len(x) - lo
		if n > tileRows {
			n = tileRows
		}
		p.marginInto(x[lo:lo+n], margins[:n])
		for r := 0; r < n; r++ {
			out[lo+r] = labelMargin(margins[r])
		}
	}
}
