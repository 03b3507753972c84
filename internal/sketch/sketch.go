// Package sketch implements the bounded-memory streaming summaries behind
// the feature aggregator's sketch mode: a count-min sketch with conservative
// update (per-value byte/packet estimation and heavy-hitter admission
// filtering), a space-saving stream summary (top-K categorical rankings with
// per-entry error bounds), and a dense HyperLogLog (distinct counts).
//
// All three structures share the properties the aggregation pipeline needs:
//
//   - fixed footprint chosen at construction time, independent of stream
//     cardinality;
//   - deterministic state — no seeded process-local hashing, so two runs over
//     the same stream produce bit-identical summaries;
//   - allocation-free updates once constructed (Add never allocates);
//   - estimates that only ever over-count, so heavy hitters are never missed,
//     only over-reported within a quantified error bound.
package sketch

import "math"

// mix64 is the splitmix64 finalizer: a cheap, statistically strong bijection
// used to derive row hashes from one 64-bit key. Being a fixed function (no
// per-process seed) keeps every sketch deterministic across runs and hosts.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// rowSeeds separate the count-min rows into independent hash functions.
var rowSeeds = [8]uint64{
	0x9e3779b97f4a7c15, 0xc2b2ae3d27d4eb4f, 0x165667b19e3779f9, 0x27d4eb2f165667c5,
	0x85ebca6b27d4eb4f, 0xff51afd7ed558ccd, 0xc4ceb9fe1a85ec53, 0x2545f4914f6cdd1d,
}

// CountMin is a count-min sketch whose cells carry two parallel uint64
// counters (bytes and packets), updated conservatively: a cell only grows to
// the new minimum estimate, which tightens over-counting on skewed streams.
type CountMin struct {
	width uint64 // cells per row, power of two
	depth int
	cells [][2]uint64 // depth rows of width cells, flattened
}

// NewCountMin returns a sketch with the given geometry. Width is rounded up
// to a power of two; depth is clamped to [1, 8]. The estimation error is
// bounded by total-weight/width per counter with high probability in depth.
func NewCountMin(width, depth int) *CountMin {
	if width < 2 {
		width = 2
	}
	w := uint64(1)
	for w < uint64(width) {
		w <<= 1
	}
	if depth < 1 {
		depth = 1
	}
	if depth > len(rowSeeds) {
		depth = len(rowSeeds)
	}
	return &CountMin{width: w, depth: depth, cells: make([][2]uint64, w*uint64(depth))}
}

// Update adds (bytes, pkts) to key and returns the post-update conservative
// estimate of the key's totals. The conservative rule raises each row cell
// only as far as the smallest estimate requires, so cells shared by colliding
// keys inflate as little as possible.
func (c *CountMin) Update(key uint64, bytes, pkts uint64) (estB, estP uint64) {
	estB, estP = math.MaxUint64, math.MaxUint64
	base := uint64(0)
	for d := 0; d < c.depth; d++ {
		i := base + (mix64(key^rowSeeds[d]) & (c.width - 1))
		cell := &c.cells[i]
		if cell[0] < estB {
			estB = cell[0]
		}
		if cell[1] < estP {
			estP = cell[1]
		}
		base += c.width
	}
	estB += bytes
	estP += pkts
	base = 0
	for d := 0; d < c.depth; d++ {
		i := base + (mix64(key^rowSeeds[d]) & (c.width - 1))
		cell := &c.cells[i]
		if cell[0] < estB {
			cell[0] = estB
		}
		if cell[1] < estP {
			cell[1] = estP
		}
		base += c.width
	}
	return estB, estP
}

// Reset zeroes every cell, keeping the allocation.
func (c *CountMin) Reset() {
	clear(c.cells)
}

// Footprint returns the heap bytes held by the cell array.
func (c *CountMin) Footprint() int { return len(c.cells) * 16 }
