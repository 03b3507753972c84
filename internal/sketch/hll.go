package sketch

import (
	"math"
	"math/bits"
	"sync"
)

// HLL is a dense HyperLogLog distinct counter with 2^p single-byte
// registers. Keys must already be well-mixed 64-bit hashes (callers feed
// mix64 output); the top p bits select a register and the remainder's
// leading-zero run updates it.
//
// The harmonic sum Σ 2^-r over the registers is maintained incrementally as
// an exact 128-bit fixed-point integer (sumHi·2^64 + sumLo, in units of
// 2^-64), so Estimate is O(1) instead of a register scan, and — being an
// integer — is a pure function of the register multiset: any update order
// converges to a bit-identical estimate.
type HLL struct {
	p     uint8
	dense bool // true once touched overflowed; Reset must clear all registers
	zeros int
	sumHi uint64
	sumLo uint64
	reg   []uint8
	// touched lists the indices of set registers while the counter is
	// sparse, so Reset writes a handful of bytes instead of clearing the
	// whole register array — the common case for per-minute counters that
	// see few distinct values.
	touched []uint32
}

// NewHLL returns a counter with precision p (clamped to [4, 16]): 2^p
// registers, relative error ≈ 1.04/sqrt(2^p).
func NewHLL(p int) *HLL {
	if p < 4 {
		p = 4
	}
	if p > 16 {
		p = 16
	}
	h := &HLL{p: uint8(p), reg: make([]uint8, 1<<p)}
	h.zeros = len(h.reg)
	h.sumHi = uint64(len(h.reg)) // every register contributes 2^-0 = 1
	tc := len(h.reg) / 8
	if tc < 8 {
		tc = 8
	}
	h.touched = make([]uint32, 0, tc)
	return h
}

// contrib is register rank r's term of the harmonic sum, in 2^-64 units
// split into (hi, lo) 64-bit words: 2^(64-r) for r in [0, 64].
func contrib(r uint8) (hi, lo uint64) {
	if r == 0 {
		return 1, 0
	}
	return 0, 1 << (64 - r)
}

// HLLPrecisionFor returns the precision whose standard error is at most eps,
// clamped to [4, 12] so a per-group counter stays at most 4 KiB.
func HLLPrecisionFor(eps float64) int {
	if eps <= 0 {
		return 12
	}
	m := (1.04 / eps) * (1.04 / eps)
	p := int(math.Ceil(math.Log2(m)))
	if p < 4 {
		p = 4
	}
	if p > 12 {
		p = 12
	}
	return p
}

// Add observes one hashed value.
func (h *HLL) Add(hash uint64) {
	idx := hash >> (64 - h.p)
	rank := uint8(bits.LeadingZeros64(hash<<h.p|1)) + 1
	old := h.reg[idx]
	if rank <= old {
		return
	}
	h.reg[idx] = rank
	if old == 0 {
		h.zeros--
		if !h.dense {
			if len(h.touched) < cap(h.touched) {
				h.touched = append(h.touched, uint32(idx))
			} else {
				h.dense = true
			}
		}
	}
	oh, ol := contrib(old)
	var borrow uint64
	h.sumLo, borrow = bits.Sub64(h.sumLo, ol, 0)
	h.sumHi -= oh + borrow
	nh, nl := contrib(rank)
	var carry uint64
	h.sumLo, carry = bits.Add64(h.sumLo, nl, 0)
	h.sumHi += nh + carry
}

// AddKey hashes an arbitrary key through mix64 and observes it.
func (h *HLL) AddKey(key uint64) { h.Add(mix64(key)) }

// lcTab caches the linear-counting correction m·ln(m/z) per precision, so
// the small-range branch of Estimate is a table lookup instead of a log call.
// Tables are built lazily; values are identical to computing the log inline.
var (
	lcOnce [17]sync.Once
	lcTab  [17][]float64
)

func lcTable(p uint8) []float64 {
	lcOnce[p].Do(func() {
		m := 1 << p
		t := make([]float64, m+1)
		fm := float64(m)
		for z := 1; z <= m; z++ {
			t[z] = fm * math.Log(fm/float64(z))
		}
		lcTab[p] = t
	})
	return lcTab[p]
}

// Estimate returns the cardinality estimate with the standard small-range
// (linear counting) correction. O(1): the harmonic sum is maintained by Add.
func (h *HLL) Estimate() float64 {
	m := float64(len(h.reg))
	sum := float64(h.sumHi) + float64(h.sumLo)/18446744073709551616.0
	alpha := 0.7213 / (1 + 1.079/m)
	switch len(h.reg) {
	case 16:
		alpha = 0.673
	case 32:
		alpha = 0.697
	case 64:
		alpha = 0.709
	}
	est := alpha * m * m / sum
	if est <= 2.5*m && h.zeros > 0 {
		est = lcTable(h.p)[h.zeros]
	}
	return est
}

// Reset zeroes the registers, keeping the allocation. While the counter is
// sparse only the touched registers are written.
func (h *HLL) Reset() {
	if h.dense {
		clear(h.reg)
		h.dense = false
	} else {
		for _, i := range h.touched {
			h.reg[i] = 0
		}
	}
	h.touched = h.touched[:0]
	h.zeros = len(h.reg)
	h.sumHi = uint64(len(h.reg))
	h.sumLo = 0
}

// Footprint returns the register heap bytes.
func (h *HLL) Footprint() int { return len(h.reg) }
