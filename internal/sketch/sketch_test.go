package sketch

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// zipfStream builds a deterministic skewed stream: key i appears with
// geometric-ish frequency, so a few keys dominate — the traffic shape the
// aggregator's sketch mode is built for.
func zipfStream(seed int64, keys, updates int) map[uint64][2]uint64 {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.3, 4, uint64(keys-1))
	truth := make(map[uint64][2]uint64)
	for i := 0; i < updates; i++ {
		k := z.Uint64() + 1
		b := uint64(rng.Intn(1400) + 64)
		p := b/512 + 1
		t := truth[k]
		t[0] += b
		t[1] += p
		truth[k] = t
	}
	return truth
}

func replay(truth map[uint64][2]uint64, f func(k, b, p uint64)) {
	// Deterministic order: ascending key. The structures are order-sensitive
	// (eviction), so tests that compare two replays use the same order.
	keys := make([]uint64, 0, len(truth))
	for k := range truth {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	for _, k := range keys {
		f(k, truth[k][0], truth[k][1])
	}
}

func TestCountMinNeverUnderCounts(t *testing.T) {
	truth := zipfStream(1, 4096, 20000)
	cm := NewCountMin(1024, 3)
	replay(truth, func(k, b, p uint64) { cm.Update(k, b, p) })
	for k, want := range truth {
		gotB, gotP := cm.Estimate(k)
		if gotB < want[0] || gotP < want[1] {
			t.Fatalf("key %d under-counted: got (%d,%d) want >= (%d,%d)", k, gotB, gotP, want[0], want[1])
		}
	}
}

func TestCountMinConservativeTighterThanBound(t *testing.T) {
	truth := zipfStream(2, 4096, 20000)
	cm := NewCountMin(2048, 3)
	var totalB uint64
	replay(truth, func(k, b, p uint64) {
		cm.Update(k, b, p)
		totalB += b
	})
	// The classic bound is total/width per row; conservative update should
	// stay well inside it on a skewed stream. Assert the mean absolute
	// over-count is below the classic bound.
	var overSum, n float64
	for k, want := range truth {
		gotB, _ := cm.Estimate(k)
		overSum += float64(gotB - want[0])
		n++
	}
	bound := float64(totalB) / 2048
	if overSum/n > bound {
		t.Fatalf("mean over-count %.1f exceeds classic bound %.1f", overSum/n, bound)
	}
}

func TestCountMinDeterministic(t *testing.T) {
	truth := zipfStream(3, 512, 5000)
	a, b := NewCountMin(256, 2), NewCountMin(256, 2)
	replay(truth, func(k, by, p uint64) { a.Update(k, by, p); b.Update(k, by, p) })
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical streams produced different count-min state")
	}
	a.Reset()
	if gb, gp := a.Estimate(1); gb != 0 || gp != 0 {
		t.Fatal("reset did not clear cells")
	}
}

func TestCountMinUpdateAllocs(t *testing.T) {
	cm := NewCountMin(1024, 3)
	if avg := testing.AllocsPerRun(500, func() { cm.Update(12345, 100, 1) }); avg != 0 {
		t.Errorf("CountMin.Update allocates %.1f objects/op, want 0", avg)
	}
}

func TestSpaceSavingHeavyHitterGuarantee(t *testing.T) {
	truth := zipfStream(4, 2048, 30000)
	const k = 64
	ss := NewSpaceSaving(k, 0)
	var total uint64
	replay(truth, func(key, b, p uint64) {
		ss.Add(key, b, p)
		total += b
	})
	bar := total / k
	for key, want := range truth {
		if want[0] <= bar {
			continue
		}
		if !ss.Has(key) {
			t.Fatalf("heavy hitter %d (bytes %d > total/k %d) not monitored", key, want[0], bar)
		}
	}
	// Estimates over-count by at most the recorded error; W-E is a lower bound.
	for _, e := range ss.Entries() {
		want, ok := truth[e.Key]
		if !ok {
			continue
		}
		if e.W[0] < want[0] || e.W[0]-e.E[0] > want[0] {
			t.Fatalf("key %d: estimate %d err %d outside [true, true+err] for true %d",
				e.Key, e.W[0], e.E[0], want[0])
		}
		if e.W[1] < want[1] || e.W[1]-e.E[1] > want[1] {
			t.Fatalf("key %d: packet estimate %d err %d outside bounds for true %d",
				e.Key, e.W[1], e.E[1], want[1])
		}
	}
}

func TestSpaceSavingDeterministic(t *testing.T) {
	truth := zipfStream(5, 512, 8000)
	a, b := NewSpaceSaving(32, 1), NewSpaceSaving(32, 1)
	replay(truth, func(k, by, p uint64) { a.Add(k, by, p); b.Add(k, by, p) })
	if !reflect.DeepEqual(a.entries, b.entries) {
		t.Fatal("identical streams produced different space-saving state")
	}
}

func TestSpaceSavingMinAndReset(t *testing.T) {
	ss := NewSpaceSaving(2, 0)
	if ss.Min() != 0 {
		t.Fatal("empty summary must have zero admission bar")
	}
	ss.Add(1, 10, 1)
	ss.Add(2, 20, 1)
	if got := ss.Min(); got != 10 {
		t.Fatalf("min = %d, want 10", got)
	}
	// Evicting key 1 (min) must carry its counters as error.
	ss.Add(3, 5, 1)
	if ss.Has(1) || !ss.Has(3) {
		t.Fatal("eviction picked the wrong victim")
	}
	for _, e := range ss.Entries() {
		if e.Key == 3 && (e.W[0] != 15 || e.E[0] != 10) {
			t.Fatalf("admitted entry = %+v, want W0=15 E0=10", e)
		}
	}
	ss.Reset()
	if ss.Len() != 0 || ss.Has(3) || ss.Min() != 0 {
		t.Fatal("reset did not clear the summary")
	}
}

func TestSpaceSavingSteadyStateAllocs(t *testing.T) {
	ss := NewSpaceSaving(32, 0)
	for k := uint64(0); k < 64; k++ {
		ss.Add(k, k+1, 1)
	}
	k := uint64(0)
	if avg := testing.AllocsPerRun(500, func() {
		ss.Add(k%64, 10, 1) // mix of monitored touches and evictions
		k++
	}); avg != 0 {
		t.Errorf("SpaceSaving.Add allocates %.2f objects/op steady-state, want 0", avg)
	}
}

func TestHLLEstimateWithinTolerance(t *testing.T) {
	for _, n := range []int{10, 100, 1000, 50000} {
		h := NewHLL(12) // ~1.6% standard error
		for i := 0; i < n; i++ {
			h.AddKey(uint64(i) * 2654435761)
		}
		got := h.Estimate()
		relErr := math.Abs(got-float64(n)) / float64(n)
		if relErr > 0.1 {
			t.Errorf("n=%d: estimate %.0f off by %.1f%%", n, got, relErr*100)
		}
	}
}

// TestHLLOrderIndependent: the estimate is a pure function of the register
// multiset, so overlapping key sets fed in opposite orders converge to the
// same bit-identical estimate, within tolerance of the true union.
func TestHLLOrderIndependent(t *testing.T) {
	a, b := NewHLL(10), NewHLL(10)
	for i := 0; i < 750; i++ {
		a.AddKey(uint64(i))
		b.AddKey(uint64(749 - i))
	}
	if a.Estimate() != b.Estimate() {
		t.Fatalf("update order changed the estimate: %v vs %v", a.Estimate(), b.Estimate())
	}
	if got := a.Estimate(); math.Abs(got-750)/750 > 0.15 {
		t.Errorf("estimate %.0f, want ~750", got)
	}
	if got := HLLPrecisionFor(0.05); got < 8 || got > 12 {
		t.Errorf("HLLPrecisionFor(0.05) = %d", got)
	}
}

func TestHLLAddAllocs(t *testing.T) {
	h := NewHLL(10)
	if avg := testing.AllocsPerRun(500, func() { h.AddKey(42) }); avg != 0 {
		t.Errorf("HLL.AddKey allocates %.1f objects/op, want 0", avg)
	}
}
