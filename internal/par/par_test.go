package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-5); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-5) = %d", got)
	}
}

func TestForCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, 7, 100} {
			hits := make([]int32, n)
			For(workers, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestForChunksPartition(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 5, 64} {
			hits := make([]int32, n)
			ForChunks(workers, n, func(w, lo, hi int) {
				if lo > hi || lo < 0 || hi > n {
					t.Errorf("bad chunk [%d, %d) for n=%d", lo, hi, n)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", workers, n, i, h)
				}
			}
		}
	}
}

// TestForChunksStablePartition asserts the chunk boundaries are a pure
// function of (workers, n) — the property per-worker buffers rely on.
func TestForChunksStablePartition(t *testing.T) {
	type chunk struct{ w, lo, hi int }
	grab := func() []chunk {
		out := make([]chunk, 4)
		ForChunks(4, 100, func(w, lo, hi int) { out[w] = chunk{w, lo, hi} })
		return out
	}
	a, b := grab(), grab()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("partition not stable: %v vs %v", a[i], b[i])
		}
	}
}

// TestForDeterministicReduction demonstrates the package's determinism
// contract: index-addressed writes plus an ordered reduction give the same
// result at every worker count.
func TestForDeterministicReduction(t *testing.T) {
	n := 1000
	ref := ""
	for _, workers := range []int{1, 2, 8} {
		out := make([]byte, n)
		For(workers, n, func(i int) { out[i] = byte('a' + i%26) })
		if s := string(out); ref == "" {
			ref = s
		} else if s != ref {
			t.Fatalf("workers=%d produced different reduction", workers)
		}
	}
}

func TestForPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic did not propagate")
		}
	}()
	For(4, 100, func(i int) {
		if i == 17 {
			panic("boom")
		}
	})
}
