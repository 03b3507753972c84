// Package par provides the bounded worker-pool primitives behind every
// parallel hot path of the scrubber: XGB histogram building and scoring,
// feature encoding, FP-Growth mining, and the experiments harness.
//
// Determinism contract: the primitives distribute *indices*, never results.
// Callers write into index-addressed output slots and perform any reduction
// themselves, in index order, after the pool drains. As long as fn(i) is a
// pure function of i and read-only shared state, the combined output is
// bit-for-bit identical for every worker count — including the serial
// fallback (workers == 1), which runs entirely on the calling goroutine.
//
// A worker count <= 0 means "size from GOMAXPROCS"; every exported knob in
// the repo (core.Config.Workers, experiments.Config.Workers, xgb's and
// tagging's options) funnels through Workers and shares that convention.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob: n > 0 is used as given, anything
// else selects runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// For executes fn(i) for every i in [0, n) on at most `workers` goroutines.
// Indices are handed out dynamically (an atomic cursor), so uneven tasks
// load-balance; determinism must come from fn writing only to slot i of its
// outputs. workers <= 0 sizes from GOMAXPROCS; workers == 1 (or n <= 1)
// degrades to a serial loop on the calling goroutine.
//
// A panic in any fn is re-raised on the calling goroutine after all workers
// stop, matching the serial path's failure mode.
func For(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		ponc sync.Once
		pval any
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					ponc.Do(func() { pval = r })
					// Drain remaining indices so sibling workers exit fast.
					next.Store(int64(n))
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if pval != nil {
		panic(pval)
	}
}

// ForChunks splits [0, n) into at most `workers` contiguous chunks and
// executes fn(worker, lo, hi) for each. The worker id is a stable chunk
// index in [0, workers'), letting callers keep per-worker reusable buffers;
// chunk w always covers [w*n/workers', (w+1)*n/workers'), so the work
// partition itself is deterministic. workers <= 0 sizes from GOMAXPROCS;
// the serial fallback is a single fn(0, 0, n) call on the calling
// goroutine.
func ForChunks(workers, n int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	var (
		wg   sync.WaitGroup
		ponc sync.Once
		pval any
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					ponc.Do(func() { pval = r })
				}
			}()
			fn(w, w*n/workers, (w+1)*n/workers)
		}(w)
	}
	wg.Wait()
	if pval != nil {
		panic(pval)
	}
}
