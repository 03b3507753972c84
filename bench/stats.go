package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

var processStart = time.Now()

// nowSec is a monotonic clock in seconds since process start.
func nowSec() float64 { return time.Since(processStart).Seconds() }

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// allocCounters are the cumulative heap allocation counters. They are read
// with runtime.ReadMemStats, which stops the world and flushes every P's
// allocation cache: the cheaper runtime/metrics counters lag by up to a
// cache refill, which moves a training round's allocations into the next
// (short) ingest window. Every read sits outside the timed windows.
type allocCounters struct{ objects, bytes uint64 }

func readAllocs() allocCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocCounters{objects: ms.Mallocs, bytes: ms.TotalAlloc}
}

// liveHeapMB forces two collections — the second empties the sync.Pool
// victim caches the first one filled — and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// atOneProc runs fn at GOMAXPROCS=1 and restores GOMAXPROCS=nproc.
func atOneProc(fn func() error) error {
	runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(nproc)
	return fn()
}

// gcWatch brackets a run's timed region for the runtime.* counters.
type gcWatch struct{ start runtime.MemStats }

func startGCWatch() *gcWatch {
	w := &gcWatch{}
	runtime.ReadMemStats(&w.start)
	return w
}

// finish fills the runtime.* counters and returns the live heap in MB.
func (w *gcWatch) finish(c map[string]float64) float64 {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	c["runtime.gc_cycles"] = float64(end.NumGC - w.start.NumGC)
	c["runtime.gc_pause_ms"] = float64(end.PauseTotalNs-w.start.PauseTotalNs) / 1e6
	c["runtime.goroutines"] = float64(runtime.NumGoroutine())
	return liveHeapMB()
}
