package woe

import (
	"sync"
	"testing"
)

// refEncoder is the pre-snapshot locked read path (RWMutex around the
// fitted tables), kept as the reference both for semantic equivalence and
// for the old-vs-new lookup benchmark in scripts/bench.sh.
type refEncoder struct {
	mu  sync.RWMutex
	enc *Encoder
}

func (r *refEncoder) WoE(domain string, key uint64) float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if ov, ok := r.enc.overrides[domain]; ok {
		if w, ok := ov[key]; ok {
			return w
		}
	}
	d, ok := r.enc.domains[domain]
	if !ok {
		return 0
	}
	return d.woe[key]
}

func fittedEncoder(values int) *Encoder {
	e := NewEncoder()
	for i := 0; i < values; i++ {
		k := uint64(i)
		for j := 0; j < 1+i%7; j++ {
			e.Observe("src_port", k, i%3 == 0)
		}
		e.Observe("src_ip", k*7919, i%2 == 0)
	}
	e.Fit()
	return e
}

// TestSnapshotMatchesLockedPath locks the snapshot read path to the
// reference locked implementation over every observed key, including
// overrides and unknowns.
func TestSnapshotMatchesLockedPath(t *testing.T) {
	e := fittedEncoder(500)
	e.Override("src_port", 123, 4.5)
	e.Override("pinned_only", 7, -2.0) // domain that exists only as override
	ref := &refEncoder{enc: e}
	for i := 0; i < 600; i++ {
		for _, dom := range []string{"src_port", "src_ip", "pinned_only", "missing"} {
			k := uint64(i)
			if dom == "src_ip" {
				k *= 7919
			}
			if got, want := e.WoE(dom, k), ref.WoE(dom, k); got != want {
				t.Fatalf("WoE(%s, %d) = %v, reference = %v", dom, k, got, want)
			}
		}
	}
	if got := e.WoE("src_port", 123); got != 4.5 {
		t.Errorf("override not visible through snapshot: %v", got)
	}
	if got := e.WoE("pinned_only", 7); got != -2.0 {
		t.Errorf("override-only domain: %v", got)
	}
}

// TestSnapshotInvalidation: observations and override changes must
// be visible through the lock-free path without an explicit Fit call.
func TestSnapshotInvalidation(t *testing.T) {
	e := NewEncoder()
	for i := 0; i < 50; i++ {
		e.Observe("d", 1, true)
		e.Observe("d", 2, false)
	}
	w1 := e.WoE("d", 1) // lazy fit + publish
	if w1 <= 0 {
		t.Fatalf("WoE(1) = %v, want positive", w1)
	}
	// New observations flip key 3 positive; the stale snapshot must not
	// serve the old view after the implicit refit.
	for i := 0; i < 80; i++ {
		e.Observe("d", 3, true)
	}
	if w3 := e.WoE("d", 3); w3 <= 0 {
		t.Errorf("WoE(3) after invalidation = %v, want positive", w3)
	}
	e.Override("d", 2, 9.9)
	if got := e.WoE("d", 2); got != 9.9 {
		t.Errorf("override after fit = %v, want 9.9", got)
	}
}

// TestSnapshotConcurrentReadsDuringObserve hammers the lock-free read path
// while a writer keeps observing and refitting. Run under -race in CI: the
// snapshot pointer is the only shared read state, so this must be
// race-clean.
func TestSnapshotConcurrentReadsDuringObserve(t *testing.T) {
	e := fittedEncoder(100)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				_ = e.WoE("src_port", uint64(i%200))
				_ = e.WoE("src_ip", uint64(i%200)*7919)
			}
		}(g)
	}
	for i := 0; i < 2000; i++ {
		e.Observe("src_port", uint64(i%100), i%2 == 0)
		if i%100 == 0 {
			e.Fit()
		}
		if i%300 == 0 {
			e.Override("src_port", 9999, float64(i))
		}
	}
	close(done)
	wg.Wait()
	e.Fit()
	if got := e.WoE("src_port", 9999); got != 1800 {
		t.Errorf("final override = %v, want 1800", got)
	}
}

// BenchmarkWoELookupSnapshot measures the lock-free read path and
// BenchmarkWoELookupLocked the pre-PR RWMutex path on the same fitted
// encoder; scripts/bench.sh records the pair into BENCH_PR3.json.
func BenchmarkWoELookupSnapshot(b *testing.B) {
	e := fittedEncoder(2000)
	e.WoE("src_port", 0) // publish
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.WoE("src_port", uint64(i%2000))
	}
}

func BenchmarkWoELookupLocked(b *testing.B) {
	e := fittedEncoder(2000)
	ref := &refEncoder{enc: e}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ref.WoE("src_port", uint64(i%2000))
	}
}
