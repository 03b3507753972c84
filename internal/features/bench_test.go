package features

import (
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"testing"

	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
)

// benchCardinalityFlows builds `minutes` minutes of traffic at `targets`
// distinct targets per minute with a handful of flows and source values per
// target — the cardinality axis of the BENCH_PR6 matrix.
func benchCardinalityFlows(targets, minutes int) []netflow.Record {
	rng := rand.New(rand.NewSource(11))
	recs := make([]netflow.Record, 0, targets*minutes*3)
	for m := 1; m <= minutes; m++ {
		for tg := 0; tg < targets; tg++ {
			dst := netip.AddrFrom4([4]byte{10, byte(tg >> 16), byte(tg >> 8), byte(tg)})
			for f := 0; f < 3; f++ {
				recs = append(recs, netflow.Record{
					Timestamp: int64(m) * 60,
					SrcIP:     netip.AddrFrom4([4]byte{172, 16, byte(rng.Intn(256)), byte(rng.Intn(256))}),
					DstIP:     dst,
					SrcPort:   uint16(1024 + rng.Intn(60000)),
					DstPort:   uint16(53 + f),
					Protocol:  17,
					SrcMAC:    [6]byte{2, 0, 0, 0, byte(f), byte(tg)},
					Packets:   uint64(1 + rng.Intn(40)),
					Bytes:     uint64(100 + rng.Intn(59000)),
				})
			}
		}
	}
	return recs
}

// heapDelta measures the live-heap growth of running fn, in bytes.
func heapDelta(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return float64(after.HeapAlloc) - float64(before.HeapAlloc)
}

// BenchmarkAggCardinality is the BENCH_PR6 cardinality matrix: minute-flush
// throughput (ns/op over one minute of flows) and peak aggregation heap
// (live bytes while the minute's groups are resident) for the exact and
// sketch paths at 1×/10×/100×/1000× the 512-target baseline. The sketch
// configuration is identical at every cardinality, so its peak-heap column
// staying flat is the bounded-memory claim.
func BenchmarkAggCardinality(b *testing.B) {
	const baseline = 512
	sketchCfg := &SketchConfig{Budget: 0.05, MaxGroups: baseline}
	for _, mode := range []string{"exact", "sketch"} {
		for _, mult := range []int{1, 10, 100, 1000} {
			b.Run(fmt.Sprintf("%s/x%d", mode, mult), func(b *testing.B) {
				recs := benchCardinalityFlows(baseline*mult, 1)
				opt := Options{Workers: 1}
				if mode == "sketch" {
					opt.Sketch = sketchCfg
				}
				feed := func(s *stream) {
					for j := range recs {
						s.add(&recs[j], "")
					}
				}
				// Peak heap: all of the minute's groups resident, pre-flush.
				pinned := newStream(opt, 1)
				peak := heapDelta(func() { feed(pinned) })
				pinned.close()
				runtime.KeepAlive(pinned)

				// Throughput is steady-state: groups recycle minute over
				// minute, as they do across the minutes of one window. One
				// op = one minute ingested plus the previous minute's flush.
				s := newStream(opt, 1)
				feed(s) // warm pools and maps
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := range recs {
						recs[j].Timestamp += 60
					}
					feed(s)
				}
				b.StopTimer()
				s.close()
				// ResetTimer deletes user metrics, so report after the loop.
				b.ReportMetric(peak, "peak-heap-bytes")
				b.ReportMetric(float64(len(recs)), "flows/op")
			})
		}
	}
}

// BenchmarkParallelIngest is the BENCH_PR6 scaling matrix: AggregateRecords
// over four minutes of flows with GOMAXPROCS and Options.Workers both set to
// 1, 2, 4 and 8, so shards follow shardsFor(procs). On a 1-core box the >1
// rows measure oversubscription, which is exactly the regression BENCH_PR1
// exposed and this matrix exists to track.
func BenchmarkParallelIngest(b *testing.B) {
	recs := benchCardinalityFlows(512, 4)
	for _, procs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				AggregateRecords(recs, nil, Options{Workers: procs})
			}
			b.ReportMetric(float64(len(recs)), "flows/op")
		})
	}
}
