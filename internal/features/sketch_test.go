package features

import (
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"testing"

	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/tagging"
)

// TestShardsFor locks defaultShards to the available parallelism: the shard
// count must never exceed GOMAXPROCS (a 1-core box gets exactly 1 shard).
func TestShardsFor(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 2, 4: 4, 5: 4, 7: 4, 8: 8, 9: 8, 16: 16, 17: 16, 64: 16}
	for procs, want := range cases {
		if got := shardsFor(procs); got != want {
			t.Errorf("shardsFor(%d) = %d, want %d", procs, got, want)
		}
		if got := shardsFor(procs); got > procs {
			t.Errorf("shardsFor(%d) = %d exceeds worker parallelism", procs, got)
		}
	}
	if got, procs := defaultShards(), runtime.GOMAXPROCS(0); got > procs || got < 1 {
		t.Errorf("defaultShards() = %d with GOMAXPROCS %d", got, procs)
	}
}

// generousSketch is a budget so lax that the test streams cause no evictions
// anywhere: every summary holds every value, every target stays resident.
// Under it the sketch path must be bit-identical to exact (HLL distinct
// estimates aside).
func generousSketch() *SketchConfig {
	return &SketchConfig{Budget: 0.001, MaxGroups: 1 << 16, TopK: 1 << 12}
}

// normalizeDistinct verifies sketch HLL distinct estimates against the exact
// counts within relTol, then copies the exact values over so the remaining
// fields can be compared with reflect.DeepEqual.
func normalizeDistinct(tb testing.TB, got, want *Aggregate, relTol float64) {
	tb.Helper()
	for c := 0; c < NumCats; c++ {
		exact := want.Distinct[c]
		if exact == 0 {
			continue
		}
		// Absolute slack of 2 covers register collisions at tiny counts,
		// where relative error is a meaningless yardstick.
		if diff := math.Abs(got.Distinct[c] - exact); diff > 2 && diff/exact > relTol {
			tb.Fatalf("target %v cat %d: distinct estimate %.1f vs exact %.0f (rel %.3f > %.3f)",
				want.Target, c, got.Distinct[c], exact, diff/exact, relTol)
		}
		got.Distinct[c] = exact
	}
}

// TestSketchAggregatorExactIdentity: with a budget generous enough that no
// structure ever evicts, the sketch path is the exact path — bit-for-bit
// identical aggregates at shard counts 1, 4 and 16, with and without a
// tagger, at several worker counts.
func TestSketchAggregatorExactIdentity(t *testing.T) {
	recs, vecs := equivalenceFlows(t, 20)
	rules := []tagging.Rule{
		{ID: "udp", Antecedent: []tagging.Item{tagging.NewItem(tagging.FieldProtocol, 17)}},
		{ID: "http", Antecedent: []tagging.Item{tagging.NewItem(tagging.FieldDstPort, 80)}},
	}
	for _, withTagger := range []bool{false, true} {
		var tagger *tagging.Tagger
		if withTagger {
			tagger = tagging.NewTagger(rules)
		}
		want := aggregate(recs, vecs, Options{Tagger: tagger}, 4)
		if len(want) == 0 {
			t.Fatal("exact aggregator produced no aggregates")
		}
		for _, shards := range []int{1, 4, 16} {
			for _, workers := range []int{1, 4} {
				got := aggregate(recs, vecs, Options{Tagger: tagger, Sketch: generousSketch(), Workers: workers}, shards)
				if len(got) != len(want) {
					t.Fatalf("tagger=%v shards=%d workers=%d: %d aggregates, exact %d",
						withTagger, shards, workers, len(got), len(want))
				}
				for i := range want {
					normalizeDistinct(t, got[i], want[i], 0.05)
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("tagger=%v shards=%d workers=%d: aggregate %d differs:\n got: %+v\nwant: %+v",
							withTagger, shards, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// heavyStream builds one minute of high-cardinality traffic: `heavy` targets
// each receiving a dominant flood value per categorical plus a long tail of
// one-off scatter values and targets. The floods carry ~half the bytes and
// packets of their group, far above any realistic error budget.
func heavyStream(seed int64, heavy, scatter int) []netflow.Record {
	rng := rand.New(rand.NewSource(seed))
	var recs []netflow.Record
	for h := 0; h < heavy; h++ {
		target := netip.AddrFrom4([4]byte{10, 1, byte(h >> 8), byte(h)})
		// The flood: one source hammering the target.
		for i := 0; i < 40; i++ {
			recs = append(recs, netflow.Record{
				Timestamp: 60,
				SrcIP:     netip.AddrFrom4([4]byte{192, 0, 2, byte(h)}),
				DstIP:     target,
				SrcPort:   123,
				DstPort:   uint16(1000 + h),
				Protocol:  17,
				SrcMAC:    [6]byte{2, 0, 0, 0, 0, byte(h)},
				Packets:   50,
				Bytes:     60000,
			})
		}
		// The tail: distinct light sources into the same target.
		for i := 0; i < 60; i++ {
			recs = append(recs, netflow.Record{
				Timestamp: 60,
				SrcIP:     netip.AddrFrom4([4]byte{172, byte(16 + h%8), byte(rng.Intn(250)), byte(i)}),
				DstIP:     target,
				SrcPort:   uint16(20000 + rng.Intn(30000)),
				DstPort:   uint16(1000 + h),
				Protocol:  6,
				SrcMAC:    [6]byte{2, 1, byte(h), 0, 0, byte(i)},
				Packets:   2,
				Bytes:     1200,
			})
		}
	}
	// Scatter targets: one light flow each, inflating target cardinality far
	// past the resident-group bound.
	for sct := 0; sct < scatter; sct++ {
		recs = append(recs, netflow.Record{
			Timestamp: 60,
			SrcIP:     netip.AddrFrom4([4]byte{203, 0, byte(sct >> 8), byte(sct)}),
			DstIP:     netip.AddrFrom4([4]byte{10, 200, byte(sct >> 8), byte(sct)}),
			SrcPort:   uint16(1024 + sct%60000),
			DstPort:   53,
			Protocol:  17,
			SrcMAC:    [6]byte{2, 2, 0, byte(sct >> 8), 0, byte(sct)},
			Packets:   1,
			Bytes:     100,
		})
	}
	// Deterministic shuffle so heavy and scatter flows interleave.
	rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	return recs
}

// TestSketchHeavyHitterBudget: at a realistic budget on a stream whose
// cardinality far exceeds both the resident-group bound and the summary
// size, every heavy target must stay resident and its per-categorical byte
// and packet heavy hitters must appear in the sketch rankings with metric
// values within the budget of the exact path.
func TestSketchHeavyHitterBudget(t *testing.T) {
	const budget = 0.05
	for _, seed := range []int64{1, 7, 42} {
		recs := heavyStream(seed, 24, 4000)
		for _, shards := range []int{1, 4, 16} {
			exact := map[netip.Addr]*Aggregate{}
			for _, a := range aggregate(recs, nil, Options{}, shards) {
				exact[a.Target] = a
			}
			got := map[netip.Addr]*Aggregate{}
			cfg := &SketchConfig{Budget: budget, MaxGroups: 256}
			for _, a := range aggregate(recs, nil, Options{Sketch: cfg}, shards) {
				got[a.Target] = a
			}

			if len(got) > 256+shards*2*R {
				t.Fatalf("seed=%d shards=%d: %d resident groups exceed the bound", seed, shards, len(got))
			}
			for h := 0; h < 24; h++ {
				target := netip.AddrFrom4([4]byte{10, 1, byte(h >> 8), byte(h)})
				sk := got[target]
				if sk == nil {
					t.Fatalf("seed=%d shards=%d: heavy target %v evicted", seed, shards, target)
				}
				ex := exact[target]
				for c := 0; c < NumCats; c++ {
					for _, met := range []int{MetBytes, MetPackets} {
						// The exact rank-0 entry is the flood value carrying
						// ~half the group's traffic: it must lead the sketch
						// ranking too, within the budget.
						if !sk.Present[c][met][0] {
							t.Fatalf("seed=%d shards=%d target=%v cat=%d met=%d: empty sketch ranking",
								seed, shards, target, c, met)
						}
						if sk.Keys[c][met][0] != ex.Keys[c][met][0] {
							t.Fatalf("seed=%d shards=%d target=%v cat=%d met=%d: top key %d, exact %d",
								seed, shards, target, c, met, sk.Keys[c][met][0], ex.Keys[c][met][0])
						}
						rel := math.Abs(sk.Mets[c][met][0]-ex.Mets[c][met][0]) / ex.Mets[c][met][0]
						if rel > budget {
							t.Fatalf("seed=%d shards=%d target=%v cat=%d met=%d: metric %.0f vs exact %.0f (rel %.3f)",
								seed, shards, target, c, met, sk.Mets[c][met][0], ex.Mets[c][met][0], rel)
						}
					}
				}
			}
		}
	}
}

// TestSketchAddAllocs proves the sketch shard add stays allocation-free at
// steady state: resident targets, warm summaries, no admissions.
func TestSketchAddAllocs(t *testing.T) {
	recs := heavyStream(9, 8, 200)
	s := newStream(Options{Sketch: &SketchConfig{Budget: 0.05, MaxGroups: 64}}, 4)
	feed := func() {
		for i := range recs {
			s.add(&recs[i], "")
		}
	}
	feed()
	// Advance a minute and re-feed: every group now recycles through the
	// warm pool, which is the steady state being gated.
	for i := range recs {
		recs[i].Timestamp += 60
	}
	feed()
	rec := recs[0]
	avg := testing.AllocsPerRun(300, func() {
		s.add(&rec, "")
	})
	if avg != 0 {
		t.Errorf("sketch shard add allocates %.2f objects/record steady-state, want 0", avg)
	}
}
