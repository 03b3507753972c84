package features

import (
	"fmt"
	"math"
	"net/netip"
	"reflect"
	"sort"
	"testing"

	"github.com/ixp-scrubber/ixpscrubber/internal/balance"
	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/synth"
	"github.com/ixp-scrubber/ixpscrubber/internal/tagging"
)

// This file preserves the pre-sharding aggregator — one flat target map per
// minute, full sort.Slice ranking per (categorical, metric) — as the
// reference implementation. The equivalence tests lock the sharded top-K
// path to it bit-for-bit; the benchmarks feed the old-vs-new flush numbers
// of BENCH_PR3.json.

type refGroup struct {
	minute int64
	target netip.Addr
	label  bool
	acc    [NumCats]map[uint64][2]uint64
	rules  map[string]struct{}
	vec    map[string]int
	flows  int
}

type refAggregator struct {
	tagger *tagging.Tagger
	emit   func(*Aggregate)
	cur    int64
	groups map[netip.Addr]*refGroup
	hits   []int
}

func newRefAggregator(tagger *tagging.Tagger, emit func(*Aggregate)) *refAggregator {
	return &refAggregator{
		tagger: tagger,
		emit:   emit,
		cur:    math.MinInt64,
		groups: make(map[netip.Addr]*refGroup),
	}
}

func (a *refAggregator) Add(rec *netflow.Record, vector string) {
	m := rec.Minute()
	if m < a.cur {
		return
	}
	if m > a.cur {
		a.flush()
		a.cur = m
	}
	g := a.groups[rec.DstIP]
	if g == nil {
		g = &refGroup{
			minute: m,
			target: rec.DstIP,
			rules:  make(map[string]struct{}),
			vec:    make(map[string]int),
		}
		for c := range g.acc {
			g.acc[c] = make(map[uint64][2]uint64)
		}
		a.groups[rec.DstIP] = g
	}
	g.flows++
	if rec.Blackholed {
		g.label = true
	}
	if vector != "" {
		g.vec[vector]++
	}
	for c := 0; c < NumCats; c++ {
		k := catKey(c, rec)
		bp := g.acc[c][k]
		bp[0] += rec.Bytes
		bp[1] += rec.Packets
		g.acc[c][k] = bp
	}
	if a.tagger != nil {
		a.hits = a.hits[:0]
		a.hits = a.tagger.Match(rec, a.hits)
		for _, i := range a.hits {
			g.rules[a.tagger.Rules()[i].ID] = struct{}{}
		}
	}
}

func (a *refAggregator) Close() { a.flush() }

func (a *refAggregator) flush() {
	if len(a.groups) == 0 {
		return
	}
	targets := make([]netip.Addr, 0, len(a.groups))
	for t := range a.groups {
		targets = append(targets, t)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].Compare(targets[j]) < 0 })
	for _, t := range targets {
		agg := a.groups[t].finish()
		if a.emit != nil {
			a.emit(agg)
		}
	}
	clear(a.groups)
}

type refKV struct {
	key   uint64
	bytes uint64
	pkts  uint64
	met   float64
}

func (g *refGroup) finish() *Aggregate {
	agg := &Aggregate{
		Minute: g.minute,
		Target: g.target,
		Label:  g.label,
		Flows:  g.flows,
	}
	var scratch []refKV
	for c := 0; c < NumCats; c++ {
		scratch = scratch[:0]
		for k, bp := range g.acc[c] {
			scratch = append(scratch, refKV{key: k, bytes: bp[0], pkts: bp[1]})
		}
		for m := 0; m < NumMets; m++ {
			for i := range scratch {
				e := &scratch[i]
				switch m {
				case MetPktSize:
					if e.pkts == 0 {
						e.met = 0
					} else {
						e.met = float64(e.bytes) / float64(e.pkts)
					}
				case MetBytes:
					e.met = float64(e.bytes)
				default:
					e.met = float64(e.pkts)
				}
			}
			sort.Slice(scratch, func(i, j int) bool {
				if scratch[i].met != scratch[j].met {
					return scratch[i].met > scratch[j].met
				}
				return scratch[i].key < scratch[j].key
			})
			for r := 0; r < R && r < len(scratch); r++ {
				agg.Keys[c][m][r] = scratch[r].key
				agg.Present[c][m][r] = true
				agg.Mets[c][m][r] = scratch[r].met
			}
		}
		agg.Distinct[c] = float64(len(g.acc[c]))
	}
	if len(g.rules) > 0 {
		agg.RuleIDs = make([]string, 0, len(g.rules))
		for id := range g.rules {
			agg.RuleIDs = append(agg.RuleIDs, id)
		}
		sort.Strings(agg.RuleIDs)
	}
	best, bestN := "", 0
	for v, n := range g.vec {
		if n > bestN || (n == bestN && v < best) {
			best, bestN = v, n
		}
	}
	agg.Vector = best
	return agg
}

// equivalenceFlows builds a seeded synthetic stream (balanced, with ground
// truth vectors) plus hand-crafted tie cases the generator is unlikely to
// produce: equal metric values that must break by key, zero-packet entries,
// and targets colliding across minutes.
func equivalenceFlows(tb testing.TB, minutes int) ([]netflow.Record, []string) {
	tb.Helper()
	g := synth.NewGenerator(synth.ProfileUS1())
	balanced, _ := balance.Flows(17, g.Generate(0, int64(minutes)))
	recs := make([]netflow.Record, 0, len(balanced)+64)
	vecs := make([]string, 0, cap(recs))
	for i := range balanced {
		recs = append(recs, balanced[i].Record)
		vecs = append(vecs, balanced[i].Vector)
	}
	// Tie block: six sources at identical byte/packet counts into one
	// target — ranking must pick the R lowest keys deterministically.
	tieMinute := int64(minutes + 1)
	for i := 0; i < 6; i++ {
		recs = append(recs, netflow.Record{
			Timestamp: tieMinute * 60,
			SrcIP:     netip.AddrFrom4([4]byte{203, 0, 113, byte(10 + i)}),
			DstIP:     netip.MustParseAddr("198.51.100.200"),
			SrcPort:   uint16(40000 + i),
			DstPort:   80,
			Protocol:  6,
			SrcMAC:    [6]byte{2, 0, 0, 0, 0, byte(i)},
			Packets:   10,
			Bytes:     5000,
		})
		vecs = append(vecs, "")
	}
	return recs, vecs
}

func runAggregator(add func(*netflow.Record, string), close func(), recs []netflow.Record, vecs []string) {
	for i := range recs {
		add(&recs[i], vecs[i])
	}
	close()
}

// stream is the per-record streaming ingest the batch entry point replaced:
// each record goes straight to its shard in input order, a minute advance
// flushes, and a record earlier than the current minute is dropped. It
// drives the same shard and flush code as aggregate, so it is the serial
// oracle for the minute-run split and the shard-parallel ingest.
type stream struct {
	a   *aggregator
	cur int64
}

func newStream(opt Options, shards int) *stream {
	return &stream{a: newAggregator(opt, shards), cur: math.MinInt64}
}

func (s *stream) add(rec *netflow.Record, vector string) {
	m := rec.Minute()
	if m < s.cur {
		return
	}
	if m > s.cur {
		s.a.flush()
		s.cur = m
	}
	s.a.shards[s.a.shardIndex(rec.DstIP)].add(s.a.opt.Tagger, rec, vector, m)
}

func (s *stream) close() []*Aggregate {
	s.a.flush()
	return s.a.out
}

func streamAggregate(recs []netflow.Record, vecs []string, opt Options, shards int) []*Aggregate {
	s := newStream(opt, shards)
	runAggregator(s.add, func() {}, recs, vecs)
	return s.close()
}

// spliceLate inserts records that must be dropped mid-stream: one from
// before the window, and one from the minute before the record it follows.
func spliceLate(recs []netflow.Record, vecs []string) ([]netflow.Record, []string) {
	mid := len(recs) / 2
	for mid < len(recs) && recs[mid].Minute() == recs[mid-1].Minute() {
		mid++ // land just after a minute boundary
	}
	early, prev := recs[0], recs[mid-1]
	early.Timestamp = 0
	prev.Timestamp = (recs[mid].Minute() - 1) * 60
	out := append(append(append([]netflow.Record{}, recs[:mid+1]...), early, prev), recs[mid+1:]...)
	outV := append(append(append([]string{}, vecs[:mid+1]...), "late", "late"), vecs[mid+1:]...)
	return out, outV
}

func sameAggregates(t *testing.T, what string, got, want []*Aggregate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d aggregates, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: aggregate %d differs:\n got: %+v\nwant: %+v", what, i, got[i], want[i])
		}
	}
}

// TestAggregateRecordsEquivalence is the wall for the batch entry point: at
// every shard and worker count, in exact and sketch mode, with and without a
// tagger, and with late records spliced mid-stream, aggregate is
// bit-identical to the per-record streaming oracle — and in exact mode both
// match the pre-sharding reference implementation.
func TestAggregateRecordsEquivalence(t *testing.T) {
	recs, vecs := spliceLate(equivalenceFlows(t, 25))
	rules := []tagging.Rule{
		{ID: "udp", Antecedent: []tagging.Item{tagging.NewItem(tagging.FieldProtocol, 17)}},
		{ID: "http", Antecedent: []tagging.Item{tagging.NewItem(tagging.FieldDstPort, 80)}},
	}
	for _, withTagger := range []bool{false, true} {
		t.Run(fmt.Sprintf("tagger=%v", withTagger), func(t *testing.T) {
			var tagger *tagging.Tagger
			if withTagger {
				tagger = tagging.NewTagger(rules)
			}
			var want []*Aggregate
			ref := newRefAggregator(tagger, func(a *Aggregate) { want = append(want, a) })
			runAggregator(ref.Add, ref.Close, recs, vecs)
			if len(want) == 0 {
				t.Fatal("reference produced no aggregates")
			}
			for _, mode := range []string{"exact", "sketch"} {
				t.Run(mode, func(t *testing.T) {
					var cfg *SketchConfig
					if mode == "sketch" {
						cfg = &SketchConfig{Budget: 0.05, MaxGroups: 128}
					}
					for _, shards := range []int{1, 2, 4, 16} {
						opt := Options{Tagger: tagger, Sketch: cfg, Workers: 1}
						serial := streamAggregate(recs, vecs, opt, shards)
						if mode == "exact" {
							sameAggregates(t, fmt.Sprintf("shards=%d: stream vs reference", shards), serial, want)
						}
						for _, workers := range []int{1, 2, 8} {
							opt.Workers = workers
							sameAggregates(t, fmt.Sprintf("shards=%d workers=%d: batch vs stream", shards, workers),
								aggregate(recs, vecs, opt, shards), serial)
						}
					}
				})
			}
		})
	}
}

// TestAggregateRecordsConservesFlows checks the batch entry point without an
// oracle: a long window pushed through few shards at several worker counts
// must count every in-order record exactly once, drop every late one, and
// emit one aggregate per <minute, target> in strictly ascending order.
func TestAggregateRecordsConservesFlows(t *testing.T) {
	const targets, perTarget, minutes = 40, 25, 12
	var recs []netflow.Record
	late := 0
	for m := int64(1); m <= minutes; m++ {
		for i := 0; i < targets*perTarget; i++ {
			recs = append(recs, netflow.Record{
				Timestamp: m*60 + int64(i%60),
				SrcIP:     netip.AddrFrom4([4]byte{192, 0, 2, byte(i)}),
				DstIP:     netip.AddrFrom4([4]byte{10, 0, 0, byte(i % targets)}),
				SrcPort:   uint16(1024 + i),
				DstPort:   80,
				Protocol:  6,
				Packets:   3,
				Bytes:     1500,
			})
			if m > 1 && i%97 == 0 {
				// A straggler from the previous minute, mid-run.
				r := recs[len(recs)-1]
				r.Timestamp -= 60
				recs = append(recs, r)
				late++
			}
		}
	}
	for _, workers := range []int{1, 2, 8} {
		for _, shards := range []int{1, 2} {
			got := aggregate(recs, nil, Options{Workers: workers}, shards)
			if len(got) != targets*minutes {
				t.Fatalf("workers=%d shards=%d: %d aggregates, want %d", workers, shards, len(got), targets*minutes)
			}
			flows := 0
			for i, a := range got {
				flows += a.Flows
				if a.Flows != perTarget {
					t.Fatalf("workers=%d shards=%d: %v minute %d aggregated %d flows, want %d",
						workers, shards, a.Target, a.Minute, a.Flows, perTarget)
				}
				if i > 0 {
					prev := got[i-1]
					if a.Minute < prev.Minute || (a.Minute == prev.Minute && a.Target.Compare(prev.Target) <= 0) {
						t.Fatalf("workers=%d shards=%d: aggregate %d (%d, %v) not after (%d, %v)",
							workers, shards, i, a.Minute, a.Target, prev.Minute, prev.Target)
					}
				}
			}
			if want := len(recs) - late; flows != want {
				t.Fatalf("workers=%d shards=%d: %d flows aggregated, want %d of %d (%d late)",
					workers, shards, flows, want, len(recs), late)
			}
		}
	}
}

// TestAggregateRecordsEmptyWindow: an empty window yields no aggregates and
// runs no flush, so the aggregation gauges keep their last value.
func TestAggregateRecordsEmptyWindow(t *testing.T) {
	calls := 0
	gauge := func(float64) { calls++ }
	metrics := &Metrics{ResidentGroups: gauge, SketchBytes: gauge, EstimateRelError: gauge}
	for _, sk := range []*SketchConfig{nil, {Budget: 0.05, MaxGroups: 64}} {
		for _, workers := range []int{1, 8} {
			opt := Options{Sketch: sk, Workers: workers, Metrics: metrics}
			for _, recs := range [][]netflow.Record{nil, {}} {
				if got := AggregateRecords(recs, nil, opt); len(got) != 0 {
					t.Errorf("sketch=%v workers=%d: %d aggregates from an empty window", sk != nil, workers, len(got))
				}
			}
		}
	}
	if calls != 0 {
		t.Errorf("an empty window reported %d gauge values, want none", calls)
	}
}

// TestAggregateRecordsMetricsPerMinute: every minute of the window flushes
// once and reports its resident group count; the sketch gauges read 0 on
// the exact path and carry the sketch footprint in sketch mode.
func TestAggregateRecordsMetricsPerMinute(t *testing.T) {
	recs, vecs := equivalenceFlows(t, 6)
	perMinute := map[int64]int{}
	var minutes []int64
	for _, a := range AggregateRecords(recs, vecs, Options{Workers: 1}) {
		if perMinute[a.Minute] == 0 {
			minutes = append(minutes, a.Minute)
		}
		perMinute[a.Minute]++
	}
	for _, sk := range []*SketchConfig{nil, generousSketch()} {
		for _, workers := range []int{1, 8} {
			var resident, bytes, relErr []float64
			AggregateRecords(recs, vecs, Options{Sketch: sk, Workers: workers, Metrics: &Metrics{
				ResidentGroups:   func(v float64) { resident = append(resident, v) },
				SketchBytes:      func(v float64) { bytes = append(bytes, v) },
				EstimateRelError: func(v float64) { relErr = append(relErr, v) },
			}})
			what := fmt.Sprintf("sketch=%v workers=%d", sk != nil, workers)
			if len(resident) != len(minutes) || len(bytes) != len(minutes) || len(relErr) != len(minutes) {
				t.Fatalf("%s: %d/%d/%d gauge reports for %d minutes", what, len(resident), len(bytes), len(relErr), len(minutes))
			}
			for i, m := range minutes {
				if int(resident[i]) != perMinute[m] {
					t.Errorf("%s: minute %d reported %v resident groups, emitted %d", what, m, resident[i], perMinute[m])
				}
				if sk == nil && (bytes[i] != 0 || relErr[i] != 0) {
					t.Errorf("%s: minute %d reported sketch bytes %v, rel error %v on the exact path", what, m, bytes[i], relErr[i])
				}
				if sk != nil && bytes[i] <= 0 {
					t.Errorf("%s: minute %d reported sketch bytes %v", what, m, bytes[i])
				}
			}
		}
	}
}

// TestAggregateRecordsLeavesInputUntouched: aggregation is a function of the
// window — it neither writes to the records nor the vectors it is handed,
// and the same window always yields the same aggregates.
func TestAggregateRecordsLeavesInputUntouched(t *testing.T) {
	recs, vecs := spliceLate(equivalenceFlows(t, 8))
	origRecs := append([]netflow.Record{}, recs...)
	origVecs := append([]string{}, vecs...)
	tagger := tagging.NewTagger([]tagging.Rule{
		{ID: "udp", Antecedent: []tagging.Item{tagging.NewItem(tagging.FieldProtocol, 17)}},
	})
	for _, sk := range []*SketchConfig{nil, {Budget: 0.05, MaxGroups: 128}} {
		opt := Options{Tagger: tagger, Sketch: sk, Workers: 8}
		first := AggregateRecords(recs, vecs, opt)
		second := AggregateRecords(recs, vecs, opt)
		sameAggregates(t, fmt.Sprintf("sketch=%v: second call vs first", sk != nil), second, first)
		if !reflect.DeepEqual(recs, origRecs) {
			t.Fatalf("sketch=%v: records modified by aggregation", sk != nil)
		}
		if !reflect.DeepEqual(vecs, origVecs) {
			t.Fatalf("sketch=%v: vectors modified by aggregation", sk != nil)
		}
	}
}

// TestAggregatorGroupRecycling: recycled groups (minute N's maps reused in
// minute N+1) must never leak state between minutes or targets.
func TestAggregatorGroupRecycling(t *testing.T) {
	recs, vecs := equivalenceFlows(t, 8)
	// Append the same stream shifted by an hour: every group of the second
	// pass is built on recycled maps. Output must mirror the first pass
	// except for Minute.
	shift := int64(3600)
	both := append([]netflow.Record{}, recs...)
	for _, r := range recs {
		r.Timestamp += shift
		both = append(both, r)
	}
	twice := aggregate(both, append(append([]string{}, vecs...), vecs...), Options{Workers: 1}, 4)
	if len(twice)%2 != 0 {
		t.Fatalf("aggregate count %d not even across identical passes", len(twice))
	}
	half := len(twice) / 2
	for i := 0; i < half; i++ {
		first, second := twice[i], twice[half+i]
		second.Minute -= shift / 60
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("aggregate %d differs after group recycling", i)
		}
	}
}

// TestAggregateAddAllocs gates the per-record aggregation cost: once a
// minute's groups and maps are warm, the shard add must stay within budget.
// Budget 1: netip.Addr map keys hash through an interface on some paths and
// group promotion may grow a bucket; anything above that means a regression
// to per-record scratch allocation.
func TestAggregateAddAllocs(t *testing.T) {
	recs, vecs := equivalenceFlows(t, 6)
	s := newStream(Options{}, 4)
	runAggregator(s.add, func() {}, recs, vecs) // warm groups and free list
	r := recs[len(recs)/2]
	r.Timestamp += 3600 // new minute: groups recycle from the free list
	s.add(&r, "")
	avg := testing.AllocsPerRun(200, func() {
		s.add(&r, "")
	})
	if avg > 1 {
		t.Errorf("shard add allocates %.1f objects/record, budget 1", avg)
	}
}

func benchFlushFlows(b *testing.B) []netflow.Record {
	b.Helper()
	g := synth.NewGenerator(synth.ProfileUS1())
	balanced, _ := balance.Flows(23, g.Generate(0, 20))
	return synth.Records(balanced)
}

// BenchmarkFlushSharded vs BenchmarkFlushReference: the aggregation flush
// pair recorded by scripts/bench.sh into BENCH_PR3.json.
func BenchmarkFlushSharded(b *testing.B) {
	recs := benchFlushFlows(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AggregateRecords(recs, nil, Options{})
	}
}

func BenchmarkFlushReference(b *testing.B) {
	recs := benchFlushFlows(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := newRefAggregator(nil, nil)
		for j := range recs {
			a.Add(&recs[j], "")
		}
		a.Close()
	}
}
