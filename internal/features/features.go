// Package features implements the Step 2 aggregation of §5.2.1: flows are
// grouped per <one-minute bin, target IP> and the categorical flow
// properties C = {source IP, source port, destination port, source MAC,
// transport protocol} are ranked by the metrics M = {mean packet size, sum
// of bytes, sum of packets} with r = 5 ranks. Each ranking stores both the
// categorical value and the aggregated metric, giving |M|·|C|·2r = 150
// feature columns; categorical slots are WoE-encoded before reaching a
// classifier.
//
// Matching tagging rules are annotated onto every aggregate (but never used
// as classifier features — that would leak Step 1 labels), enabling the
// local explainability overlap analysis of §6.6.
package features

import (
	"fmt"
	"math"
	"net/netip"
	"runtime"
	"slices"
	"sort"

	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/par"
	"github.com/ixp-scrubber/ixpscrubber/internal/tagging"
	"github.com/ixp-scrubber/ixpscrubber/internal/woe"
)

// Ranking geometry (paper values).
const (
	// R is the number of ranks kept per (categorical, metric) pair.
	R = 5
	// NumCats is |C|.
	NumCats = 5
	// NumMets is |M|.
	NumMets = 3
	// NumColumns is the total feature column count (150).
	NumColumns = NumCats * NumMets * R * 2
)

// Categorical identifiers, ordered as in the paper's feature notation.
const (
	CatSrcIP = iota
	CatSrcPort
	CatDstPort
	CatSrcMAC
	CatProto
)

// Metric identifiers.
const (
	MetPktSize = iota // mean packet size
	MetBytes          // sum of bytes
	MetPackets        // sum of packets
)

// CatNames are the WoE domain names per categorical.
var CatNames = [NumCats]string{"src_ip", "port_src", "port_dst", "src_mac", "protocol"}

// MetNames name the ranking metrics.
var MetNames = [NumMets]string{"pkt_size", "bytes", "packets"}

// Aggregate is one per-<minute, target IP> record: the top-R categorical
// values per metric with their metric values, the blackhole label, and the
// annotated tagging rules.
type Aggregate struct {
	Minute int64
	Target netip.Addr
	Label  bool

	// Keys[cat][met][rank] is the WoE key of the ranked categorical value;
	// Present marks filled slots; Mets carries the metric value.
	Keys    [NumCats][NumMets][R]uint64
	Present [NumCats][NumMets][R]bool
	Mets    [NumCats][NumMets][R]float64

	// Distinct estimates the number of distinct values seen per categorical
	// (exact map cardinality on the exact path, HyperLogLog estimate in
	// sketch mode). Informational: not one of the 150 paper feature columns.
	Distinct [NumCats]float64

	// RuleIDs are the tagging rules matched by at least one flow of this
	// aggregate (annotation only; see package comment).
	RuleIDs []string
	// Vector is the dominant ground-truth attack vector among the flows
	// (experiments only; empty in production where truth is unknown).
	Vector string
	// Flows is the number of flow records aggregated.
	Flows int
}

// ColumnName formats a feature column the way Figure 10 labels them:
// categorical/metric/rank, with a "@" suffix on the metric column.
func ColumnName(cat, met, rank int, isMetric bool) string {
	base := fmt.Sprintf("%s/%s/%d", CatNames[cat], MetNames[met], rank)
	if isMetric {
		return base + "@val"
	}
	return base
}

// ColumnNames returns all 150 column names in encoding order.
func ColumnNames() []string {
	names := make([]string, 0, NumColumns)
	for c := 0; c < NumCats; c++ {
		for m := 0; m < NumMets; m++ {
			for r := 0; r < R; r++ {
				names = append(names, ColumnName(c, m, r, false))
				names = append(names, ColumnName(c, m, r, true))
			}
		}
	}
	return names
}

// catKey extracts the WoE key of a categorical from a flow record.
func catKey(cat int, rec *netflow.Record) uint64 {
	switch cat {
	case CatSrcIP:
		return woe.KeyAddr(rec.SrcIP)
	case CatSrcPort:
		return woe.KeyPort(rec.SrcPort)
	case CatDstPort:
		return woe.KeyPort(rec.DstPort)
	case CatSrcMAC:
		return woe.KeyMAC(rec.SrcMAC)
	default:
		return woe.KeyProto(rec.Protocol)
	}
}

// group accumulates the flows of one <minute, target>.
type group struct {
	minute int64
	target netip.Addr
	label  bool
	// per categorical: value -> (bytes, packets)
	acc   [NumCats]map[uint64][2]uint64
	rules map[string]struct{}
	vec   map[string]int
	flows int
}

// reset clears a recycled group for a new <minute, target>. The maps keep
// their buckets, so steady-state aggregation allocates only when a minute's
// cardinality exceeds everything seen before.
func (g *group) reset(minute int64, target netip.Addr) {
	g.minute = minute
	g.target = target
	g.label = false
	g.flows = 0
	for c := range g.acc {
		clear(g.acc[c])
	}
	clear(g.rules)
	clear(g.vec)
}

// Options configures AggregateRecords. The zero value aggregates exactly,
// without rule annotation, with workers sized from GOMAXPROCS.
type Options struct {
	// Tagger, when set, annotates matching rule IDs onto aggregates.
	Tagger *tagging.Tagger
	// Sketch enables the bounded-memory sketch mode; nil aggregates exactly.
	Sketch *SketchConfig
	// Workers bounds the ingest and ranking fan-out: 0 sizes from
	// GOMAXPROCS, 1 forces the serial path. Output is identical at every
	// value.
	Workers int
	// Metrics, when set, receives aggregation gauges at every minute flush.
	Metrics *Metrics
}

// aggregator holds one window's per-minute state, split into dst-IP-hash
// shards that each own their target map. Sharding keeps the per-map
// cardinality bounded as target counts grow and lets ingest and the minute
// flush run shards in parallel; the emission order is minutes ascending,
// then targets ascending.
type aggregator struct {
	opt    Options
	shards []shardState
	mask   uint64
	out    []*Aggregate
	errW   []float64 // per-group rel-error scratch: summed error bounds
	errT   []float64 // per-group rel-error scratch: summed totals
}

// shardState is the per-shard half of the aggregator: either an exact target
// map or a bounded sketch table, plus the shard-owned scratch (free list,
// tagger hit buffer) that lets shards run on independent goroutines without
// sharing mutable state.
type shardState struct {
	groups map[netip.Addr]*group // exact mode
	sk     *sketchShard          // sketch mode (nil when exact)
	free   []*group              // recycled groups, maps pre-grown by earlier minutes
	hits   []int                 // tagger match scratch
}

// Metrics receives aggregation gauges at each minute flush. Any field may be
// nil; the core wiring points them at obs gauges.
type Metrics struct {
	// ResidentGroups is the number of <minute, target> groups resident at
	// the flush.
	ResidentGroups func(float64)
	// SketchBytes is the steady-state heap footprint of the sketch
	// structures (0 on the exact path).
	SketchBytes func(float64)
	// EstimateRelError is the flushed minute's aggregate relative error
	// bound: summed admission error over summed estimated totals across all
	// emitted ranking entries (0 on the exact path).
	EstimateRelError func(float64)
}

func (m *Metrics) observeFlush(resident, sketchBytes, relErr float64) {
	if m == nil {
		return
	}
	if m.ResidentGroups != nil {
		m.ResidentGroups(resident)
	}
	if m.SketchBytes != nil {
		m.SketchBytes(sketchBytes)
	}
	if m.EstimateRelError != nil {
		m.EstimateRelError(relErr)
	}
}

// maxShards caps the shard count: beyond 16 the per-shard maps are too
// sparse to matter at realistic per-minute target counts.
const maxShards = 16

// defaultShards ties the shard count to the worker parallelism actually
// available: the largest power of two not exceeding GOMAXPROCS, clamped to
// [1, maxShards]. Shards beyond core count buy no ingest or flush
// parallelism (a 1-core box gets exactly 1 shard).
func defaultShards() int { return shardsFor(runtime.GOMAXPROCS(0)) }

// shardsFor is defaultShards for an explicit parallelism level.
func shardsFor(procs int) int {
	s := 1
	for s*2 <= min(procs, maxShards) {
		s <<= 1
	}
	return s
}

// AggregateRecords groups a window of flow records into per-<minute, target>
// aggregates, returned minute by minute with targets ascending. Records must
// be in non-decreasing minute order: one whose minute is earlier than a
// record before it is dropped. vectors may be nil; when given it must align
// with recs (ground-truth attack vectors, experiments only).
func AggregateRecords(recs []netflow.Record, vectors []string, opt Options) []*Aggregate {
	return aggregate(recs, vectors, opt, defaultShards())
}

// lateRecord marks a dropped record in aggregate's routing table.
const lateRecord = 0xff

// aggregate is AggregateRecords at an explicit shard count (rounded up to a
// power of two, at most maxShards). Output is bit-for-bit identical at every
// shard count in exact mode; in sketch mode the shard count splits the
// resident-group bound, so it is part of the configuration.
func aggregate(recs []netflow.Record, vectors []string, opt Options, shards int) []*Aggregate {
	a := newAggregator(opt, shards)
	// One sequential pass splits the window into minute runs and routes
	// every record to its shard.
	route := make([]uint8, len(recs))
	var runs []int // start index of each minute run, then len(recs)
	cur := int64(math.MinInt64)
	for i := range recs {
		m := recs[i].Minute()
		if m < cur {
			route[i] = lateRecord
			continue
		}
		if m > cur {
			runs = append(runs, i)
			cur = m
		}
		route[i] = uint8(a.shardIndex(recs[i].DstIP))
	}
	runs = append(runs, len(recs))

	serial := par.Workers(opt.Workers) == 1
	for r := 0; r+1 < len(runs); r++ {
		lo, hi, m := runs[r], runs[r+1], recs[runs[r]].Minute()
		if serial {
			for i := lo; i < hi; i++ {
				if s := route[i]; s != lateRecord {
					a.shards[s].add(opt.Tagger, &recs[i], vectorAt(vectors, i), m)
				}
			}
		} else {
			// Each shard takes its own records in input order — the same
			// per-shard sequence the serial loop feeds it, and shards share
			// no mutable state, so the output is identical.
			par.For(opt.Workers, len(a.shards), func(s int) {
				sh := &a.shards[s]
				for i := lo; i < hi; i++ {
					if route[i] == uint8(s) {
						sh.add(opt.Tagger, &recs[i], vectorAt(vectors, i), m)
					}
				}
			})
		}
		a.flush()
	}
	return a.out
}

func vectorAt(vectors []string, i int) string {
	if vectors == nil {
		return ""
	}
	return vectors[i]
}

func newAggregator(opt Options, shards int) *aggregator {
	n := 1
	for n < min(shards, maxShards) {
		n <<= 1
	}
	a := &aggregator{opt: opt, shards: make([]shardState, n), mask: uint64(n - 1)}
	if opt.Sketch != nil {
		rc := opt.Sketch.resolve()
		for i := range a.shards {
			a.shards[i].sk = newSketchShard(rc, n)
		}
	} else {
		for i := range a.shards {
			a.shards[i].groups = make(map[netip.Addr]*group)
		}
	}
	return a
}

// shardIndex hashes a target address onto a shard (FNV-1a over the 16-byte
// form — deterministic across processes, unlike Go's seeded map hash).
func (a *aggregator) shardIndex(addr netip.Addr) uint64 {
	if a.mask == 0 {
		return 0
	}
	b := addr.As16()
	h := uint64(14695981039346656037)
	for _, x := range b {
		h = (h ^ uint64(x)) * 1099511628211
	}
	return h & a.mask
}

// add feeds one flow into this shard. It touches only shard-owned state, so
// shards can ingest on independent goroutines.
func (s *shardState) add(tagger *tagging.Tagger, rec *netflow.Record, vector string, m int64) {
	if s.sk != nil {
		g := s.sk.add(rec, m)
		if g == nil {
			return // not admitted: absorbed by the admission sketch only
		}
		g.flows++
		if rec.Blackholed {
			g.label = true
		}
		if vector != "" {
			g.vec[vector]++
		}
		g.observe(rec)
		if tagger != nil {
			s.hits = tagger.Match(rec, s.hits[:0])
			for _, i := range s.hits {
				g.rules[tagger.Rules()[i].ID] = struct{}{}
			}
		}
		return
	}
	g := s.groups[rec.DstIP]
	if g == nil {
		if n := len(s.free); n > 0 {
			g = s.free[n-1]
			s.free = s.free[:n-1]
			g.reset(m, rec.DstIP)
		} else {
			g = &group{
				minute: m,
				target: rec.DstIP,
				rules:  make(map[string]struct{}),
				vec:    make(map[string]int),
			}
			for c := range g.acc {
				g.acc[c] = make(map[uint64][2]uint64)
			}
		}
		s.groups[rec.DstIP] = g
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
	if tagger != nil {
		s.hits = tagger.Match(rec, s.hits[:0])
		for _, i := range s.hits {
			g.rules[tagger.Rules()[i].ID] = struct{}{}
		}
	}
}

// flush ranks the current minute's groups onto the output and recycles
// them for the next minute.
func (a *aggregator) flush() {
	if a.shards[0].sk != nil {
		a.flushSketch()
		return
	}
	total := 0
	for i := range a.shards {
		total += len(a.shards[i].groups)
	}
	// Deterministic emission order across shards: gather every group and
	// sort by target, exactly like the unsharded implementation did.
	groups := make([]*group, 0, total)
	for i := range a.shards {
		for _, g := range a.shards[i].groups {
			groups = append(groups, g)
		}
		clear(a.shards[i].groups)
	}
	sort.Slice(groups, func(i, j int) bool {
		return groups[i].target.Compare(groups[j].target) < 0
	})
	out := a.grow(total)
	// Ranking one group touches only that group; results land in the
	// slot matching the sorted order, so output is independent of both
	// worker count and shard count.
	par.ForChunks(a.rankWorkers(total), total, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = groups[i].finish()
		}
	})
	for _, g := range groups {
		s := &a.shards[a.shardIndex(g.target)]
		s.free = append(s.free, g)
	}
	a.opt.Metrics.observeFlush(float64(total), 0, 0)
}

// grow extends the output by n slots and returns them.
func (a *aggregator) grow(n int) []*Aggregate {
	l := len(a.out)
	a.out = slices.Grow(a.out, n)[:l+n]
	return a.out[l:]
}

// rankWorkers is the flush fan-out for n groups: fan-out costs more than
// ranking a handful of groups.
func (a *aggregator) rankWorkers(n int) int {
	if n < 16 {
		return 1
	}
	return par.Workers(a.opt.Workers)
}

// topEntry is one candidate in a (categorical, metric) ranking.
type topEntry struct {
	key uint64
	met float64
}

// outranks is the ranking order of §5.2.1: metric descending with
// deterministic ties broken by key ascending. It is the exact comparator
// the pre-sharding full sort used, so bounded selection under it keeps
// precisely the same R entries.
func outranks(met float64, key uint64, e topEntry) bool {
	if met != e.met {
		return met > e.met
	}
	return key < e.key
}

// topK is a bounded min-heap of the best R entries seen so far: the root is
// the weakest kept entry, so a streaming offer is O(1) for the common
// "not in the top R" case and O(log R) otherwise — replacing the full
// O(n log n) sort per (categorical, metric) with one O(n log R) scan.
type topK struct {
	n int
	e [R]topEntry
}

func (t *topK) offer(key uint64, met float64) {
	if t.n < R {
		t.e[t.n] = topEntry{key: key, met: met}
		t.n++
		// Sift up: a parent must not outrank its children from below —
		// the heap keeps the weakest entry at the root.
		for i := t.n - 1; i > 0; {
			p := (i - 1) / 2
			if !outranks(t.e[p].met, t.e[p].key, t.e[i]) {
				break
			}
			t.e[p], t.e[i] = t.e[i], t.e[p]
			i = p
		}
		return
	}
	if !outranks(met, key, t.e[0]) {
		return // weaker than the weakest kept entry
	}
	t.e[0] = topEntry{key: key, met: met}
	// Sift down to restore the weakest-at-root invariant.
	for i := 0; ; {
		c := 2*i + 1
		if c >= R {
			break
		}
		if r := c + 1; r < R && outranks(t.e[c].met, t.e[c].key, t.e[r]) {
			c = r
		}
		if !outranks(t.e[i].met, t.e[i].key, t.e[c]) {
			break
		}
		t.e[i], t.e[c] = t.e[c], t.e[i]
		i = c
	}
}

// ranked sorts the kept entries into emission order (rank 0 strongest).
// Insertion sort: n is at most R = 5.
func (t *topK) ranked() []topEntry {
	for i := 1; i < t.n; i++ {
		for j := i; j > 0 && outranks(t.e[j].met, t.e[j].key, t.e[j-1]); j-- {
			t.e[j], t.e[j-1] = t.e[j-1], t.e[j]
		}
	}
	return t.e[:t.n]
}

func (g *group) finish() *Aggregate {
	agg := &Aggregate{
		Minute: g.minute,
		Target: g.target,
		Label:  g.label,
		Flows:  g.flows,
	}
	var tops [NumMets]topK
	for c := 0; c < NumCats; c++ {
		for m := range tops {
			tops[m] = topK{}
		}
		// One streaming pass per categorical: every accumulated value is
		// offered to all three metric rankings at once, instead of three
		// scratch rebuilds + full sorts over the same map.
		for k, bp := range g.acc[c] {
			fb := float64(bp[0])
			fp := float64(bp[1])
			ps := 0.0
			if bp[1] != 0 {
				ps = fb / fp
			}
			tops[MetPktSize].offer(k, ps)
			tops[MetBytes].offer(k, fb)
			tops[MetPackets].offer(k, fp)
		}
		for m := 0; m < NumMets; m++ {
			for r, e := range tops[m].ranked() {
				agg.Keys[c][m][r] = e.key
				agg.Present[c][m][r] = true
				agg.Mets[c][m][r] = e.met
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

// ObserveRecords feeds balanced flow records' categorical values into the
// WoE encoder under each record's blackhole label, in one encoder batch.
// WoE statistics are fitted at the flow level (§5.2.2 maps values to their
// weight of evidence of "appearing in the blackhole"), not per aggregate:
// per-aggregate observation would flatten low-cardinality domains — both
// TCP and UDP appear in nearly every aggregate, so their per-aggregate WoE
// collapses to noise around zero, while their flow-level WoE carries the
// strong UDP-means-attack signal that transfers between vantage points.
func ObserveRecords(enc *woe.Encoder, recs []netflow.Record) {
	enc.ObserveBatch(CatNames[:], func(t *woe.Tally) {
		for i := range recs {
			for c := 0; c < NumCats; c++ {
				t.Observe(c, catKey(c, &recs[i]), recs[i].Blackholed)
			}
		}
	})
}

// Encode converts an aggregate into its 150-column feature row: categorical
// slots become WoE values, metric slots stay numeric; missing slots are NaN
// (imputed to -1 by the pipeline's I stage).
func Encode(enc *woe.Encoder, agg *Aggregate, dst []float64) []float64 {
	dst = dst[:0]
	for c := 0; c < NumCats; c++ {
		for m := 0; m < NumMets; m++ {
			for r := 0; r < R; r++ {
				if agg.Present[c][m][r] {
					dst = append(dst, enc.WoE(CatNames[c], agg.Keys[c][m][r]), agg.Mets[c][m][r])
				} else {
					dst = append(dst, math.NaN(), math.NaN())
				}
			}
		}
	}
	return dst
}
