package features

import (
	"math"
	"net/netip"
	"sort"

	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/par"
	"github.com/ixp-scrubber/ixpscrubber/internal/sketch"
)

// SketchConfig enables the bounded-memory aggregation mode and declares its
// exactness budget. The zero value of every field selects a default derived
// from Budget; a nil *SketchConfig means exact aggregation.
//
// Error budget semantics: Budget is the relative error ε the sketch path may
// introduce. It derives the space-saving summary size K = max(2R, ceil(1/ε))
// (any categorical value carrying more than ε of a group's traffic is
// guaranteed a summary slot, so heavy hitters are never lost, only
// over-counted by at most their recorded admission error) and the HyperLogLog
// precision (standard error ≤ ε, clamped to at most 12 so one per-group
// counter stays ≤ 4 KiB). Targets themselves are admitted space-saving style
// against a per-shard count-min estimate, so the heaviest ~MaxGroups targets
// of each minute are always resident.
type SketchConfig struct {
	// Budget is the relative exactness budget ε (default 0.05).
	Budget float64 `json:"budget,omitempty"`
	// MaxGroups bounds the resident <minute, target> groups across all
	// shards (default 1024). Lighter targets beyond the bound are evicted
	// space-saving style, never the heavy ones.
	MaxGroups int `json:"max_groups,omitempty"`
	// TopK overrides the per-(group, categorical) summary size (default
	// derived from Budget).
	TopK int `json:"top_k,omitempty"`
	// CMWidth and CMDepth size the per-shard target admission count-min
	// sketch (defaults 4096 × 2).
	CMWidth int `json:"cm_width,omitempty"`
	CMDepth int `json:"cm_depth,omitempty"`
	// HLLPrecision overrides the per-(group, categorical) distinct-counter
	// precision (default derived from Budget).
	HLLPrecision int `json:"hll_precision,omitempty"`
}

// Default sketch parameters; see SketchConfig.
const (
	DefaultSketchBudget = 0.05
	DefaultMaxGroups    = 1024
)

// resolve fills every derived field so shards can share one concrete config.
func (c *SketchConfig) resolve() SketchConfig {
	var r SketchConfig
	if c != nil {
		r = *c
	}
	if r.Budget <= 0 {
		r.Budget = DefaultSketchBudget
	}
	if r.MaxGroups <= 0 {
		r.MaxGroups = DefaultMaxGroups
	}
	if r.TopK <= 0 {
		r.TopK = int(math.Ceil(1 / r.Budget))
		if r.TopK < 2*R {
			r.TopK = 2 * R
		}
	}
	if r.CMWidth <= 0 {
		r.CMWidth = 4096
	}
	if r.CMDepth <= 0 {
		r.CMDepth = 2
	}
	if r.HLLPrecision <= 0 {
		r.HLLPrecision = sketch.HLLPrecisionFor(r.Budget)
	}
	return r
}

// groupFootprint is the steady-state heap cost of one resident group's
// sketch structures.
func (c SketchConfig) groupFootprint() int {
	ss := c.TopK * (48 + 24) // see sketch.SpaceSaving.Footprint
	return NumCats * (2*ss + 1<<c.HLLPrecision)
}

// sketchShard is the bounded-memory counterpart of a shard's exact target
// map: a capped table of sketch-backed groups, an eviction min-heap ordered
// by admission weight, and a count-min sketch that absorbs the traffic of
// non-resident targets so heavy newcomers can still displace light residents.
type sketchShard struct {
	cfg   SketchConfig // resolved
	cap   int          // resident group bound for this shard
	table map[netip.Addr]*sgroup
	heap  []*sgroup // indexed min-heap by (admW, target): eviction order
	pool  []*sgroup // recycled groups, sketches pre-sized
	tcm   *sketch.CountMin
}

func newSketchShard(cfg SketchConfig, shards int) *sketchShard {
	capGroups := cfg.MaxGroups / shards
	if capGroups < 2*R {
		capGroups = 2 * R // floor so tiny budgets still rank meaningfully
	}
	return &sketchShard{
		cfg:   cfg,
		cap:   capGroups,
		table: make(map[netip.Addr]*sgroup, capGroups),
		heap:  make([]*sgroup, 0, capGroups),
		tcm:   sketch.NewCountMin(cfg.CMWidth, cfg.CMDepth),
	}
}

// footprint is the shard's steady-state sketch heap in bytes.
func (s *sketchShard) footprint() int {
	return s.tcm.Footprint() + (len(s.table)+len(s.pool))*s.cfg.groupFootprint()
}

// sgroup is a sketch-backed <minute, target> group: per categorical, two
// space-saving summaries (bytes-primary and packets-primary, so both byte
// and packet heavy hitters keep their guarantee) and a HyperLogLog distinct
// counter. Rule annotations and ground-truth vectors stay exact — both are
// tiny and must not be approximated.
//
// The packets-primary summary is lazy: while the bytes-primary summary has
// never evicted it holds every value exactly, so the two summaries would be
// identical and only ssB is maintained. At the first would-be eviction
// (dual[c] flips) ssB's still-exact state is cloned into ssP and the two
// evolve independently. Groups below the summary size — the common case —
// therefore pay a single summary update per categorical.
type sgroup struct {
	minute int64
	target netip.Addr
	label  bool
	flows  int
	admW   uint64 // eviction weight: observed bytes + inherited error
	werr   uint64 // admission error inherited from the evicted group
	hpos   int32  // position in the shard eviction heap
	dual   [NumCats]bool
	rules  map[string]struct{}
	vec    map[string]int
	ssB    [NumCats]*sketch.SpaceSaving
	ssP    [NumCats]*sketch.SpaceSaving
	hll    [NumCats]*sketch.HLL
}

func newSgroup(cfg SketchConfig) *sgroup {
	g := &sgroup{
		rules: make(map[string]struct{}),
		vec:   make(map[string]int),
	}
	for c := 0; c < NumCats; c++ {
		g.ssB[c] = sketch.NewSpaceSaving(cfg.TopK, 0)
		g.ssP[c] = sketch.NewSpaceSaving(cfg.TopK, 1)
		g.hll[c] = sketch.NewHLL(cfg.HLLPrecision)
	}
	return g
}

func (g *sgroup) reset(minute int64, target netip.Addr) {
	g.minute = minute
	g.target = target
	g.label = false
	g.flows = 0
	g.admW = 0
	g.werr = 0
	if len(g.rules) != 0 {
		clear(g.rules)
	}
	if len(g.vec) != 0 {
		clear(g.vec)
	}
	for c := 0; c < NumCats; c++ {
		g.ssB[c].Reset()
		if g.dual[c] {
			// Stale ssP content is harmless when !dual: the next dual
			// transition clones over it, so skip the map clear.
			g.ssP[c].Reset()
			g.dual[c] = false
		}
		g.hll[c].Reset()
	}
}

// observe feeds one flow's categorical values into the group's sketches.
func (g *sgroup) observe(rec *netflow.Record) {
	for c := 0; c < NumCats; c++ {
		k := catKey(c, rec)
		g.hll[c].AddKey(k)
		if !g.dual[c] {
			if !g.ssB[c].WillEvict(k) {
				g.ssB[c].Add(k, rec.Bytes, rec.Packets)
				continue
			}
			g.ssP[c].CopyFrom(g.ssB[c])
			g.dual[c] = true
		}
		g.ssB[c].Add(k, rec.Bytes, rec.Packets)
		g.ssP[c].Add(k, rec.Bytes, rec.Packets)
	}
}

// sgLess is the eviction order: smallest admission weight first, ties broken
// by target address so eviction is a pure function of the stream.
func sgLess(a, b *sgroup) bool {
	if a.admW != b.admW {
		return a.admW < b.admW
	}
	return a.target.Compare(b.target) < 0
}

func (s *sketchShard) heapSwap(i, j int32) {
	h := s.heap
	h[i], h[j] = h[j], h[i]
	h[i].hpos, h[j].hpos = i, j
}

func (s *sketchShard) siftUp(i int32) {
	for i > 0 {
		p := (i - 1) / 2
		if !sgLess(s.heap[i], s.heap[p]) {
			return
		}
		s.heapSwap(i, p)
		i = p
	}
}

func (s *sketchShard) siftDown(i int32) {
	n := int32(len(s.heap))
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && sgLess(s.heap[r], s.heap[c]) {
			c = r
		}
		if !sgLess(s.heap[c], s.heap[i]) {
			return
		}
		s.heapSwap(i, c)
		i = c
	}
}

func (s *sketchShard) heapPush(g *sgroup) {
	g.hpos = int32(len(s.heap))
	s.heap = append(s.heap, g)
	s.siftUp(g.hpos)
}

// targetKey hashes a target address to the 64-bit admission-sketch key
// (FNV-1a over the 16-byte form, deterministic across processes).
func targetKey(addr netip.Addr) uint64 {
	b := addr.As16()
	h := uint64(14695981039346656037)
	for _, x := range b {
		h = (h ^ uint64(x)) * 1099511628211
	}
	return h
}

// add routes one flow to its resident group, admitting the target first if
// needed. A nil return means the target was not admitted: its traffic is
// absorbed by the admission sketch only, and it will displace the lightest
// resident once its count-min estimate outgrows them.
func (s *sketchShard) add(rec *netflow.Record, m int64) *sgroup {
	if g := s.table[rec.DstIP]; g != nil {
		g.admW += rec.Bytes
		s.siftDown(g.hpos)
		return g
	}
	estB, _ := s.tcm.Update(targetKey(rec.DstIP), rec.Bytes, rec.Packets)
	if len(s.table) >= s.cap {
		victim := s.heap[0]
		if estB <= victim.admW {
			return nil
		}
		delete(s.table, victim.target)
		werr := victim.admW
		victim.reset(m, rec.DstIP)
		victim.werr = werr
		victim.admW = werr + rec.Bytes
		s.table[rec.DstIP] = victim
		s.siftDown(0)
		return victim
	}
	var g *sgroup
	if n := len(s.pool); n > 0 {
		g = s.pool[n-1]
		s.pool = s.pool[:n-1]
	} else {
		g = newSgroup(s.cfg)
	}
	g.reset(m, rec.DstIP)
	g.admW = rec.Bytes
	s.table[rec.DstIP] = g
	s.heapPush(g)
	return g
}

// finish ranks a sketch-backed group into an Aggregate, mirroring
// group.finish: the bytes ranking reads the bytes-primary summary, the
// packets ranking the packets-primary one, and the mean-packet-size ranking
// their deterministic union (a key present in both contributes its
// bytes-primary counters). It also returns the group's summed error bounds
// and estimated totals for the flush-level relative-error gauge.
func (g *sgroup) finish() (*Aggregate, float64, float64) {
	agg := &Aggregate{
		Minute: g.minute,
		Target: g.target,
		Label:  g.label,
		Flows:  g.flows,
	}
	errSum := float64(g.werr)
	totSum := float64(g.admW)
	var tops [NumMets]topK
	for c := 0; c < NumCats; c++ {
		for m := range tops {
			tops[m] = topK{}
		}
		if !g.dual[c] {
			// Pre-eviction the bytes-primary summary is exact and identical
			// to what the packets-primary one would hold, so one loop feeds
			// all three rankings with zero error bounds.
			for _, e := range g.ssB[c].Entries() {
				fb, fp := float64(e.W[0]), float64(e.W[1])
				ps := 0.0
				if e.W[1] != 0 {
					ps = fb / fp
				}
				tops[MetBytes].offer(e.Key, fb)
				tops[MetPackets].offer(e.Key, fp)
				tops[MetPktSize].offer(e.Key, ps)
				totSum += fb + fp
			}
		} else {
			for _, e := range g.ssB[c].Entries() {
				fb, fp := float64(e.W[0]), float64(e.W[1])
				ps := 0.0
				if e.W[1] != 0 {
					ps = fb / fp
				}
				tops[MetPktSize].offer(e.Key, ps)
				tops[MetBytes].offer(e.Key, fb)
				errSum += float64(e.E[0])
				totSum += fb
			}
			for _, e := range g.ssP[c].Entries() {
				tops[MetPackets].offer(e.Key, float64(e.W[1]))
				errSum += float64(e.E[1])
				totSum += float64(e.W[1])
				if !g.ssB[c].Has(e.Key) {
					ps := 0.0
					if e.W[1] != 0 {
						ps = float64(e.W[0]) / float64(e.W[1])
					}
					tops[MetPktSize].offer(e.Key, ps)
				}
			}
		}
		for m := 0; m < NumMets; m++ {
			for r, e := range tops[m].ranked() {
				agg.Keys[c][m][r] = e.key
				agg.Present[c][m][r] = true
				agg.Mets[c][m][r] = e.met
			}
		}
		agg.Distinct[c] = g.hll[c].Estimate()
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
	return agg, errSum, totSum
}

// flushSketch is flush for sketch mode: identical collect-sort-rank shape,
// plus per-minute admission-sketch resets and the error-bound accounting
// behind the relative-error gauge.
func (a *aggregator) flushSketch() {
	total, foot := 0, 0
	for i := range a.shards {
		sk := a.shards[i].sk
		total += len(sk.table)
		foot += sk.footprint()
	}
	groups := make([]*sgroup, 0, total)
	for i := range a.shards {
		sk := a.shards[i].sk
		for _, g := range sk.table {
			groups = append(groups, g)
		}
		clear(sk.table)
		sk.heap = sk.heap[:0]
		sk.tcm.Reset() // admission weights are per-minute
	}
	sort.Slice(groups, func(i, j int) bool {
		return groups[i].target.Compare(groups[j].target) < 0
	})
	if cap(a.errW) < total {
		a.errW = make([]float64, total)
		a.errT = make([]float64, total)
	}
	out := a.grow(total)
	errW, errT := a.errW[:total], a.errT[:total]
	par.ForChunks(a.rankWorkers(total), total, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i], errW[i], errT[i] = groups[i].finish()
		}
	})
	var eW, eT float64
	for i, g := range groups {
		eW += errW[i]
		eT += errT[i]
		sk := a.shards[a.shardIndex(g.target)].sk
		sk.pool = append(sk.pool, g)
	}
	rel := 0.0
	if eT > 0 {
		rel = eW / eT
	}
	a.opt.Metrics.observeFlush(float64(total), float64(foot), rel)
}
