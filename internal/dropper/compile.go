package dropper

import (
	"encoding/binary"
	"math"
	"math/bits"
	"net/netip"
	"sync/atomic"
	"time"

	"github.com/ixp-scrubber/ixpscrubber/internal/acl"
	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/tagging"
)

// The compiled matcher is a bitvector-intersection classifier: every
// dimension (protocol, src port class, dst port class, size bin,
// fragment, dst prefix, src prefix) lowers to a lookup table mapping the
// record's field value to an interned rule bitset — bit i set means "rule
// i's condition on this dimension holds". The AND of the seven per-record
// bitsets is exactly the set of matching rules, and the lowest set bit is
// the first match, reproducing the interpreter's first-match-wins
// priority bit-for-bit.
//
// Bitsets are interned into one flat []uint64 arena (set k occupies words
// [k*words, (k+1)*words)); index 0 is the canonical empty set, so a zero
// table entry short-circuits to a miss before any word is touched. On top
// of that, an 8 KB per-protocol destination-port bitmap (bit q = "some
// rule compatible with this protocol accepts dst port q") rejects the
// common miss in two loads.

// portBits is the 8 KB per-protocol destination-port prefilter bitmap.
type portBits [1024]uint64

func (b *portBits) set(p uint16)       { b[p>>6] |= 1 << (p & 63) }
func (b *portBits) test(p uint16) bool { return b[p>>6]&(1<<(p&63)) != 0 }

// trieNode is one packed LPM node: child indices (-1 = none) plus the
// interned set of rules whose prefix contains every address under this
// node (accumulated down the path, so a lookup needs no backtracking).
type trieNode struct {
	child [2]int32
	set   int32
}

// trie is an LPM prefix trie packed into one node array; nodes[0] is the
// root. An empty rule list still gets a root carrying the wildcard set.
type trie struct {
	nodes []trieNode
}

// lookup descends the address bits, returning the deepest accumulated
// set. bits is 32 or 128; key is the address in network bit order.
func (t *trie) lookup(key []byte, nbits int) int32 {
	cur := int32(0)
	best := t.nodes[0].set
	for d := 0; d < nbits; d++ {
		cur = t.nodes[cur].child[(key[d>>3]>>(7-d&7))&1]
		if cur < 0 {
			break
		}
		best = t.nodes[cur].set
	}
	return best
}

// Program is one immutable compiled match program. All lookup state is
// written before publication and never mutated afterwards (the per-rule
// hit counters are atomic), so Match is safe for any number of concurrent
// readers with no locks and no allocations.
type Program struct {
	rules []Rule
	words int
	sets  []uint64

	protoSet  [256]int32
	srcPort   [65536]int32
	dstPort   [65536]int32
	prefilter [256]*portBits
	// srcWild/dstWild are the port-dimension sets for fragmented records
	// (port conditions never hold on fragments, so only rules without a
	// port condition survive the dimension).
	srcWild, dstWild int32
	// fragTrue is the fragment-dimension set for fragmented records (all
	// live rules), fragFalse for unfragmented ones (rules without a
	// fragment requirement).
	fragTrue, fragFalse int32
	// sizeHi are ascending inclusive upper bounds on tagging.SizeValue;
	// sizeSet[i] is the rule set for sizes ≤ sizeHi[i] (and > sizeHi[i-1]).
	// Adjacent bins with identical sets are merged, so the table is at
	// most 16 entries and usually shorter.
	sizeHi  []uint32
	sizeSet []int32
	// Prefix dimensions: per-family tries plus the "no prefix condition"
	// set used for invalid or zoned record addresses, which netip never
	// considers contained in any prefix.
	srcV4, srcV6, dstV4, dstV6 trie
	srcWildOnly, dstWildOnly   int32

	hits []atomic.Uint64
	byID map[string][]int32

	compileNS int64
}

// bitset helpers over []uint64 little-endian-by-word sets.

func newBits(words int) []uint64 { return make([]uint64, words) }

func setBit(bs []uint64, i int) { bs[i>>6] |= 1 << (i & 63) }

func orBits(dst, src []uint64) {
	for i := range src {
		dst[i] |= src[i]
	}
}

// setBuilder interns bitsets into the flat arena, deduplicating by
// content. Index 0 is always the empty set.
type setBuilder struct {
	words int
	arena []uint64
	idx   map[string]int32
	key   []byte
}

func newSetBuilder(nrules int) *setBuilder {
	words := (nrules + 63) / 64
	if words == 0 {
		words = 1
	}
	b := &setBuilder{
		words: words,
		arena: make([]uint64, words), // set 0 = empty
		idx:   make(map[string]int32),
		key:   make([]byte, words*8),
	}
	b.idx[string(b.key)] = 0
	return b
}

func (b *setBuilder) intern(set []uint64) int32 {
	for i, w := range set {
		binary.LittleEndian.PutUint64(b.key[i*8:], w)
	}
	if id, ok := b.idx[string(b.key)]; ok {
		return id
	}
	id := int32(len(b.arena) / b.words)
	b.arena = append(b.arena, set...)
	b.idx[string(b.key)] = id
	return id
}

func (b *setBuilder) set(id int32) []uint64 {
	return b.arena[int(id)*b.words : (int(id)+1)*b.words]
}

// trieBuilder accumulates prefix insertions before sets are interned.
type trieBuilder struct {
	nodes []tbNode
}

type tbNode struct {
	child [2]int32
	mark  []uint64 // rules whose prefix terminates exactly here
}

func newTrieBuilder() *trieBuilder {
	return &trieBuilder{nodes: []tbNode{{child: [2]int32{-1, -1}}}}
}

func (tb *trieBuilder) insert(key []byte, nbits, rule, words int) {
	cur := int32(0)
	for d := 0; d < nbits; d++ {
		bit := (key[d>>3] >> (7 - d&7)) & 1
		nxt := tb.nodes[cur].child[bit]
		if nxt < 0 {
			nxt = int32(len(tb.nodes))
			tb.nodes = append(tb.nodes, tbNode{child: [2]int32{-1, -1}})
			tb.nodes[cur].child[bit] = nxt
		}
		cur = nxt
	}
	if tb.nodes[cur].mark == nil {
		tb.nodes[cur].mark = newBits(words)
	}
	setBit(tb.nodes[cur].mark, rule)
}

// finish interns the accumulated (inherited ∪ marked) set at every node.
// Nodes without marks reuse the parent's interned index, so the arena
// only grows at prefix terminals.
func (tb *trieBuilder) finish(b *setBuilder, wild []uint64, wildIdx int32) trie {
	out := make([]trieNode, len(tb.nodes))
	var dfs func(n int32, acc []uint64, accIdx int32)
	dfs = func(n int32, acc []uint64, accIdx int32) {
		nd := &tb.nodes[n]
		if nd.mark != nil {
			merged := append([]uint64(nil), acc...)
			orBits(merged, nd.mark)
			acc = merged
			accIdx = b.intern(merged)
		}
		out[n] = trieNode{child: nd.child, set: accIdx}
		if c := nd.child[0]; c >= 0 {
			dfs(c, acc, accIdx)
		}
		if c := nd.child[1]; c >= 0 {
			dfs(c, acc, accIdx)
		}
	}
	dfs(0, wild, wildIdx)
	return trie{nodes: out}
}

// Compile lowers a rule list into a match program. Compilation is total:
// every rule list — including contradictory, dead or unmatchable rules —
// compiles into a program that agrees with the interpreter on every
// record; unmatchable conditions simply never contribute a set bit.
func Compile(rules []Rule) *Program {
	start := time.Now()
	p := &Program{rules: append([]Rule(nil), rules...)}
	n := len(p.rules)
	b := newSetBuilder(n)
	p.words = b.words

	live := newBits(b.words)
	for i := range p.rules {
		if !p.rules[i].Dead {
			setBit(live, i)
		}
	}

	// Protocol dimension: explicit values over a wildcard base. Values
	// above 255 can never equal a record's uint8 protocol, so they are
	// dropped here exactly as the interpreter's != test drops them.
	protoWild := newBits(b.words)
	protoExplicit := make(map[uint32][]int)
	for i := range p.rules {
		r := &p.rules[i]
		if r.Dead {
			continue
		}
		if r.ProtoSet {
			protoExplicit[r.Proto] = append(protoExplicit[r.Proto], i)
		} else {
			setBit(protoWild, i)
		}
	}
	scratch := newBits(b.words)
	for v := 0; v < 256; v++ {
		copy(scratch, protoWild)
		for _, i := range protoExplicit[uint32(v)] {
			setBit(scratch, i)
		}
		p.protoSet[v] = b.intern(scratch)
	}

	// Port dimensions. The table maps every port through its
	// tagging.PortValue class; a condition naming a value no port
	// discretizes to (an unretained literal) lands in no table entry and
	// the rule goes dead on this dimension, matching the interpreter.
	p.srcWild = buildPortDim(b, p.rules, &p.srcPort,
		func(r *Rule) (uint32, bool) { return r.SrcPort, r.SrcPortSet })
	p.dstWild = buildPortDim(b, p.rules, &p.dstPort,
		func(r *Rule) (uint32, bool) { return r.DstPort, r.DstPortSet })

	// Size dimension: 16 bins keyed on tagging.SizeValue, merged into
	// ranges where adjacent bins carry identical sets. Bin 15 is open
	// above (SizeBin clamps), so its bound is MaxUint32 inclusive.
	sizeWild := newBits(b.words)
	sizeBins := make(map[uint32][]int)
	for i := range p.rules {
		r := &p.rules[i]
		if r.Dead {
			continue
		}
		if r.SizeBinSet {
			sizeBins[r.SizeBin] = append(sizeBins[r.SizeBin], i)
		} else {
			setBit(sizeWild, i)
		}
	}
	prev := int32(-1)
	for bin := uint32(0); bin < 16; bin++ {
		copy(scratch, sizeWild)
		for _, i := range sizeBins[bin] {
			setBit(scratch, i)
		}
		id := b.intern(scratch)
		hi := uint32(math.MaxUint32)
		if bin < 15 {
			hi = (bin+1)*tagging.SizeBinWidth - 1
		}
		if id == prev {
			p.sizeHi[len(p.sizeHi)-1] = hi
		} else {
			p.sizeHi = append(p.sizeHi, hi)
			p.sizeSet = append(p.sizeSet, id)
			prev = id
		}
	}

	// Fragment dimension. A fragmented record satisfies every live
	// rule's fragment condition (required-or-absent both hold); an
	// unfragmented one only rules without the requirement.
	fragFalse := newBits(b.words)
	for i := range p.rules {
		r := &p.rules[i]
		if !r.Dead && !r.Fragment {
			setBit(fragFalse, i)
		}
	}
	p.fragTrue = b.intern(live)
	p.fragFalse = b.intern(fragFalse)

	// Prefix dimensions.
	p.dstV4, p.dstV6, p.dstWildOnly = buildPrefixDim(b, p.rules,
		func(r *Rule) netip.Prefix { return r.Dst })
	p.srcV4, p.srcV6, p.srcWildOnly = buildPrefixDim(b, p.rules,
		func(r *Rule) netip.Prefix { return r.Src })

	// Per-protocol destination-port prefilter: bit q is set iff some
	// rule compatible with the protocol accepts dst port q, so a clear
	// bit proves the seven-way AND is empty. Bitmaps are shared between
	// protocols with identical rule sets.
	byProto := make(map[int32]*portBits)
	for v := 0; v < 256; v++ {
		psi := p.protoSet[v]
		if psi == 0 {
			continue
		}
		bm, ok := byProto[psi]
		if !ok {
			bm = &portBits{}
			ps := b.set(psi)
			overlap := make(map[int32]bool)
			for port := 0; port < 65536; port++ {
				ci := p.dstPort[port]
				hit, seen := overlap[ci]
				if !seen {
					cs := b.set(ci)
					for w := range ps {
						if ps[w]&cs[w] != 0 {
							hit = true
							break
						}
					}
					overlap[ci] = hit
				}
				if hit {
					bm.set(uint16(port))
				}
			}
			byProto[psi] = bm
		}
		p.prefilter[v] = bm
	}

	p.sets = b.arena
	p.hits = make([]atomic.Uint64, n)
	p.byID = make(map[string][]int32)
	for i := range p.rules {
		id := p.rules[i].ID
		p.byID[id] = append(p.byID[id], int32(i))
	}
	p.compileNS = time.Since(start).Nanoseconds()
	return p
}

func buildPortDim(b *setBuilder, rules []Rule, table *[65536]int32, cond func(*Rule) (uint32, bool)) int32 {
	wild := newBits(b.words)
	classes := make(map[uint32][]int)
	for i := range rules {
		r := &rules[i]
		if r.Dead {
			continue
		}
		if v, ok := cond(r); ok {
			classes[v] = append(classes[v], i)
		} else {
			setBit(wild, i)
		}
	}
	wildIdx := b.intern(wild)
	classIdx := make(map[uint32]int32, len(classes))
	scratch := newBits(b.words)
	for v, idxs := range classes {
		copy(scratch, wild)
		for _, i := range idxs {
			setBit(scratch, i)
		}
		classIdx[v] = b.intern(scratch)
	}
	for port := 0; port < 65536; port++ {
		if ci, ok := classIdx[tagging.PortValue(uint16(port))]; ok {
			table[port] = ci
		} else {
			table[port] = wildIdx
		}
	}
	return wildIdx
}

func buildPrefixDim(b *setBuilder, rules []Rule, get func(*Rule) netip.Prefix) (v4, v6 trie, wildOnly int32) {
	wild := newBits(b.words)
	tb4, tb6 := newTrieBuilder(), newTrieBuilder()
	for i := range rules {
		r := &rules[i]
		if r.Dead {
			continue
		}
		pfx := get(r)
		if !pfx.IsValid() {
			setBit(wild, i)
			continue
		}
		pfx = pfx.Masked()
		// Family split mirrors netip.Prefix.Contains: a 4-mapped-in-6
		// prefix (BitLen 128) only ever contains 4-in-6 addresses, so it
		// lives in the v6 trie under its 16-byte form.
		if pfx.Addr().Is4() {
			a := pfx.Addr().As4()
			tb4.insert(a[:], pfx.Bits(), i, b.words)
		} else {
			a := pfx.Addr().As16()
			tb6.insert(a[:], pfx.Bits(), i, b.words)
		}
	}
	wildOnly = b.intern(wild)
	return tb4.finish(b, wild, wildOnly), tb6.finish(b, wild, wildOnly), wildOnly
}

// Match returns the index of the first rule matching the record, or -1.
// It performs no allocations and takes no locks; the program is immutable
// so any number of goroutines may match concurrently.
func (p *Program) Match(rec *netflow.Record) int {
	ps := p.protoSet[rec.Protocol]
	if ps == 0 {
		return -1
	}
	var ss, ds, fs int32
	if rec.Fragment {
		ss, ds, fs = p.srcWild, p.dstWild, p.fragTrue
	} else {
		if !p.prefilter[rec.Protocol].test(rec.DstPort) {
			return -1
		}
		ss = p.srcPort[rec.SrcPort]
		ds = p.dstPort[rec.DstPort]
		fs = p.fragFalse
	}
	if ss == 0 || ds == 0 || fs == 0 {
		return -1
	}
	zs := p.sizeSetOf(rec)
	if zs == 0 {
		return -1
	}
	dx := p.prefixSet(&p.dstV4, &p.dstV6, p.dstWildOnly, rec.DstIP)
	if dx == 0 {
		return -1
	}
	sx := p.prefixSet(&p.srcV4, &p.srcV6, p.srcWildOnly, rec.SrcIP)
	if sx == 0 {
		return -1
	}
	w := p.words
	s1 := p.sets[int(ps)*w:]
	s2 := p.sets[int(ss)*w:]
	s3 := p.sets[int(ds)*w:]
	s4 := p.sets[int(fs)*w:]
	s5 := p.sets[int(zs)*w:]
	s6 := p.sets[int(dx)*w:]
	s7 := p.sets[int(sx)*w:]
	for i := 0; i < w; i++ {
		x := s1[i] & s2[i] & s3[i] & s4[i] & s5[i] & s6[i] & s7[i]
		if x != 0 {
			return i*64 + bits.TrailingZeros64(x)
		}
	}
	return -1
}

func (p *Program) sizeSetOf(rec *netflow.Record) int32 {
	s := tagging.SizeValue(rec.MeanPacketSize())
	lo, hi := 0, len(p.sizeHi)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s <= p.sizeHi[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return p.sizeSet[lo]
}

func (p *Program) prefixSet(v4, v6 *trie, wildOnly int32, ip netip.Addr) int32 {
	// netip never considers an invalid or zoned address contained in any
	// prefix, so only unscoped rules can match such a record.
	if !ip.IsValid() || ip.Zone() != "" {
		return wildOnly
	}
	if ip.Is4() {
		a := ip.As4()
		return v4.lookup(a[:], 32)
	}
	a := ip.As16()
	return v6.lookup(a[:], 128)
}

// Rules returns a copy of the program's rule list in priority order.
func (p *Program) Rules() []Rule { return append([]Rule(nil), p.rules...) }

// Len returns the number of rules (dead ones included — indices align
// with the verdict stream).
func (p *Program) Len() int { return len(p.rules) }

// Action returns the action of rule idx.
func (p *Program) Action(idx int) acl.Action { return p.rules[idx].Action }

// CompileNanos reports how long Compile took for this program.
func (p *Program) CompileNanos() int64 { return p.compileNS }

// RuleHits returns the per-rule match-hit counters accumulated while this
// program was live, aligned with Rules().
func (p *Program) RuleHits() []uint64 {
	out := make([]uint64, len(p.hits))
	for i := range p.hits {
		out[i] = p.hits[i].Load()
	}
	return out
}
