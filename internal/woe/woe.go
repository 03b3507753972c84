// Package woe implements Weight of Evidence encoding of categorical
// features (§5.2.2): every categorical value x (source IP, port, member
// MAC, protocol) maps to WoE(x) = ln(P(X=x | y=1) / P(X=x | y=0)) with
// add-one smoothing, where y is the blackhole label.
//
// The encoder is the model's long-term memory of suspicious ports,
// reflector IPs and DDoS-prone member ports, and it encapsulates the
// *local* knowledge of a vantage point: transferring a classifier while
// keeping the local encoder is what makes models geographically portable
// (§6.4).
package woe

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/netip"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Encoder accumulates per-domain value counts under both labels and maps
// values to their WoE. Observe/Fit may be interleaved: WoE values are
// recomputed lazily after new observations.
//
// The read path is lock-free: Fit publishes the fitted tables (with
// overrides folded in) as an immutable snapshot behind an atomic pointer,
// so WoE in the predict hot loop is a plain map read with no mutex
// acquisition. Observe, Override and the other mutators take the mutex,
// update the counts and invalidate or republish the snapshot; a WoE call
// that finds no snapshot falls back to the locked path and publishes one.
// All paths are safe for concurrent use, though a read racing an Observe
// may see the previous fit (the same lag a locked lazy refit would show).
type Encoder struct {
	// Smoothing is the pseudocount added to both counts of the WoE ratio
	// (the paper's division-by-zero guard uses 1.0, the default). Larger
	// values shrink rarely-seen values toward neutral, which stabilizes
	// training on small corpora where single observations would otherwise
	// inject ±0.7 of label noise per value.
	Smoothing float64
	// MinCount is the evidence floor: values observed fewer than MinCount
	// times encode as neutral 0.0, exactly like unknown values at
	// prediction time. Tree models are scale-invariant, so shrinking noisy
	// singletons is not enough — they must be indistinguishable from
	// unknowns. Zero means no floor (every observation counts).
	MinCount int

	mu      sync.RWMutex
	domains map[string]*domain
	// overrides pins values to operator-chosen WoE (white/blacklisting,
	// §6.6); they survive refits.
	overrides map[string]map[uint64]float64
	posTotal  uint64
	negTotal  uint64
	dirty     bool

	// snap is the published read-only view: per-domain WoE maps with
	// overrides already applied. It is replaced wholesale on every fit or
	// override change and never mutated in place, so readers need no lock.
	snap atomic.Pointer[snapshot]
}

// snapshot is an immutable fitted view. The maps are built fresh on every
// publish and must never be written after the pointer is stored.
type snapshot struct {
	domains map[string]map[uint64]float64
}

type domain struct {
	pos map[uint64]uint64
	neg map[uint64]uint64
	woe map[uint64]float64
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder {
	return &Encoder{
		domains:   make(map[string]*domain),
		overrides: make(map[string]map[uint64]float64),
	}
}

func (e *Encoder) domain(name string) *domain {
	d := e.domains[name]
	if d == nil {
		d = &domain{
			pos: make(map[uint64]uint64),
			neg: make(map[uint64]uint64),
			woe: make(map[uint64]float64),
		}
		e.domains[name] = d
	}
	return d
}

// Observe counts one occurrence of value key in the domain under the label.
func (e *Encoder) Observe(domainName string, key uint64, label bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.count(e.domain(domainName), key, label)
	e.dirty = true
	e.snap.Store(nil) // stale: readers fall back to the locked path
}

// count adds one observation to d; the caller holds mu.
func (e *Encoder) count(d *domain, key uint64, label bool) {
	if label {
		d.pos[key]++
		e.posTotal++
	} else {
		d.neg[key]++
		e.negTotal++
	}
}

// ObserveBatch counts a batch of observations under one acquisition of the
// encoder lock: fill receives a Tally over the named domains and calls
// Observe on it once per observation. The counts, totals and saved bytes
// are those of the same Encoder.Observe calls made one by one. fill runs
// under the lock, so it must not call the encoder's own methods.
func (e *Encoder) ObserveBatch(domains []string, fill func(*Tally)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t := Tally{e: e, names: domains, ds: make([]*domain, len(domains))}
	fill(&t)
	if t.n > 0 {
		e.dirty = true
		e.snap.Store(nil)
	}
}

// Tally counts observations into an encoder for the duration of one
// ObserveBatch call; it must not be kept past it.
type Tally struct {
	e     *Encoder
	names []string
	ds    []*domain // resolved on first use, like Observe's lazy creation
	n     int
}

// Observe counts one occurrence of key in the d-th domain of the batch.
func (t *Tally) Observe(d int, key uint64, label bool) {
	dom := t.ds[d]
	if dom == nil {
		dom = t.e.domain(t.names[d])
		t.ds[d] = dom
	}
	t.e.count(dom, key, label)
	t.n++
}

// Fit recomputes the WoE mapping from the accumulated counts.
func (e *Encoder) Fit() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.fitLocked()
}

// EnsureFitted refits only if observations arrived since the last Fit.
// Callers fanning WoE lookups across workers call this first so the lazy
// refit inside WoE never serializes the parallel region.
func (e *Encoder) EnsureFitted() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dirty {
		e.fitLocked()
	}
}

func (e *Encoder) fitLocked() {
	base := e.Smoothing
	if base <= 0 {
		base = 1
	}
	alpha := base
	pt, nt := float64(e.posTotal), float64(e.negTotal)
	for _, d := range e.domains {
		for k := range d.woe {
			delete(d.woe, k)
		}
		for k := range d.pos {
			if int(d.pos[k]+d.neg[k]) < e.MinCount {
				continue // below the evidence floor: neutral like unknowns
			}
			d.woe[k] = woeValue(float64(d.pos[k]), float64(d.neg[k]), pt, nt, alpha)
		}
		for k := range d.neg {
			if _, ok := d.woe[k]; ok {
				continue
			}
			if int(d.pos[k]+d.neg[k]) < e.MinCount {
				continue
			}
			d.woe[k] = woeValue(0, float64(d.neg[k]), pt, nt, alpha)
		}
	}
	e.dirty = false
	e.publishLocked()
}

// publishLocked rebuilds and stores the immutable read snapshot from the
// fitted tables and overrides. The per-domain maps are fresh copies:
// fitLocked reuses the working d.woe maps across fits, so aliasing them
// into the snapshot would let a later fit mutate what readers hold.
func (e *Encoder) publishLocked() {
	s := &snapshot{domains: make(map[string]map[uint64]float64, len(e.domains))}
	for name, d := range e.domains {
		m := make(map[uint64]float64, len(d.woe)+len(e.overrides[name]))
		for k, w := range d.woe {
			m[k] = w
		}
		s.domains[name] = m
	}
	for name, ov := range e.overrides {
		m := s.domains[name]
		if m == nil {
			m = make(map[uint64]float64, len(ov))
			s.domains[name] = m
		}
		for k, w := range ov {
			m[k] = w
		}
	}
	e.snap.Store(s)
}

// ensureSnapshot returns a published snapshot, fitting first if
// observations arrived since the last fit.
func (e *Encoder) ensureSnapshot() *snapshot {
	if s := e.snap.Load(); s != nil {
		return s
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if s := e.snap.Load(); s != nil {
		return s // another goroutine published while we waited
	}
	if e.dirty {
		e.fitLocked()
	} else {
		e.publishLocked()
	}
	return e.snap.Load()
}

// woeValue computes ln(P(x|1)/P(x|0)) with additive smoothing of the counts
// (the paper's division-by-zero guard uses alpha = 1).
func woeValue(pos, neg, posTotal, negTotal, alpha float64) float64 {
	p1 := (pos + alpha) / (posTotal + alpha)
	p0 := (neg + alpha) / (negTotal + alpha)
	return math.Log(p1 / p0)
}

// WoE returns the encoding of a value; unknown values encode as 0.0
// (neutral), as during prediction in the paper. The hot path is two map
// reads on the published snapshot — no locks; a missing key yields the
// map's float64 zero value, which is exactly the neutral encoding.
func (e *Encoder) WoE(domainName string, key uint64) float64 {
	s := e.snap.Load()
	if s == nil {
		s = e.ensureSnapshot()
	}
	return s.domains[domainName][key]
}

// Override pins a value's WoE regardless of observations — the operator
// control of §6.6 (e.g. whitelisting a source IP with a strongly negative
// WoE, or pinning DDoS service ports positive).
func (e *Encoder) Override(domainName string, key uint64, woe float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ov := e.overrides[domainName]
	if ov == nil {
		ov = make(map[uint64]float64)
		e.overrides[domainName] = ov
	}
	ov[key] = woe
	if e.snap.Load() != nil {
		e.publishLocked() // fold the new pin into the read snapshot
	}
}

// ClearOverride removes a pinned value.
func (e *Encoder) ClearOverride(domainName string, key uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ov, ok := e.overrides[domainName]; ok {
		delete(ov, key)
		if e.snap.Load() != nil {
			e.publishLocked() // drop the pin from the read snapshot
		}
	}
}

// Domains lists the fitted domains sorted by name.
func (e *Encoder) Domains() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.domains))
	for name := range e.domains {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Above returns the keys of a domain whose WoE exceeds the threshold — the
// "reflector knowledge" view used for the cross-IXP overlap analysis
// (Fig. 12, middle: WoE > 1.0 means e times more likely inside the
// blackhole).
func (e *Encoder) Above(domainName string, threshold float64) []uint64 {
	e.mu.RLock()
	if e.dirty {
		e.mu.RUnlock()
		e.Fit()
		e.mu.RLock()
	}
	defer e.mu.RUnlock()
	d, ok := e.domains[domainName]
	if !ok {
		return nil
	}
	var out []uint64
	for k, w := range d.woe {
		if w > threshold {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Overlap computes the Jaccard-style overlap of two encoders' high-WoE keys
// in one domain: |A ∩ B| / |A ∪ B|.
func Overlap(a, b *Encoder, domainName string, threshold float64) float64 {
	ka := a.Above(domainName, threshold)
	kb := b.Above(domainName, threshold)
	if len(ka) == 0 && len(kb) == 0 {
		return 0
	}
	set := make(map[uint64]bool, len(ka))
	for _, k := range ka {
		set[k] = true
	}
	inter := 0
	for _, k := range kb {
		if set[k] {
			inter++
		}
	}
	return float64(inter) / float64(len(ka)+len(kb)-inter)
}

// Merge folds the counts of another encoder into this one (training a
// joint encoder over several vantage points).
func (e *Encoder) Merge(other *Encoder) {
	other.mu.RLock()
	defer other.mu.RUnlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	for name, od := range other.domains {
		d := e.domain(name)
		for k, c := range od.pos {
			d.pos[k] += c
		}
		for k, c := range od.neg {
			d.neg[k] += c
		}
	}
	e.posTotal += other.posTotal
	e.negTotal += other.negTotal
	e.dirty = true
	e.snap.Store(nil)
}

// Fingerprint returns a deterministic 64-bit digest of the encoder's
// accumulated counts and overrides: same observations → same fingerprint,
// regardless of map iteration order or when Fit ran. The model registry
// records it in bundle manifests so an importer can tell whether a
// classifier-only bundle was trained against the same local knowledge it is
// about to be re-bound to.
func (e *Encoder) Fingerprint() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	// FNV-1a over a canonical byte stream: totals, then domains sorted by
	// name, then each domain's keys sorted numerically with both counts.
	const (
		offset64 = 0xcbf29ce484222325
		prime64  = 0x100000001b3
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], v)
		for _, c := range b {
			h ^= uint64(c)
			h *= prime64
		}
	}
	mixStr := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		h ^= 0xff // terminator so "ab"+"c" != "a"+"bc"
		h *= prime64
	}
	mix(e.posTotal)
	mix(e.negTotal)
	names := make([]string, 0, len(e.domains))
	for name := range e.domains {
		names = append(names, name)
	}
	sort.Strings(names)
	keys := make([]uint64, 0, 64)
	for _, name := range names {
		d := e.domains[name]
		mixStr(name)
		keys = keys[:0]
		for k := range d.pos {
			keys = append(keys, k)
		}
		for k := range d.neg {
			if _, ok := d.pos[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			mix(k)
			mix(d.pos[k])
			mix(d.neg[k])
		}
	}
	ovNames := make([]string, 0, len(e.overrides))
	for name, ov := range e.overrides {
		if len(ov) > 0 {
			ovNames = append(ovNames, name)
		}
	}
	sort.Strings(ovNames)
	for _, name := range ovNames {
		ov := e.overrides[name]
		mixStr(name)
		keys = keys[:0]
		for k := range ov {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			mix(k)
			mix(math.Float64bits(ov[k]))
		}
	}
	return h
}

// Key helpers: stable uint64 keys for the categorical value types.

// KeyAddr keys an IP address.
func KeyAddr(a netip.Addr) uint64 {
	if a.Is4() || a.Is4In6() {
		b := a.Unmap().As4()
		return uint64(binary.BigEndian.Uint32(b[:]))
	}
	b := a.As16()
	return binary.BigEndian.Uint64(b[:8]) ^ binary.BigEndian.Uint64(b[8:])<<1 | 1<<63
}

// KeyMAC keys a hardware address.
func KeyMAC(m [6]byte) uint64 {
	return uint64(m[0])<<40 | uint64(m[1])<<32 | uint64(m[2])<<24 |
		uint64(m[3])<<16 | uint64(m[4])<<8 | uint64(m[5])
}

// KeyPort keys a transport port.
func KeyPort(p uint16) uint64 { return uint64(p) }

// KeyProto keys an IP protocol number.
func KeyProto(p uint8) uint64 { return uint64(p) }

// Serialization model: the raw per-label counts plus overrides. Shipping
// counts (rather than fitted WoE values) keeps the encoder's long-term
// memory alive across restarts and lets a receiver continue observing.

type domainJSON struct {
	Pos map[string]uint64 `json:"pos"`
	Neg map[string]uint64 `json:"neg"`
}

type encoderJSON struct {
	PosTotal  uint64                        `json:"pos_total"`
	NegTotal  uint64                        `json:"neg_total"`
	Domains   map[string]domainJSON         `json:"domains"`
	Overrides map[string]map[string]float64 `json:"overrides,omitempty"`
}

func countsFromJSON(m map[string]uint64, dst map[uint64]uint64) error {
	for ks, v := range m {
		k, err := strconv.ParseUint(ks, 10, 64)
		if err != nil {
			return fmt.Errorf("woe: bad key %q: %w", ks, err)
		}
		dst[k] = v
	}
	return nil
}

// Save writes the encoder state as JSON, byte for byte what
// json.NewEncoder(w).Encode of an encoderJSON produces (object keys in
// string order, a trailing newline): model bundles embed it, and a bundle's
// content hash is its registry id. It is written by hand because a bundle
// is saved inside every checkpointed training round, and reflecting over a
// string-keyed copy of every count map was most of that save.
func (e *Encoder) Save(w io.Writer) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	keys := 0
	names := make([]string, 0, len(e.domains))
	for name, d := range e.domains {
		names = append(names, name)
		keys += len(d.pos) + len(d.neg)
	}
	sort.Strings(names)
	b := make([]byte, 0, 256+16*keys) // `"3232235777":12,` — a v4 address and a count
	b = append(b, `{"pos_total":`...)
	b = strconv.AppendUint(b, e.posTotal, 10)
	b = append(b, `,"neg_total":`...)
	b = strconv.AppendUint(b, e.negTotal, 10)
	b = append(b, `,"domains":{`...)
	var sorted []entry[uint64] // scratch shared by every count map
	for i, name := range names {
		d := e.domains[name]
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, name)
		b = append(b, `:{"pos":{`...)
		sorted = sortDecimal(sorted, d.pos)
		b = appendCounts(b, sorted)
		b = append(b, `},"neg":{`...)
		sorted = sortDecimal(sorted, d.neg)
		b = appendCounts(b, sorted)
		b = append(b, "}}"...)
	}
	b = append(b, '}')

	names = names[:0]
	for name, ov := range e.overrides {
		if len(ov) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for i, name := range names {
		if i == 0 {
			b = append(b, `,"overrides":{`...) // omitempty: only with a pin
		} else {
			b = append(b, ',')
		}
		b = appendJSONString(b, name)
		b = append(b, ":{"...)
		for j, pin := range sortDecimal(nil, e.overrides[name]) {
			if j > 0 {
				b = append(b, ',')
			}
			b = appendKey(b, pin.key)
			// Pins are a handful of operator-set floats: let encoding/json
			// format them (and refuse NaN and Inf) as it always has.
			f, err := json.Marshal(pin.val)
			if err != nil {
				return fmt.Errorf("woe: saving encoder: %w", err)
			}
			b = append(b, f...)
		}
		b = append(b, '}')
	}
	if len(names) > 0 {
		b = append(b, '}')
	}
	b = append(b, "}\n"...)
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("woe: saving encoder: %w", err)
	}
	return nil
}

// entry is one map entry on its way into a JSON object.
type entry[V any] struct {
	key uint64
	val V
}

// sortDecimal returns m's entries in the string order of their keys'
// decimal forms, the order encoding/json writes object keys in ("10" <
// "9"), using buf as scratch. Keys with equally many digits order as numbers, so one numeric
// sort leaves a run per digit count that is already in string order; the
// runs are then merged on the keys' first 19 digits, left-justified and
// zero-padded. Equal there means one string is the other plus trailing
// digits, and the shorter string — the earlier run — goes first.
func sortDecimal[V any](buf []entry[V], m map[uint64]V) []entry[V] {
	n := len(m)
	buf = slices.Grow(buf[:0], 2*n)
	out, keys := buf[:0], buf[n:n] // merged front half, sorted back half
	for k, v := range m {
		keys = append(keys, entry[V]{k, v})
	}
	radixSort(keys, buf[:n])

	type run struct {
		keys []entry[V]
		pad  uint64 // 10^(19-digits); 0 for the 20-digit run
		head uint64 // padded first key
	}
	padded := func(r *run) {
		if r.head = r.keys[0].key * r.pad; r.pad == 0 {
			r.head = r.keys[0].key / 10
		}
	}
	var store [20]run
	runs := store[:0] // the non-empty ones, fewest digits first
	for d := 0; d < 20 && len(keys) > 0; d++ {
		r := run{keys: keys}
		if d < 19 {
			cut, _ := slices.BinarySearchFunc(keys, pow10[d+1],
				func(e entry[V], limit uint64) int { return cmp.Compare(e.key, limit) })
			r.keys, r.pad = keys[:cut], pow10[18-d]
		}
		if keys = keys[len(r.keys):]; len(r.keys) > 0 {
			padded(&r)
			runs = append(runs, r)
		}
	}
	for len(out) < n {
		var first *run
		for i := range runs {
			if r := &runs[i]; len(r.keys) > 0 && (first == nil || r.head < first.head) {
				first = r
			}
		}
		out = append(out, first.keys[0])
		if first.keys = first.keys[1:]; len(first.keys) > 0 {
			padded(first)
		}
	}
	return out
}

// radixSort sorts entries by key, one byte per pass from the least
// significant up to the highest byte any key uses, scattering between keys
// and scratch (as long, not overlapping). WoE keys are ports, protocols
// and v4 addresses: two to four passes, against a comparison sort's
// sixteen-odd levels.
func radixSort[V any](keys, scratch []entry[V]) {
	var used uint64
	for _, e := range keys {
		used |= e.key
	}
	from, to, inScratch := keys, scratch, false
	for shift := 0; shift < 64 && used>>shift != 0; shift += 8 {
		var next [256]int
		for _, e := range from {
			next[e.key>>shift&0xff]++
		}
		at := 0
		for b, c := range next {
			next[b], at = at, at+c
		}
		for _, e := range from {
			b := e.key >> shift & 0xff
			to[next[b]] = e
			next[b]++
		}
		from, to, inScratch = to, from, !inScratch
	}
	if inScratch {
		copy(keys, scratch)
	}
}

var pow10 = [20]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

func appendCounts(b []byte, counts []entry[uint64]) []byte {
	for i, c := range counts {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendKey(b, c.key)
		b = strconv.AppendUint(b, c.val, 10)
	}
	return b
}

func appendKey(b []byte, k uint64) []byte {
	b = append(b, '"')
	b = strconv.AppendUint(b, k, 10)
	return append(b, '"', ':')
}

// appendJSONString appends s as encoding/json quotes it (HTML-escaped).
func appendJSONString(b []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always marshals
	return append(b, q...)
}

// Load reads an encoder saved with Save. The result carries full counts, so
// further Observe calls extend the loaded statistics.
func Load(r io.Reader) (*Encoder, error) {
	var in encoderJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("woe: loading encoder: %w", err)
	}
	e := NewEncoder()
	e.posTotal, e.negTotal = in.PosTotal, in.NegTotal
	for name, dj := range in.Domains {
		d := e.domain(name)
		if err := countsFromJSON(dj.Pos, d.pos); err != nil {
			return nil, err
		}
		if err := countsFromJSON(dj.Neg, d.neg); err != nil {
			return nil, err
		}
	}
	for name, m := range in.Overrides {
		for ks, v := range m {
			k, err := strconv.ParseUint(ks, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("woe: bad override key %q in %s: %w", ks, name, err)
			}
			e.Override(name, k, v)
		}
	}
	e.dirty = true
	return e, nil
}
