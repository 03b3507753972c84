package sketch

// Entry is one monitored key of a space-saving summary. W holds the summary's
// (over-)estimate of the key's accumulated bytes and packets; E holds the
// per-counter error bound inherited at admission time, so W-E is a guaranteed
// lower bound on the true totals.
type Entry struct {
	Key uint64
	W   [2]uint64 // estimated totals: bytes, packets
	E   [2]uint64 // admission error bounds: bytes, packets
}

// SpaceSaving is the Metwally stream-summary: at most K monitored keys, with
// the guarantee that any key whose true primary weight exceeds total/K is
// monitored, and every estimate over-counts by at most the admission error
// recorded in E. Both byte and packet totals are carried per entry; eviction
// is driven by the primary counter chosen at construction.
//
// Determinism: eviction victims are the minimum primary weight with ties
// broken by smallest key, so the summary is a pure function of the update
// sequence.
type SpaceSaving struct {
	k       int
	primary int // 0 = bytes, 1 = packets
	entries []Entry
	idx     map[uint64]int32

	minStale bool
	minIdx   int32
}

// NewSpaceSaving returns a summary monitoring at most k keys, evicting by
// primary counter (0 = bytes, 1 = packets).
func NewSpaceSaving(k, primary int) *SpaceSaving {
	if k < 1 {
		k = 1
	}
	if primary != 0 {
		primary = 1
	}
	return &SpaceSaving{
		k:        k,
		primary:  primary,
		entries:  make([]Entry, 0, k),
		idx:      make(map[uint64]int32, k),
		minStale: true,
	}
}

// K returns the summary capacity.
func (s *SpaceSaving) K() int { return s.k }

// Len returns the number of monitored keys.
func (s *SpaceSaving) Len() int { return len(s.entries) }

// Entries exposes the monitored set (unordered, aliased — callers must not
// retain across updates).
func (s *SpaceSaving) Entries() []Entry { return s.entries }

// Has reports whether key is currently monitored.
func (s *SpaceSaving) Has(key uint64) bool {
	_, ok := s.idx[key]
	return ok
}

// Min returns the smallest primary weight among monitored keys (0 when the
// summary is not yet full): the admission bar a new key must clear.
func (s *SpaceSaving) Min() uint64 {
	if len(s.entries) < s.k {
		return 0
	}
	return s.entries[s.minVictim()].W[s.primary]
}

// minVictim returns the index of the eviction victim: minimum primary
// weight, ties broken by smallest key.
func (s *SpaceSaving) minVictim() int32 {
	if !s.minStale {
		return s.minIdx
	}
	best := int32(0)
	for i := 1; i < len(s.entries); i++ {
		ei, eb := &s.entries[i], &s.entries[best]
		if ei.W[s.primary] < eb.W[s.primary] ||
			(ei.W[s.primary] == eb.W[s.primary] && ei.Key < eb.Key) {
			best = int32(i)
		}
	}
	s.minIdx, s.minStale = best, false
	return best
}

// Touch adds (bytes, pkts) to an already-monitored key and reports whether
// the key was monitored. It is the hot path: one map probe, no admission.
func (s *SpaceSaving) Touch(key uint64, bytes, pkts uint64) bool {
	i, ok := s.idx[key]
	if !ok {
		return false
	}
	e := &s.entries[i]
	e.W[0] += bytes
	e.W[1] += pkts
	if i == s.minIdx {
		s.minStale = true
	}
	return true
}

// Add updates key by (bytes, pkts), admitting it if unmonitored: into a free
// slot while the summary is filling, else by evicting the minimum entry and
// inheriting its counters as the admission error (the classic space-saving
// rule, applied to both counters).
func (s *SpaceSaving) Add(key uint64, bytes, pkts uint64) {
	if s.Touch(key, bytes, pkts) {
		return
	}
	if len(s.entries) < s.k {
		s.idx[key] = int32(len(s.entries))
		s.entries = append(s.entries, Entry{Key: key, W: [2]uint64{bytes, pkts}})
		s.minStale = true
		return
	}
	v := s.minVictim()
	e := &s.entries[v]
	delete(s.idx, e.Key)
	s.idx[key] = v
	*e = Entry{Key: key, W: [2]uint64{e.W[0] + bytes, e.W[1] + pkts}, E: e.W}
	s.minStale = true
}

// WillEvict reports whether Add(key, ...) would evict a monitored entry:
// the summary is full and key is not monitored. Callers use it to snapshot
// exact pre-eviction state before the first lossy update.
func (s *SpaceSaving) WillEvict(key uint64) bool {
	if len(s.entries) < s.k {
		return false
	}
	_, ok := s.idx[key]
	return !ok
}

// clearIdx empties the key index. Deleting the handful of live keys beats a
// full map clear for the sparsely-used summaries a fresh minute leaves behind.
func (s *SpaceSaving) clearIdx() {
	if len(s.entries) <= 16 {
		for i := range s.entries {
			delete(s.idx, s.entries[i].Key)
		}
	} else {
		clear(s.idx)
	}
}

// CopyFrom replaces s's monitored set with o's — entries in o's insertion
// order, so the copy evolves exactly as o would — while keeping s's own
// capacity and primary counter. o must not hold more entries than s's
// capacity.
func (s *SpaceSaving) CopyFrom(o *SpaceSaving) {
	s.clearIdx()
	s.entries = append(s.entries[:0], o.entries...)
	for i := range s.entries {
		s.idx[s.entries[i].Key] = int32(i)
	}
	s.minStale = true
	s.minIdx = 0
}

// Reset empties the summary, keeping its allocations.
func (s *SpaceSaving) Reset() {
	s.clearIdx()
	s.entries = s.entries[:0]
	s.minStale = true
	s.minIdx = 0
}

// Footprint returns the steady-state heap bytes of the entry array and index.
func (s *SpaceSaving) Footprint() int {
	// Entry is 48 bytes; a map slot for (uint64, int32) costs roughly 16
	// bytes plus bucket overhead — 24 is a fair amortized figure.
	return s.k * (48 + 24)
}
