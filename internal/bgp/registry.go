package bgp

import (
	"net/netip"
	"sort"
	"sync"
)

// Registry tracks which prefixes are blackholed at which times. It is the
// labeling oracle of the pipeline: the collector asks it, for every sampled
// flow, whether the destination IP was covered by an active blackhole
// announcement at the flow's timestamp (§3, "capturing blackholing traffic").
//
// The registry records announce/withdraw intervals so that offline datasets
// can be labeled after the fact: flows are matched against the announcement
// windows overlapping their timestamp, not just the current table state.
// Registry is safe for concurrent use.
type Registry struct {
	mu sync.RWMutex
	// byPrefix holds the announcement intervals of each prefix in insertion
	// order; intervals are non-overlapping per prefix.
	byPrefix map[netip.Prefix][]interval
	// active counts currently-announced (not yet withdrawn) prefixes.
	active map[netip.Prefix]int
	// lengths counts distinct prefixes per prefix length, so Covered only
	// probes the handful of lengths actually in use (blackholes are almost
	// always /32) instead of scanning every prefix.
	lengths map[int]int
}

type interval struct {
	from int64 // unix seconds, inclusive
	to   int64 // unix seconds, exclusive; 0 while still active
}

// NewRegistry returns an empty Registry.
func NewRegistry() *Registry {
	return &Registry{
		byPrefix: make(map[netip.Prefix][]interval),
		active:   make(map[netip.Prefix]int),
		lengths:  make(map[int]int),
	}
}

// Announce records that prefix is blackholed starting at the given unix
// time. Repeated announcements of an already-active prefix are idempotent.
func (r *Registry) Announce(prefix netip.Prefix, at int64) {
	prefix = prefix.Masked()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.active[prefix] > 0 {
		return
	}
	r.active[prefix] = 1
	if len(r.byPrefix[prefix]) == 0 {
		r.lengths[prefix.Bits()]++
	}
	r.byPrefix[prefix] = append(r.byPrefix[prefix], interval{from: at})
}

// Withdraw records that the blackhole for prefix ended at the given unix
// time. Withdrawing an inactive prefix is a no-op.
func (r *Registry) Withdraw(prefix netip.Prefix, at int64) {
	prefix = prefix.Masked()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.active[prefix] == 0 {
		return
	}
	delete(r.active, prefix)
	ivs := r.byPrefix[prefix]
	last := &ivs[len(ivs)-1]
	if at < last.from {
		at = last.from
	}
	last.to = at
}

// ApplyUpdate folds a decoded UPDATE into the registry: blackhole-tagged
// NLRI become announcements, withdrawn routes become withdrawals. Updates
// without the BLACKHOLE community are ignored except for their withdrawals
// (a withdrawal carries no communities).
func (r *Registry) ApplyUpdate(u *Update, at int64) {
	for _, p := range u.Withdrawn {
		r.Withdraw(p, at)
	}
	if !u.IsBlackhole() {
		return
	}
	for _, p := range u.NLRI {
		r.Announce(p, at)
	}
}

// Covered reports whether ip was covered by an active blackhole at the given
// unix time. Matching considers all prefix lengths that have ever been
// announced (blackholes are typically /32s but the registry supports any
// length).
func (r *Registry) Covered(ip netip.Addr, at int64) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for bits := range r.lengths {
		p, err := ip.Unmap().Prefix(bits)
		if err != nil {
			continue // prefix length does not fit the address family
		}
		for _, iv := range r.byPrefix[p] {
			if at >= iv.from && (iv.to == 0 || at < iv.to) {
				return true
			}
		}
	}
	return false
}

// ActiveAt returns the prefixes blackholed at the given unix time, sorted.
func (r *Registry) ActiveAt(at int64) []netip.Prefix {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []netip.Prefix
	for prefix, ivs := range r.byPrefix {
		for _, iv := range ivs {
			if at >= iv.from && (iv.to == 0 || at < iv.to) {
				out = append(out, prefix)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if c := out[i].Addr().Compare(out[j].Addr()); c != 0 {
			return c < 0
		}
		return out[i].Bits() < out[j].Bits()
	})
	return out
}

// ActiveCount returns the number of currently-announced blackholes.
func (r *Registry) ActiveCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.active)
}

// PrefixCount returns the number of distinct prefixes ever blackholed.
func (r *Registry) PrefixCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byPrefix)
}
