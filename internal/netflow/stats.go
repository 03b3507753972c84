package netflow

import (
	"fmt"
	"net/netip"
	"sort"
)

// Stats accumulates dataset-level statistics over a stream of flow records.
// It backs the Table 2 columns (record counts, blackhole share) and the
// Figure 3a/3c series (per-minute traffic shares, flows per unique IP).
type Stats struct {
	Records        uint64
	Blackholed     uint64
	Packets        uint64
	Bytes          uint64
	BlackholeBytes uint64

	minutes map[int64]*MinuteStats
}

// MinuteStats aggregates one one-minute bin.
type MinuteStats struct {
	Minute         int64
	Records        uint64
	Bytes          uint64
	BlackholeBytes uint64
	BenignFlows    uint64
	BlackholeFlows uint64
	benignIPs      map[netip.Addr]struct{}
	blackholeIPs   map[netip.Addr]struct{}
}

// UniqueBenignIPs returns the number of distinct benign destination IPs.
func (m *MinuteStats) UniqueBenignIPs() int { return len(m.benignIPs) }

// UniqueBlackholeIPs returns the number of distinct blackholed destination
// IPs.
func (m *MinuteStats) UniqueBlackholeIPs() int { return len(m.blackholeIPs) }

// Add folds one record into the statistics.
func (s *Stats) Add(r *Record) {
	s.Records++
	s.Packets += r.Packets
	s.Bytes += r.Bytes
	if r.Blackholed {
		s.Blackholed++
		s.BlackholeBytes += r.Bytes
	}
	if s.minutes == nil {
		s.minutes = make(map[int64]*MinuteStats)
	}
	min := r.Minute()
	ms := s.minutes[min]
	if ms == nil {
		ms = &MinuteStats{
			Minute:       min,
			benignIPs:    make(map[netip.Addr]struct{}),
			blackholeIPs: make(map[netip.Addr]struct{}),
		}
		s.minutes[min] = ms
	}
	ms.Records++
	ms.Bytes += r.Bytes
	if r.Blackholed {
		ms.BlackholeBytes += r.Bytes
		ms.BlackholeFlows++
		ms.blackholeIPs[r.DstIP] = struct{}{}
	} else {
		ms.BenignFlows++
		ms.benignIPs[r.DstIP] = struct{}{}
	}
}

// BlackholeShare returns the overall fraction of blackholed records.
func (s *Stats) BlackholeShare() float64 {
	if s.Records == 0 {
		return 0
	}
	return float64(s.Blackholed) / float64(s.Records)
}

// Minutes returns per-minute statistics ordered by minute.
func (s *Stats) Minutes() []*MinuteStats {
	out := make([]*MinuteStats, 0, len(s.minutes))
	for _, m := range s.minutes {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Minute < out[j].Minute })
	return out
}

// FlowsPerIPPoints returns, per minute bin, the pair (blackhole flows per
// unique blackholed IP, benign flows per unique benign IP) — the scatter of
// Figure 3c. Bins missing either class are skipped.
func (s *Stats) FlowsPerIPPoints() (bh, benign []float64) {
	for _, m := range s.Minutes() {
		nb, nh := m.UniqueBenignIPs(), m.UniqueBlackholeIPs()
		if nb == 0 || nh == 0 {
			continue
		}
		bh = append(bh, float64(m.BlackholeFlows)/float64(nh))
		benign = append(benign, float64(m.BenignFlows)/float64(nb))
	}
	return bh, benign
}

// String summarizes the statistics.
func (s *Stats) String() string {
	return fmt.Sprintf("records=%d blackholed=%d (%.2f%%) bytes=%d minutes=%d",
		s.Records, s.Blackholed, 100*s.BlackholeShare(), s.Bytes, len(s.minutes))
}
