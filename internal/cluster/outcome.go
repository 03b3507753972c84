package cluster

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// SiteOutcome reduces one site's run to comparable values.
type SiteOutcome struct {
	Name string
	// Digests maps absolute minute -> chained digest of the records the
	// site's balancer kept for that minute, in emission order.
	Digests map[int64]uint64
	Kept    uint64

	Ingested       uint64
	Routed         uint64
	DroppedBatches uint64
	DroppedRecords uint64

	DropperEvaluated uint64
	DropperDropped   uint64

	Rounds    []RoundDigest
	Elections []Election

	RegistryVersions int
	ChampionSeq      uint64
	ChampionID       string
	ACLFile          string
}

// Outcome is the whole cluster run reduced to comparable values. Two runs
// of the same Config must produce identical outcomes at any worker count.
type Outcome struct {
	Sites []SiteOutcome

	GossipRounds int
	Exchanged    uint64
	Rejected     uint64
	Promotions   uint64
}

// Outcome snapshots the cluster's deterministic state.
func (c *Cluster) Outcome() *Outcome {
	out := &Outcome{
		GossipRounds: c.gossipRounds,
		Exchanged:    c.exchanged,
		Rejected:     c.rejected,
		Promotions:   c.promotions,
	}
	for _, s := range c.sites {
		so := SiteOutcome{
			Name:      s.Name,
			Ingested:  s.pipe.Ingested(),
			Routed:    s.routed.Load(),
			Rounds:    s.rounds,
			Elections: s.elections,
		}
		s.digMu.Lock()
		so.Digests = make(map[int64]uint64, len(s.digests))
		for m, d := range s.digests {
			so.Digests[m] = d
		}
		so.Kept = s.kept
		s.digMu.Unlock()
		qs := s.pipe.QueueStats()
		so.DroppedBatches = qs.DroppedBatches.Load()
		so.DroppedRecords = qs.DroppedRecords.Load()
		if d := s.pipe.Dropper(); d != nil {
			st := d.Stats()
			so.DropperEvaluated = st.Evaluated
			so.DropperDropped = st.Dropped
		}
		so.RegistryVersions = len(s.reg.List())
		so.ChampionSeq, so.ChampionID = s.pipe.ActiveModel()
		if data, err := os.ReadFile(filepath.Join(s.dir, "acl.txt")); err == nil {
			so.ACLFile = string(data)
		}
		out.Sites = append(out.Sites, so)
	}
	return out
}

// String renders every deterministic election field, scores as float bit
// patterns: equal strings mean bit-identical election results.
func (e *Election) String() string { return renderElection(e) }

func renderElection(e *Election) string {
	var b strings.Builder
	fmt.Fprintf(&b, "election r%d@%d site=%d skip=%v inc=%s winner=%d/%s prom=%v cands=[",
		e.Round, e.Minute, e.Site, e.Skipped, renderScore(&e.Incumbent), e.WinnerOrigin, e.WinnerID, e.Promoted)
	for i := range e.Candidates {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(renderScore(&e.Candidates[i]))
	}
	b.WriteString("]\n")
	return b.String()
}

func renderScore(s *Score) string {
	if s.Invalid {
		return fmt.Sprintf("%d:%s:invalid", s.Origin, s.ID)
	}
	return fmt.Sprintf("%d:%s:%016x", s.Origin, s.ID, math.Float64bits(s.FBeta))
}
