package cluster

import (
	"fmt"
	"sort"
	"strings"

	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
)

// Key renders every deterministic field; equal keys mean equal runs.
// Election scores render as float bit patterns, so "equal" means
// bit-exact, not approximately equal.
func (o *Outcome) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: gossip=%d exchanged=%d rejected=%d promotions=%d\n",
		o.GossipRounds, o.Exchanged, o.Rejected, o.Promotions)
	for i := range o.Sites {
		b.WriteString(o.Sites[i].key())
	}
	return b.String()
}

func (so *SiteOutcome) key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "site %s: kept=%d ingested=%d routed=%d dropB=%d dropR=%d dropperEval=%d dropperDrop=%d versions=%d champ=%d/%s\n",
		so.Name, so.Kept, so.Ingested, so.Routed, so.DroppedBatches, so.DroppedRecords,
		so.DropperEvaluated, so.DropperDropped, so.RegistryVersions, so.ChampionSeq, so.ChampionID)
	b.WriteString(so.DigestsFrom(0))
	for _, r := range so.Rounds {
		fmt.Fprintf(&b, "round@%d skip=%v rec=%d agg=%d rules=%d flagged=%v acl=%016x seq=%d prom=%v\n",
			r.Minute, r.Skipped, r.Records, r.Aggregates, r.RulesMined, r.Flagged, r.ACLDigest, r.Seq, r.Promoted)
	}
	for _, e := range so.Elections {
		b.WriteString(renderElection(&e))
	}
	fmt.Fprintf(&b, "acl-file=%016x\n", netflow.FoldString(netflow.FNVOffset, so.ACLFile))
	return b.String()
}

// DigestsFrom renders the per-minute kept-stream digests at or after the
// absolute minute from.
func (so *SiteOutcome) DigestsFrom(from int64) string {
	var b strings.Builder
	mins := make([]int64, 0, len(so.Digests))
	for m := range so.Digests {
		if m >= from {
			mins = append(mins, m)
		}
	}
	sort.Slice(mins, func(i, j int) bool { return mins[i] < mins[j] })
	for _, m := range mins {
		fmt.Fprintf(&b, "%d=%016x\n", m, so.Digests[m])
	}
	return b.String()
}
