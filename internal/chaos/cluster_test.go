package chaos_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"github.com/ixp-scrubber/ixpscrubber/internal/cluster"
)

// driveCluster steps a cluster through relative minutes [from, to), training
// and gossiping after the minutes listed, checkpointing the coordinator
// after every minute when cp is set. Returns every gossip report.
func driveCluster(t *testing.T, c *cluster.Cluster, from, to int64, trainAt map[int64]bool, gossipAt map[int64]bool, opt cluster.GossipOptions, cp bool) []*cluster.GossipReport {
	t.Helper()
	ctx := context.Background()
	var reports []*cluster.GossipReport
	for m := from; m < to; m++ {
		if err := c.Step(ctx); err != nil {
			t.Fatalf("step %d: %v", m, err)
		}
		if trainAt[m] {
			if err := c.TrainAll(ctx); err != nil {
				t.Fatalf("train %d: %v", m, err)
			}
		}
		if gossipAt[m] {
			rep, err := c.Gossip(ctx, opt)
			if err != nil {
				t.Fatalf("gossip %d: %v", m, err)
			}
			reports = append(reports, rep)
		}
		if cp {
			if err := c.SaveCheckpoint(ctx); err != nil {
				t.Fatalf("checkpoint %d: %v", m, err)
			}
		}
	}
	return reports
}

// TestClusterCrashRestartConvergesToReference kills the whole multi-site
// coordinator right after a train+gossip+checkpoint minute and restarts it
// from disk. The restarted cluster must converge to the uninterrupted
// reference bit-for-bit: every site's post-restart kept-stream digests,
// the final training rounds, the final election results and the final
// champions are identical — the crash is invisible downstream.
func TestClusterCrashRestartConvergesToReference(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos scenarios replay full multi-site runs; skipped in -short")
	}
	const sites = 3
	const crashAt = 6 // relative minute the crash interrupts (post minute-5 round)
	trainAt := map[int64]bool{5: true, 9: true}
	gossipAt := map[int64]bool{5: true, 9: true}

	// Fault-free reference.
	ref, err := cluster.New(cluster.Config{Sites: sites, Seed: 1, Dir: t.TempDir(), Checkpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	ref.Start(context.Background())
	refReports := driveCluster(t, ref, 0, 12, trainAt, gossipAt, cluster.GossipOptions{}, true)
	refOut := ref.Outcome()
	ref.Stop()
	if len(refReports) != 2 {
		t.Fatalf("reference ran %d gossip rounds, want 2", len(refReports))
	}

	// Crashed run: same config, abandoned right after the minute-5
	// train+gossip round checkpointed. Nothing is flushed on the way out —
	// the "crash" is simply never calling Stop and dropping the process
	// state on the floor.
	crashDir := t.TempDir()
	crashed, err := cluster.New(cluster.Config{Sites: sites, Seed: 1, Dir: crashDir, Checkpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	crashed.Start(context.Background())
	driveCluster(t, crashed, 0, crashAt, trainAt, gossipAt, cluster.GossipOptions{}, true)

	// Restart from what the crash left in crashDir and run to the end.
	restarted, err := cluster.New(cluster.Config{Sites: sites, Seed: 1, Dir: crashDir, Checkpoint: true, Restore: true})
	if err != nil {
		t.Fatalf("restore after crash: %v", err)
	}
	defer restarted.Stop()
	restarted.Start(context.Background())
	if got := restarted.Minute(); got != crashAt {
		t.Fatalf("restored coordinator resumes at minute %d, want %d", got, crashAt)
	}
	restReports := driveCluster(t, restarted, crashAt, 12, trainAt, gossipAt, cluster.GossipOptions{}, true)
	restOut := restarted.Outcome()

	// Post-crash traffic is bit-identical: the generators, balancer RNG
	// streams and windows all resumed mid-sequence.
	boundary := int64(cluster.DefaultStartMin) + crashAt
	if got, want := digestsFrom(restOut, boundary), digestsFrom(refOut, boundary); !reflect.DeepEqual(got, want) {
		t.Errorf("post-restart kept-stream digests diverge from fault-free reference:\n--- restarted\n%v\n--- reference\n%v", got, want)
	}

	// The final training round and election are bit-identical.
	if len(restReports) != 1 {
		t.Fatalf("restarted run gossiped %d times, want 1", len(restReports))
	}
	final, refFinal := restReports[0], refReports[1]
	if len(final.Elections) != len(refFinal.Elections) {
		t.Fatalf("final elections: %d vs reference %d", len(final.Elections), len(refFinal.Elections))
	}
	for i := range final.Elections {
		if got, want := final.Elections[i].String(), refFinal.Elections[i].String(); got != want {
			t.Errorf("final election %d diverges:\n%s\nreference:\n%s", i, got, want)
		}
	}
	for i := range restOut.Sites {
		rs, fs := &restOut.Sites[i], &refOut.Sites[i]
		if rs.ChampionID != fs.ChampionID {
			t.Errorf("site %s: final champion %s, reference %s", rs.Name, rs.ChampionID, fs.ChampionID)
		}
		if rs.ACLFile != fs.ACLFile {
			t.Errorf("site %s: final ACL diverges from reference", rs.Name)
		}
		if len(rs.Rounds) == 0 || rs.Rounds[len(rs.Rounds)-1].ACLDigest != fs.Rounds[len(fs.Rounds)-1].ACLDigest {
			t.Errorf("site %s: final round ACL digest diverges", rs.Name)
		}
	}
	// Gossip accounting carried across the crash: 2 rounds total.
	if restOut.GossipRounds != refOut.GossipRounds {
		t.Errorf("gossip rounds: %d, reference %d", restOut.GossipRounds, refOut.GossipRounds)
	}
}

// TestClusterPartitionTolerance cuts one site off from gossip: its bundle
// reaches nobody and it receives nothing. The partitioned site keeps
// serving its last-good champion and keeps ingesting its share of traffic;
// the surviving sites hold their election among themselves; and the
// cluster's conservation invariants (routed == ingested everywhere) hold
// throughout.
func TestClusterPartitionTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos scenarios replay full multi-site runs; skipped in -short")
	}
	c, err := cluster.New(cluster.Config{Sites: 3, Seed: 1, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Start(context.Background())

	// Healthy warm-up round.
	driveCluster(t, c, 0, 6, map[int64]bool{5: true}, map[int64]bool{5: true}, cluster.GossipOptions{}, false)
	part := c.Sites()[0]
	seqBefore, idBefore := part.Pipeline().ActiveModel()
	if idBefore == "" {
		t.Fatal("partitioned site has no champion before the partition")
	}
	keptBefore := c.Outcome().Sites[0].Kept

	// Partition: site 0 is excluded from the next gossip rounds while
	// traffic keeps flowing everywhere. Only sites 1 and 2 retrain — the
	// partitioned site's control plane is stalled, not just its gossip.
	ctx := context.Background()
	exclude := cluster.GossipOptions{Exclude: map[int]bool{0: true}}
	var reports []*cluster.GossipReport
	for m := int64(6); m < 10; m++ {
		if err := c.Step(ctx); err != nil {
			t.Fatalf("step %d: %v", m, err)
		}
		if m == 9 {
			if err := c.TrainSites(ctx, 1, 2); err != nil {
				t.Fatal(err)
			}
			rep, err := c.Gossip(ctx, exclude)
			if err != nil {
				t.Fatalf("partitioned gossip: %v", err)
			}
			reports = append(reports, rep)
		}
	}

	// The partitioned site: last-good champion still serving, traffic
	// still ingested and classified.
	if seq, id := part.Pipeline().ActiveModel(); seq != seqBefore || id != idBefore {
		t.Errorf("partitioned site's champion moved during the partition: %d/%s -> %d/%s", seqBefore, idBefore, seq, id)
	}
	if part.Pipeline().ChampionScrubber() == nil {
		t.Error("partitioned site stopped serving")
	}
	out := c.Outcome()
	if out.Sites[0].Kept <= keptBefore {
		t.Error("partitioned site stopped keeping records during the partition")
	}

	// The survivors' election excluded the partitioned site entirely.
	rep := reports[0]
	for _, ex := range rep.Exports {
		if ex.Origin == 0 {
			t.Error("partitioned site's bundle leaked into gossip")
		}
	}
	for _, el := range rep.Elections {
		if el.Site == 0 {
			t.Error("partitioned site held an election")
		}
		for _, cand := range el.Candidates {
			if cand.Origin == 0 {
				t.Error("partitioned site's candidate scored at a survivor")
			}
		}
	}

	// Conservation: every record routed somewhere was ingested there;
	// nothing vanished because one site fell off the control plane.
	for _, s := range out.Sites {
		if s.Ingested != s.Routed {
			t.Errorf("site %s: ingested %d != routed %d", s.Name, s.Ingested, s.Routed)
		}
	}
}

// TestClusterTornImport: a bundle torn in flight degrades exactly the
// receiving edge — the victim site rejects it, completes its election on
// the candidates it could verify, keeps serving, and the coordinator
// counts the rejected transfer.
func TestClusterTornImport(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos scenarios replay full multi-site runs; skipped in -short")
	}
	c, err := cluster.New(cluster.Config{Sites: 3, Seed: 1, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Start(context.Background())
	driveCluster(t, c, 0, 6, map[int64]bool{5: true}, nil, cluster.GossipOptions{}, false)

	rep, err := c.Gossip(context.Background(), cluster.GossipOptions{
		Corrupt: func(origin, dst int, bundle []byte) []byte {
			if dst == 0 {
				// Everything arriving at site 0 tears mid-transfer.
				return bundle[:len(bundle)/3]
			}
			return bundle
		},
	})
	if err != nil {
		t.Fatalf("gossip with torn transfers must not fail the round: %v", err)
	}
	for _, el := range rep.Elections {
		if el.Site == 0 {
			if el.Promoted {
				t.Error("site 0 promoted a torn bundle")
			}
			for _, cand := range el.Candidates {
				if !cand.Invalid {
					t.Errorf("torn candidate from %d accepted at site 0", cand.Origin)
				}
				if !strings.Contains(cand.Err, "rejecting bundle") && !strings.Contains(cand.Err, "classifier-only") {
					t.Errorf("unexpected rejection reason: %s", cand.Err)
				}
			}
			continue
		}
		// Other edges are untouched: valid candidates, normal election.
		for _, cand := range el.Candidates {
			if cand.Invalid {
				t.Errorf("site %d candidate from %d invalid: %s", el.Site, cand.Origin, cand.Err)
			}
		}
	}
	out := c.Outcome()
	if out.Rejected != 2 {
		t.Errorf("rejected transfers = %d, want 2 (both arrivals at site 0)", out.Rejected)
	}
	if c.Sites()[0].Pipeline().ChampionScrubber() == nil {
		t.Error("victim site stopped serving after torn imports")
	}
}

// digestsFrom returns every site's per-minute kept-stream digests at or
// after the absolute minute from.
func digestsFrom(o *cluster.Outcome, from int64) []map[int64]uint64 {
	out := make([]map[int64]uint64, len(o.Sites))
	for i, so := range o.Sites {
		out[i] = map[int64]uint64{}
		for m, d := range so.Digests {
			if m >= from {
				out[i][m] = d
			}
		}
	}
	return out
}
