package main

import (
	"context"
	"fmt"
	"io"
	"net/netip"
	"time"

	"github.com/ixp-scrubber/ixpscrubber/internal/cluster"
	"github.com/ixp-scrubber/ixpscrubber/internal/obs"
	"github.com/ixp-scrubber/ixpscrubber/internal/synth"
)

// fedSpec parameterises federated-3site: the same pipeline reached by the
// other constructor (cluster.Site, not segment.New), driven with Step /
// TrainSites / Gossip directly. The generator runs inside Step, so its
// time cannot be separated from the pipeline's from outside.
type fedSpec struct {
	sites       int
	warmMin     int // set-up minutes; one TrainAll after them seats a champion everywhere
	minutes     int // timed minutes at GOMAXPROCS=nproc
	minutes1p   int // timed minutes at GOMAXPROCS=1, no rounds
	trainEvery  int
	gossipEvery int
	smoke       bool // set by scaled on a run short enough to be a plumbing check
	gates       []gate
}

const fedWindow = time.Hour

var federatedSpec = fedSpec{
	sites: 3, warmMin: 30,
	minutes: 200, minutes1p: 150,
	trainEvery: 5, gossipEvery: 10,
	// A gossip round takes 1.04 site rounds on the seed commit, 1.00 to 1.11
	// across seeds, and 1.3 to 1.6 with another process competing for both
	// cores.
	gates: []gate{atLeast("flagged_f1", 0.85), atMost("gossip_over_round_p50", 1.5)},
}

func (s fedSpec) scaled(seconds float64) fedSpec {
	f := seconds / refSeconds
	// Whole gossip periods, at least two, so every cadence fires.
	periods := int(float64(s.minutes/s.gossipEvery)*f + 0.5)
	if periods < 2 {
		periods = 2
	}
	s.minutes = periods * s.gossipEvery
	if s.minutes1p = int(float64(s.minutes1p)*f + 0.5); s.minutes1p < 5 {
		s.minutes1p = 5
	}
	if f < 1 {
		s.gates = []gate{atLeast("flagged_f1", 0.4)}
	}
	if f < smokeScale {
		s.smoke = true
		s.warmMin = s.trainEvery * 2 // just enough to seat champions
	}
	return s
}

// fedSystem is the assembled cluster plus, per site, a twin of its traffic
// generator: same profile, same minutes, hence the same flows — ground
// truth for the output check without reaching into the sites.
type fedSystem struct {
	c       *cluster.Cluster
	metrics *obs.Registry
	twins   []*synth.Generator
	truth   []map[netip.Addr]int64 // per site: attacked address → last attacked minute
	flows   []synth.Flow
	cancel  context.CancelFunc
}

func (s *fedSystem) close() {
	s.c.Stop()
	s.cancel()
}

// advanceTwins generates the coming minute on every twin; call it before
// each Cluster.Step, outside its clock.
func (s *fedSystem) advanceTwins() {
	abs := cluster.DefaultStartMin + s.c.Minute()
	for i, g := range s.twins {
		s.flows = g.GenerateMinute(abs, s.flows[:0])
		g.Events()
		for j := range s.flows {
			if s.flows[j].Attack {
				s.truth[i][s.flows[j].DstIP] = abs
			}
		}
	}
}

func setupFederated(spec *fedSpec, seed uint64, dir string) (*fedSystem, float64, error) {
	t0 := nowSec()
	reg := obs.NewRegistry()
	c, err := cluster.New(cluster.Config{
		Sites:   spec.sites,
		Seed:    seed,
		Dir:     dir,
		Dropper: true,
		// An hour of window keeps every round on a window of the same
		// size once the run is an hour in, so round and gossip times are
		// stationary over the script.
		Window:  fedWindow,
		Metrics: reg,
	})
	if err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.Start(ctx)
	s := &fedSystem{c: c, metrics: reg, cancel: cancel}
	for _, site := range c.Sites() {
		s.twins = append(s.twins, synth.NewGenerator(site.Profile()))
		s.truth = append(s.truth, map[netip.Addr]int64{})
	}
	for m := 0; m < spec.warmMin; m++ {
		s.advanceTwins()
		if err := c.Step(ctx); err != nil {
			s.close()
			return nil, 0, err
		}
	}
	if err := c.TrainAll(ctx); err != nil {
		s.close()
		return nil, 0, err
	}
	return s, nowSec() - t0, nil
}

// fedResult is everything one federated-3site run measured.
type fedResult struct {
	commonResult // rate is routed records/s per Step
	stepMS       []float64
	siteRounds   [][]roundSample // per site, in round order
	trainAllMS   []float64
	gossipMS     []float64
	routed       uint64
}

type roundSample struct{ ms, allocMB float64 }

func (s *fedSystem) routed() uint64 {
	var n uint64
	for _, site := range s.c.Sites() {
		n += site.Routed()
	}
	return n
}

// lost sums what the sites' queues dropped and their balancers refused as
// late: the failed-operation count, expected 0.
func (s *fedSystem) lost() uint64 {
	var n uint64
	for _, site := range s.c.Sites() {
		p := site.Pipeline()
		n += p.QueueStats().DroppedRecords.Load() + p.BalanceStats().Late
	}
	return n
}

// runFederated sets the cluster up `setups` times and drives the last one
// through the timed minutes. The caller closes the returned system. rec
// records a span around every public call into the cluster.
func runFederated(spec *fedSpec, seed uint64, dir string, setups int, rec *recorder) (*fedResult, *fedSystem, error) {
	res := &fedResult{commonResult: commonResult{counters: map[string]float64{}}}
	var sys *fedSystem
	for i := 0; i < setups; i++ {
		if sys != nil {
			sys.close()
		}
		var sec float64
		var err error
		sys, sec, err = setupFederated(spec, seed, fmt.Sprintf("%s/setup-%d", dir, i))
		if err != nil {
			return nil, nil, err
		}
		res.setupSec = append(res.setupSec, sec)
	}
	if err := sys.drive(spec, res, rec); err != nil {
		sys.close()
		return nil, nil, err
	}
	return res, sys, nil
}

func (sys *fedSystem) drive(spec *fedSpec, res *fedResult, rec *recorder) error {
	ctx := context.Background()
	c := sys.c
	res.siteRounds = make([][]roundSample, len(c.Sites()))
	routedBase, lostBase := sys.routed(), sys.lost()
	gc := startGCWatch()

	timedStep := func(rates *[]float64, count bool) error {
		before := sys.routed()
		rec.setTrace(int(c.Minute()))
		sys.advanceTwins()
		a0 := readAllocs()
		rec.begin("cluster.step")
		t0 := time.Now()
		err := c.Step(ctx)
		took := time.Since(t0)
		n := sys.routed() - before
		rec.end(int(n))
		a1 := readAllocs()
		if err != nil {
			return err
		}
		*rates = append(*rates, float64(n)/took.Seconds())
		if count {
			res.stepMS = append(res.stepMS, float64(took.Nanoseconds())/1e6)
			res.ingestRecords += n
			res.ingestAllocs += a1.objects - a0.objects
		}
		t := time.Now()
		rec.begin("obs.scrape")
		err = sys.metrics.WritePrometheus(io.Discard)
		rec.end(0)
		if err != nil {
			return err
		}
		res.scrapeMS = append(res.scrapeMS, float64(time.Since(t).Nanoseconds())/1e6)
		return nil
	}

	rec.begin("bench.run")
	for m := 1; m <= spec.minutes; m++ {
		if err := timedStep(&res.rate, true); err != nil {
			return err
		}
		if m%spec.trainEvery == 0 {
			all := time.Now()
			for i := range c.Sites() {
				a0 := readAllocs()
				t0 := time.Now()
				rec.begin("cluster.train_site")
				err := c.TrainSites(ctx, i)
				rec.end(1)
				if err != nil {
					return err
				}
				res.siteRounds[i] = append(res.siteRounds[i], roundSample{
					ms:      float64(time.Since(t0).Nanoseconds()) / 1e6,
					allocMB: float64(readAllocs().bytes-a0.bytes) / (1 << 20),
				})
			}
			res.trainAllMS = append(res.trainAllMS, float64(time.Since(all).Nanoseconds())/1e6)
		}
		if m%spec.gossipEvery == 0 {
			t0 := time.Now()
			rec.begin("cluster.gossip")
			_, err := c.Gossip(ctx, cluster.GossipOptions{})
			rec.end(len(c.Sites()))
			if err != nil {
				return err
			}
			res.gossipMS = append(res.gossipMS, float64(time.Since(t0).Nanoseconds())/1e6)
		}
	}
	err := atOneProc(func() error {
		for m := 0; m < spec.minutes1p; m++ {
			if err := timedStep(&res.rate1p, false); err != nil {
				return err
			}
		}
		return nil
	})
	rec.end(0)
	if err != nil {
		return err
	}
	// Final rounds outside every clock flush each site's last minute bin.
	if err := c.TrainAll(ctx); err != nil {
		return err
	}
	res.routed, res.lost = sys.routed()-routedBase, sys.lost()-lostBase

	res.liveHeapMB = gc.finish(res.counters)
	res.counters["runtime.heap_live_mb"] = res.liveHeapMB
	return sys.collect(res)
}

// collect checks the per-site conservation identity from public counters
// and scores each site's last verdicts against its twin's ground truth.
func (s *fedSystem) collect(res *fedResult) error {
	out := s.c.Outcome()
	c := res.counters
	var f1Sum float64
	var elections, skipped int
	for i, site := range s.c.Sites() {
		p := site.Pipeline()
		st := p.Dropper().Stats()
		qs := p.QueueStats()
		bs := p.BalanceStats()
		switch {
		case site.Routed() != st.Evaluated:
			return fmt.Errorf("bench: conservation at %s: routed %d, drop stage evaluated %d", site.Name, site.Routed(), st.Evaluated)
		case st.Evaluated != st.Dropped+qs.RecordsIn.Load():
			return fmt.Errorf("bench: conservation at %s: evaluated %d != dropped %d + queued %d", site.Name, st.Evaluated, st.Dropped, qs.RecordsIn.Load())
		case qs.RecordsOut.Load() != bs.In:
			return fmt.Errorf("bench: conservation at %s: queue handed out %d, balancer saw %d", site.Name, qs.RecordsOut.Load(), bs.In)
		}
		c["dropper.evaluated"] += float64(st.Evaluated)
		c["dropper.dropped"] += float64(st.Dropped)
		c["dropper.rules"] += float64(p.Dropper().Program().Len())
		c["dropper.swaps"] += float64(st.Swaps)
		c["queue.batches"] += float64(qs.BatchesIn.Load())
		c["queue.blocked_puts"] += float64(qs.BlockedPuts.Load())
		c["queue.dropped_records"] += float64(qs.DroppedRecords.Load())
		c["balance.in"] += float64(bs.In)
		c["balance.kept"] += float64(bs.Out)
		c["balance.late"] += float64(bs.Late)
		c["acl.publish_retries"] += float64(p.Writer().Retries.Load())
		c["cluster.routed_records"] += float64(site.Routed())
		elections += len(site.Elections())

		// Outcome lists the warm round first, then the timed ones in order,
		// then the final flush round.
		rounds := out.Sites[i].Rounds
		if len(rounds) != len(res.siteRounds[i])+2 {
			return fmt.Errorf("bench: site %s recorded %d rounds, drove %d", site.Name, len(rounds), len(res.siteRounds[i])+2)
		}
		for k := range res.siteRounds[i] {
			if rounds[1+k].Skipped {
				skipped++
			}
		}
		last := rounds[len(rounds)-1]
		c["pipeline.window_records"] += float64(last.Records)
		// Ground truth is what was attacked inside the window the last
		// round trained on.
		cutoff := cluster.DefaultStartMin + s.c.Minute() - int64(fedWindow/time.Minute)
		attacked := map[netip.Addr]bool{}
		for a, last := range s.truth[i] {
			if last >= cutoff {
				attacked[a] = true
			}
		}
		var flagged []netip.Addr
		for _, f := range last.Flagged {
			if a, err := netip.ParseAddr(f); err == nil {
				flagged = append(flagged, a)
			}
		}
		f1Sum += f1Score(flagged, func(a netip.Addr) bool { return attacked[a] }, len(attacked))
	}
	res.f1 = f1Sum / float64(len(s.c.Sites()))
	if skipped > 0 {
		return fmt.Errorf("bench: %d site rounds were skipped for lack of records; the warm-up is too short", skipped)
	}
	// The sites differ in size, so a quantile over single site rounds
	// hops between them; one sample per cadence tick, the mean over the
	// sites, does not.
	nSites := float64(len(s.c.Sites()))
	for k := range res.siteRounds[0] {
		var ms, mb float64
		for i := range res.siteRounds {
			ms += res.siteRounds[i][k].ms
			mb += res.siteRounds[i][k].allocMB
		}
		res.roundMS = append(res.roundMS, ms/nSites)
		res.roundAllocMB = append(res.roundAllocMB, mb/nSites)
	}
	c["dropper.hit_share"] = ratio(c["dropper.dropped"], c["dropper.evaluated"])
	c["balance.kept_share"] = ratio(c["balance.kept"], c["balance.in"])
	c["acl.entries"] = c["dropper.rules"]
	c["cluster.elections"] = float64(elections)
	c["cluster.promotions"] = float64(out.Promotions)
	c["pipeline.rounds"] = float64(len(res.siteRounds) * len(res.siteRounds[0]))
	c["pipeline.rounds_skipped"] = float64(skipped)
	c["obs.scrape_ms"] = median(res.scrapeMS)
	if elections == 0 {
		return fmt.Errorf("bench: no election ran")
	}
	return nil
}
