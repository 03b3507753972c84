// Package cluster runs N scrubber sites — the paper's five-IXP topology —
// in one process, turning the offline exp_geo transfer experiment into a
// live serving topology. Each site owns the full production pipeline
// (bounded queue → balancer → sliding window → two-step model → ACL
// writer) plus its own synth traffic profile, optional sketch aggregator
// and versioned model registry; ingest is partitioned across sites by
// target IP. A coordinator exchanges classifier-only bundles over the
// registry Export/Import path (Fig. 12: the trees travel, the WoE tables
// stay local) on a gossip cadence, and every site elects its champion by
// shadow-scoring the imported candidates against the incumbent on its own
// WoE-encoded window — an imported model serves only where it is locally
// at least as good.
//
// The whole topology is deterministic: a virtual clock, lock-step
// per-minute settling, and generator-derived blackhole labels (no BGP, no
// sockets) make a run a pure function of its Config — bit-exact at any
// worker count — so the chaos suite can replay coordinator crashes, site
// partitions and torn bundle imports against fault-free references.
package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"github.com/ixp-scrubber/ixpscrubber/internal/acl"
	"github.com/ixp-scrubber/ixpscrubber/internal/core"
	"github.com/ixp-scrubber/ixpscrubber/internal/features"
	"github.com/ixp-scrubber/ixpscrubber/internal/ixpsim"
	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/obs"
	"github.com/ixp-scrubber/ixpscrubber/internal/par"
	modelreg "github.com/ixp-scrubber/ixpscrubber/internal/registry"
	"github.com/ixp-scrubber/ixpscrubber/internal/synth"
)

// DefaultStartMin anchors simulated time (2021-01-01 UTC in unix minutes),
// matching the chaos harness epoch.
const DefaultStartMin = 26_830_080

// Config parameterizes one cluster. The zero value of every optional field
// picks the documented default; only Dir is required.
type Config struct {
	// Sites is the number of scrubber sites; 0 means len(Profiles), or 2
	// when Profiles is nil. Without explicit Profiles at most 5 sites are
	// available (one per paper vantage point).
	Sites int
	// Profiles overrides the per-site traffic profiles. Member address
	// spaces must be disjoint across sites — target-IP partitioning relies
	// on it — and New fails otherwise. Nil selects DefaultProfiles(Sites).
	Profiles []synth.Profile
	// Seed perturbs every site's RNG streams without moving its member
	// address space (profile seeds shift by a multiple of 90, preserving
	// the seed%90 first-octet allocation). Runs with different seeds see
	// different traffic; runs with the same seed are bit-identical.
	Seed uint64
	// Dir is the working directory: per-site registries, ACLs and
	// checkpoints live in Dir/site-<name>/. Required.
	Dir string
	// StartMin is the absolute simulated start (unix minutes); 0 means the
	// 2021 epoch.
	StartMin int64
	// Window, MinTrainRecords, QueueCap mirror ixpsim.PipelineConfig
	// (defaults: 24h, 64, 64).
	Window          time.Duration
	MinTrainRecords int
	QueueCap        int
	// Workers sizes each site's training worker pool (0 = GOMAXPROCS).
	// Outputs are bit-identical at every value.
	Workers int
	// SketchBudget > 0 runs every site's aggregation through the
	// bounded-memory sketch path with that relative exactness budget.
	SketchBudget float64
	// Dropper puts the compiled mitigation fast path in front of each
	// site's ingest queue.
	Dropper bool
	// TrainEvery and GossipEvery set the Run cadence in simulated minutes:
	// training rounds after every TrainEvery-th minute (default 5) and a
	// gossip round after every GossipEvery-th (default 10; negative
	// disables). Tests drive Step/TrainAll/Gossip directly instead.
	TrainEvery  int64
	GossipEvery int64
	// Checkpoint persists per-site pipeline state after each training
	// round and the coordinator state after every Run minute; Restore
	// resumes a New cluster from what a crashed one left in Dir.
	Checkpoint bool
	Restore    bool
	// Metrics aggregates cluster-wide drift, reduction-ratio and drop
	// metrics (labeled per site) onto this registry; nil disables.
	Metrics *obs.Registry
	Log     *slog.Logger
}

func (cfg Config) withDefaults() (Config, error) {
	if cfg.Dir == "" {
		return cfg, fmt.Errorf("cluster: Config.Dir is required")
	}
	if cfg.Profiles == nil {
		n := cfg.Sites
		if n <= 0 {
			n = 2
		}
		profs, err := DefaultProfiles(n)
		if err != nil {
			return cfg, err
		}
		cfg.Profiles = profs
	}
	if cfg.Sites <= 0 {
		cfg.Sites = len(cfg.Profiles)
	}
	if cfg.Sites != len(cfg.Profiles) {
		return cfg, fmt.Errorf("cluster: %d sites but %d profiles", cfg.Sites, len(cfg.Profiles))
	}
	if cfg.StartMin == 0 {
		cfg.StartMin = DefaultStartMin
	}
	if cfg.Window <= 0 {
		cfg.Window = 24 * time.Hour
	}
	if cfg.MinTrainRecords <= 0 {
		cfg.MinTrainRecords = 64
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.TrainEvery == 0 {
		cfg.TrainEvery = 5
	}
	if cfg.GossipEvery == 0 {
		cfg.GossipEvery = 10
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.DiscardHandler)
	}
	return cfg, nil
}

// Cluster is N sites plus the gossip coordinator. All methods must be
// called from one driving goroutine (the harness, Run, or scrubberd's
// tick loop); the pipelines underneath run their own consumers.
type Cluster struct {
	cfg   Config
	sites []*Site
	part  *partitioner
	clock clock
	cw    *acl.Writer // coordinator checkpoint writer

	minute int64 // relative minutes completed

	// Coordinator accounting, mutated by Gossip only.
	gossipRounds int
	exchanged    uint64
	rejected     uint64
	promotions   uint64

	scratch [][]netflow.Record // per-site routing buffers

	metrics *clusterMetrics
}

// New assembles the cluster inside cfg.Dir. Call Start before driving
// minutes, and Stop when done.
func New(cfg Config) (*Cluster, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg}
	c.clock.Set(cfg.StartMin * 60)
	c.cw = &acl.Writer{Backoff: instantBackoff(), Log: cfg.Log}
	for i, prof := range cfg.Profiles {
		prof.Seed += 90 * cfg.Seed // preserve seed%90: member spaces stay put
		s, err := c.newSite(i, prof)
		if err != nil {
			c.closeSites()
			return nil, err
		}
		c.sites = append(c.sites, s)
	}
	c.part, err = newPartitioner(c.sites)
	if err != nil {
		c.closeSites()
		return nil, err
	}
	c.scratch = make([][]netflow.Record, len(c.sites))
	if cfg.Restore {
		if err := c.restore(); err != nil {
			c.closeSites()
			return nil, err
		}
	}
	if cfg.Metrics != nil {
		c.metrics = c.registerMetrics(cfg.Metrics)
	}
	return c, nil
}

// newSite wires one scrubber site: generator, registry, pipeline.
func (c *Cluster) newSite(index int, prof synth.Profile) (*Site, error) {
	dir := filepath.Join(c.cfg.Dir, "site-"+prof.Name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: site dir: %w", err)
	}
	log := c.cfg.Log.With("site", prof.Name)
	reg, err := modelreg.Open(filepath.Join(dir, "registry"), modelreg.Options{
		Clock: func() time.Time { return time.Unix(c.clock.Now(), 0) },
		Log:   log,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: site %s registry: %w", prof.Name, err)
	}
	reg.Writer().Backoff = instantBackoff()

	coreCfg := core.DefaultConfig()
	coreCfg.Workers = c.cfg.Workers
	if c.cfg.SketchBudget > 0 {
		coreCfg.Sketch = &features.SketchConfig{Budget: c.cfg.SketchBudget}
	}
	s := &Site{
		Name:    prof.Name,
		Index:   index,
		prof:    prof,
		gen:     synth.NewGenerator(prof),
		reg:     reg,
		dir:     dir,
		digests: map[int64]uint64{},
	}
	ckpt := ""
	if c.cfg.Checkpoint || c.cfg.Restore {
		ckpt = filepath.Join(dir, "checkpoint.json")
	}
	s.pipe = ixpsim.NewPipeline(ixpsim.PipelineConfig{
		Seed:            prof.Seed,
		Window:          c.cfg.Window,
		Core:            &coreCfg,
		QueueCap:        c.cfg.QueueCap,
		MinTrainRecords: c.cfg.MinTrainRecords,
		ACLPath:         filepath.Join(dir, "acl.txt"),
		CheckpointPath:  ckpt,
		Clock:           c.clock.Now,
		Log:             log,
		KeepHook:        s.keepHook,
		Registry:        reg,
		// Election is the only cross-model promotion path: locally trained
		// candidates promote immediately (no shadow hold), and an imported
		// challenger never auto-promotes on disagreement — Gossip promotes
		// it explicitly when it wins, keeping which model serves exact.
		Promotion: ixpsim.PromotionPolicy{MaxDisagreement: -1},
		Drop:      c.cfg.Dropper,
	})
	s.pipe.Writer().Backoff = instantBackoff()
	return s, nil
}

// Start launches every site's queue consumer.
func (c *Cluster) Start(ctx context.Context) {
	for _, s := range c.sites {
		s.pipe.Start(ctx)
	}
}

// Stop drains and stops every site pipeline.
func (c *Cluster) Stop() { c.closeSites() }

func (c *Cluster) closeSites() {
	for _, s := range c.sites {
		s.pipe.Stop()
	}
}

// Sites exposes the sites in index order (read-only use).
func (c *Cluster) Sites() []*Site { return c.sites }

// Minute reports the number of relative minutes completed.
func (c *Cluster) Minute() int64 { return c.minute }

// Step simulates one minute: every site generates its profile's traffic,
// all of it is routed through the target-IP partitioner to the owning
// site's ingest shard, and the step returns only once every pipeline has
// drained — the lock-step settling that pins batch boundaries, balancer
// RNG draws and therefore the whole run to one replayable sequence.
func (c *Cluster) Step(ctx context.Context) error {
	abs := c.cfg.StartMin + c.minute
	c.clock.Set(abs * 60)
	for _, s := range c.sites {
		s.flowBuf = s.gen.GenerateMinute(abs, s.flowBuf[:0])
		// Blackhole ground truth rides Record.Blackholed; the BGP event
		// stream exists for socketed deployments and is drained unused.
		s.gen.Events()
		if err := c.route(s.flowBuf); err != nil {
			return err
		}
	}
	for _, s := range c.sites {
		if err := s.settle(ctx); err != nil {
			return fmt.Errorf("cluster: site %s minute %d: %w", s.Name, c.minute, err)
		}
	}
	c.minute++
	return nil
}

// route splits one generated minute across the owning sites' ingest
// shards and updates the settle accounting.
func (c *Cluster) route(flows []synth.Flow) error {
	for i := range c.scratch {
		c.scratch[i] = c.scratch[i][:0]
	}
	for i := range flows {
		r := &flows[i].Record
		idx := c.part.SiteFor(r.DstIP)
		c.scratch[idx] = append(c.scratch[idx], *r)
	}
	for i, s := range c.sites {
		batch := c.scratch[i]
		if len(batch) == 0 {
			continue
		}
		s.pipe.EmitBatch(batch)
		s.expBatches++
		s.expIngest += uint64(len(batch))
		s.routed.Add(uint64(len(batch)))
	}
	return nil
}

// TrainAll runs one training round on every site at the current virtual
// time, in site order.
func (c *Cluster) TrainAll(ctx context.Context) error {
	for _, s := range c.sites {
		round, err := s.pipe.TrainRound(ctx, c.clock.Now())
		if err != nil {
			return fmt.Errorf("cluster: site %s training: %w", s.Name, err)
		}
		s.recordRound(c.minute, round)
	}
	return nil
}

// TrainSites runs one training round on the named sites only — the knob
// scripted scenarios use to let one vantage point's model go stale while
// the rest of the cluster keeps learning.
func (c *Cluster) TrainSites(ctx context.Context, idx ...int) error {
	for _, i := range idx {
		if i < 0 || i >= len(c.sites) {
			return fmt.Errorf("cluster: no site %d", i)
		}
		s := c.sites[i]
		round, err := s.pipe.TrainRound(ctx, c.clock.Now())
		if err != nil {
			return fmt.Errorf("cluster: site %s training: %w", s.Name, err)
		}
		s.recordRound(c.minute, round)
	}
	return nil
}

// Run drives minutes with the configured train/gossip cadence: traffic
// every minute, training after every TrainEvery-th, gossip after every
// GossipEvery-th (after training, so elections score fresh incumbents),
// coordinator checkpoint after every minute when configured.
func (c *Cluster) Run(ctx context.Context, minutes int64) error {
	for i := int64(0); i < minutes; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := c.Step(ctx); err != nil {
			return err
		}
		if c.cfg.TrainEvery > 0 && c.minute%c.cfg.TrainEvery == 0 {
			if err := c.TrainAll(ctx); err != nil {
				return err
			}
		}
		if c.cfg.GossipEvery > 0 && c.minute%c.cfg.GossipEvery == 0 {
			if _, err := c.Gossip(ctx, GossipOptions{}); err != nil {
				return err
			}
		}
		if c.cfg.Checkpoint {
			if err := c.SaveCheckpoint(ctx); err != nil {
				c.cfg.Log.Error("coordinator checkpoint failed", "err", err)
			}
		}
	}
	return nil
}

// instantBackoff retries without sleeping wall time, keeping virtual-clock
// runs fast and schedules exact.
func instantBackoff() *par.Backoff {
	return &par.Backoff{Base: time.Millisecond, Sleep: func(time.Duration) {}}
}
