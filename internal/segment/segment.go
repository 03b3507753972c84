package segment

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ixp-scrubber/ixpscrubber/internal/acl"
	"github.com/ixp-scrubber/ixpscrubber/internal/ixpsim"
	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/obs"
)

// EmitFunc is the batched handoff between segments — the same contract the
// collectors use: the slice (and its records) is reused after the call
// returns, so receivers consume, copy, or compact it synchronously.
type EmitFunc func([]netflow.Record)

// Instance is one assembled segment at runtime.
type Instance interface {
	// EmitBatch accepts one upstream batch. Input segments pass it through
	// unchanged, so Pipeline.Feed can inject test traffic at the head of
	// any chain.
	EmitBatch(recs []netflow.Record)
	// Start launches the segment's goroutines (listeners, replayers, queue
	// consumers). Sockets and files open here, not at build time, so a
	// config can be assembled and inspected without touching the system.
	// Downstream segments start before their upstreams.
	Start(ctx context.Context) error
	// Close stops the segment and releases its resources, upstream-first:
	// by the time a segment closes, nothing feeds it anymore, so it can
	// flush and shut down without losing records.
	Close() error
}

// Env is everything a pipeline needs from its host: logging, metrics, the
// blackhole labeler, clocks, filesystem and socket indirection. The zero
// value runs standalone (wall clock, real sockets, no metrics).
type Env struct {
	Log     *slog.Logger
	Metrics *obs.Registry
	// Label classifies destination IPs against the blackhole registry
	// (bgp.Registry.Covered in the daemon); nil labels nothing.
	Label func(ip netip.Addr, at int64) bool
	// Clock overrides the pipeline clock (unix seconds). When nil and an
	// input declares clock: virtual, the pipeline runs a virtual clock
	// driven by that input's record timestamps; otherwise wall clock.
	Clock func() int64
	// FS indirects ACL/checkpoint writes (fault injection); nil is the
	// real filesystem.
	FS acl.FS
	// ListenPacket opens listener sockets; nil means net.ListenPacket.
	// The chaos harness hands out in-memory conns here.
	ListenPacket func(network, addr string) (net.PacketConn, error)
}

func (e *Env) log() *slog.Logger {
	if e.Log != nil {
		return e.Log
	}
	return slog.New(slog.DiscardHandler)
}

func (e *Env) listenPacket(network, addr string) (net.PacketConn, error) {
	if e.ListenPacket != nil {
		return e.ListenPacket(network, addr)
	}
	return net.ListenPacket(network, addr)
}

// virtualClock is the record-timestamp-driven clock finite inputs advance.
// Monotonic: Set never moves it backwards.
type virtualClock struct{ t atomic.Int64 }

func (c *virtualClock) Set(t int64) {
	for {
		cur := c.t.Load()
		if t <= cur || c.t.CompareAndSwap(cur, t) {
			return
		}
	}
}

func (c *virtualClock) Now() int64 { return c.t.Load() }

// pipelineMetrics instruments every segment hop.
type pipelineMetrics struct {
	batches *obs.CounterVec
	records *obs.CounterVec
	panics  *obs.CounterVec
}

func newPipelineMetrics(r *obs.Registry) *pipelineMetrics {
	return &pipelineMetrics{
		batches: r.CounterVec("ixps_segment_batches_total",
			"Batches entering each pipeline segment.", "segment"),
		records: r.CounterVec("ixps_segment_records_total",
			"Records entering each pipeline segment.", "segment"),
		panics: r.CounterVec("ixps_segment_panics_total",
			"Batches dropped because the segment panicked (recovered).", "segment"),
	}
}

// builder carries assembly state shared by the build functions.
type builder struct {
	env   *Env
	cfg   *Config
	pm    *pipelineMetrics
	clock func() int64 // resolved pipeline clock (nil = wall)
	vclk  *virtualClock

	// finite counts inputs that end (file replays); their completion
	// closes Pipeline.Done.
	finite sync.WaitGroup
	nFinal int

	// dropperMetricsClaimed: the scrubber's embedded dropper and a
	// standalone dropper segment share the ixps_dropper_* families; only
	// the first registrant (the scrubber, built first) exposes them.
	dropperMetricsClaimed bool

	scrubber *scrubberSegment
}

// Pipeline is an assembled, runnable segment chain.
type Pipeline struct {
	env  Env
	cfg  *Config
	b    *builder
	segs []*builtSegment // head first
	feed EmitFunc
	done chan struct{}

	started bool
	closed  bool
}

type builtSegment struct {
	kind  string
	label string
	inst  Instance
	enter EmitFunc // instrumented entry (panic isolation + counters)
}

// New validates cfg (idempotent) and assembles its pipeline under env.
// Nothing is started and no sockets are bound; call Start.
func New(env Env, cfg *Config) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &builder{env: &env, cfg: cfg}
	if env.Metrics != nil {
		b.pm = newPipelineMetrics(env.Metrics)
	}
	// Clock resolution: an explicit Env.Clock wins; else the first
	// clock: virtual input turns on the shared virtual clock.
	b.clock = env.Clock
	if b.clock == nil && hasVirtualClock(cfg.Pipeline) {
		b.vclk = &virtualClock{}
		b.clock = b.vclk.Now
	}
	p := &Pipeline{env: env, cfg: cfg, b: b, done: make(chan struct{})}
	segs, head, err := buildChain(b, cfg.Pipeline, "")
	if err != nil {
		return nil, err
	}
	p.segs = segs
	p.feed = head
	return p, nil
}

func hasVirtualClock(chain []SegmentConfig) bool {
	for i := range chain {
		switch chain[i].Kind {
		case "netflow", "replay":
			if chain[i].Str("clock") == "virtual" {
				return true
			}
		}
	}
	return false
}

// buildChain assembles one chain back to front, wiring each segment's next
// to the instrumented entry of its successor, and returns the chain plus
// its head entry. prefix labels branch segments ("archive.1:jsonl").
func buildChain(b *builder, chain []SegmentConfig, prefix string) ([]*builtSegment, EmitFunc, error) {
	segs := make([]*builtSegment, len(chain))
	var next EmitFunc
	for i := len(chain) - 1; i >= 0; i-- {
		sc := &chain[i]
		spec := specs[sc.Kind]
		inst, err := spec.build(b, sc, next)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: segment %d (%s): %w", b.cfg.Name, i+1, sc.Kind, err)
		}
		label := fmt.Sprintf("%d:%s", i+1, sc.Kind)
		if prefix != "" {
			label = prefix + "." + label
		}
		bs := &builtSegment{kind: sc.Kind, label: label, inst: inst}
		bs.enter = instrument(b, bs)
		segs[i] = bs
		next = bs.enter
	}
	return segs, next, nil
}

// instrument wraps a segment's EmitBatch with panic isolation and the
// per-segment obs counters. A panicking segment loses that one batch and
// the pipeline keeps flowing — the same containment the collectors apply
// per datagram.
func instrument(b *builder, bs *builtSegment) EmitFunc {
	var batches, records, panics *obs.Counter
	if b.pm != nil {
		batches = b.pm.batches.With(bs.label)
		records = b.pm.records.With(bs.label)
		panics = b.pm.panics.With(bs.label)
	}
	log := b.env.log()
	return func(recs []netflow.Record) {
		if len(recs) == 0 {
			return
		}
		if batches != nil {
			batches.Inc()
			records.Add(uint64(len(recs)))
		}
		defer func() {
			if r := recover(); r != nil {
				if panics != nil {
					panics.Inc()
				}
				log.Error("segment panicked; batch dropped", "segment", bs.label, "panic", r)
			}
		}()
		bs.inst.EmitBatch(recs)
	}
}

// Start launches the pipeline: downstream segments first, so every
// segment's next hop is live before traffic can reach it. A failed Start
// closes what already started and returns the error.
func (p *Pipeline) Start(ctx context.Context) error {
	if p.started {
		return fmt.Errorf("segment: pipeline already started")
	}
	p.started = true
	for i := len(p.segs) - 1; i >= 0; i-- {
		if err := p.segs[i].inst.Start(ctx); err != nil {
			for j := i + 1; j < len(p.segs); j++ {
				_ = p.segs[j].inst.Close()
			}
			return fmt.Errorf("segment %s: %w", p.segs[i].label, err)
		}
	}
	if p.b.nFinal > 0 {
		go func() {
			p.b.finite.Wait()
			close(p.done)
		}()
	}
	return nil
}

// Feed injects one batch at the head of the pipeline — the test and bench
// entry point. The batch follows the EmitFunc contract (reused after
// return).
func (p *Pipeline) Feed(recs []netflow.Record) { p.feed(recs) }

// Done is closed when every finite input (file/pcap replay, head-position
// diskbuffer) has delivered its last record. Pipelines with only live
// socket inputs never close it.
func (p *Pipeline) Done() <-chan struct{} { return p.done }

// Scrubber exposes the chain's detection pipeline (nil when the config has
// no scrubber segment) for training ticks, checkpoints and readiness.
func (p *Pipeline) Scrubber() *ixpsim.Pipeline {
	if p.b.scrubber == nil {
		return nil
	}
	return p.b.scrubber.pipe
}

// Now returns the pipeline clock in unix seconds: the resolved Env or
// virtual clock when one exists, wall time otherwise. Hosts use it to
// timestamp the final training round after a finite input drains.
func (p *Pipeline) Now() int64 {
	if p.b.clock != nil {
		return p.b.clock()
	}
	return time.Now().Unix()
}

// Instances returns the main chain's segments head-first (tee branches are
// reachable through the tee instance).
func (p *Pipeline) Instances() []Instance {
	out := make([]Instance, len(p.segs))
	for i, s := range p.segs {
		out[i] = s.inst
	}
	return out
}

// Close shuts the pipeline down upstream-first: inputs stop producing,
// then each downstream segment flushes and closes with its feed already
// quiet. Terminal queues (scrubber ingest, tee branches) drain fully. The
// first error is returned; Close always visits every segment.
func (p *Pipeline) Close() error {
	if p.closed {
		return nil
	}
	p.closed = true
	var first error
	for _, s := range p.segs {
		if err := s.inst.Close(); err != nil && first == nil {
			first = fmt.Errorf("segment %s: %w", s.label, err)
		}
	}
	return first
}
