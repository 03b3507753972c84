package segment

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"github.com/ixp-scrubber/ixpscrubber/internal/core"
	"github.com/ixp-scrubber/ixpscrubber/internal/dropper"
	"github.com/ixp-scrubber/ixpscrubber/internal/features"
	"github.com/ixp-scrubber/ixpscrubber/internal/ixpsim"
	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	modelreg "github.com/ixp-scrubber/ixpscrubber/internal/registry"
)

// --- scrubber -----------------------------------------------------------

// scrubberSegment is the terminal detection chain: the same
// ixpsim.Pipeline the hardwired daemon runs — bounded ingest queue,
// per-minute balancer, sliding window, two-step model, atomic ACL and
// checkpoint publication, optional registry/shadow lifecycle and inline
// mitigation. The segment owns its lifecycle; training ticks stay with
// the host via Pipeline.Scrubber().
type scrubberSegment struct {
	b             *builder
	pipe          *ixpsim.Pipeline
	dropRulesPath string
	importPath    string
}

func buildScrubber(b *builder, sc *SegmentConfig, next EmitFunc) (Instance, error) {
	policy, _ := netflow.ParseDropPolicy(sc.Str("drop-policy")) // enum-validated
	var coreCfg *core.Config
	if sc.Bool("sketch") {
		c := core.DefaultConfig()
		c.Sketch = &features.SketchConfig{Budget: sc.Float("sketch-budget")}
		coreCfg = &c
	}
	var models *modelreg.Registry
	if dir := sc.Str("registry"); dir != "" {
		var err error
		if models, err = modelreg.Open(dir, modelreg.Options{Log: b.env.Log}); err != nil {
			return nil, fmt.Errorf("model registry: %w", err)
		}
	}
	pc := ixpsim.PipelineConfig{
		Seed:            uint64(sc.Int("seed")),
		Window:          sc.Dur("window"),
		QueueCap:        int(sc.Int("queue-cap")),
		DropPolicy:      policy,
		MinTrainRecords: int(sc.Int("min-train")),
		ACLPath:         sc.Str("acl"),
		RulesPath:       sc.Str("rules-out"),
		CheckpointPath:  sc.Str("checkpoint"),
		FS:              b.env.FS,
		Core:            coreCfg,
		Clock:           b.clock,
		Metrics:         b.env.Metrics,
		Log:             b.env.Log,
		Registry:        models,
		Shadow:          sc.Bool("shadow"),
		Drop:            sc.Bool("drop") || sc.Str("drop-rules") != "",
	}
	if pc.Drop && pc.Metrics != nil {
		// NewPipeline registers the embedded stage under ixps_dropper_*;
		// a standalone dropper segment in the same config must not
		// double-register the families.
		b.dropperMetricsClaimed = true
	}
	s := &scrubberSegment{
		b:             b,
		pipe:          ixpsim.NewPipeline(pc),
		dropRulesPath: sc.Str("drop-rules"),
		importPath:    sc.Str("import"),
	}
	b.scrubber = s
	return s, nil
}

func (s *scrubberSegment) EmitBatch(recs []netflow.Record) { s.pipe.EmitBatch(recs) }

// Pipe exposes the underlying detection pipeline.
func (s *scrubberSegment) Pipe() *ixpsim.Pipeline { return s.pipe }

// Start replays the daemon's exact startup order: static drop rules seed
// the fast path, the checkpoint restores over them (fresher verdicts take
// precedence), an imported classifier installs as challenger, then the
// queue consumer starts.
func (s *scrubberSegment) Start(ctx context.Context) error {
	log := s.b.env.log()
	if s.dropRulesPath != "" {
		text, err := os.ReadFile(s.dropRulesPath)
		if err != nil {
			return fmt.Errorf("drop-rules: %w", err)
		}
		rules, err := dropper.ParseRules(string(text))
		if err != nil {
			return fmt.Errorf("drop-rules %s: %w", s.dropRulesPath, err)
		}
		s.pipe.Dropper().Swap(dropper.Compile(rules))
		log.Info("static drop rules compiled", "path", s.dropRulesPath, "rules", len(rules))
	}
	if _, err := s.pipe.RestoreCheckpoint(); err != nil {
		log.Warn("checkpoint restore failed, starting cold", "err", err)
	}
	if s.importPath != "" {
		bundle, err := os.ReadFile(s.importPath)
		if err != nil {
			return fmt.Errorf("import-classifier: %w", err)
		}
		if err := s.pipe.ImportClassifier(ctx, bundle); err != nil {
			return fmt.Errorf("import-classifier: %w", err)
		}
		log.Info("classifier-only bundle imported as challenger", "path", s.importPath)
	}
	s.pipe.Start(ctx)
	return nil
}

// Close drains the ingest queue through the consumer and stops it.
func (s *scrubberSegment) Close() error {
	s.pipe.Stop()
	return nil
}

// --- jsonl / csv archives -----------------------------------------------

// archiveSegment writes every record to a file, then forwards the stream —
// outputs are taps, not sinks, so they compose down a chain.
type archiveSegment struct {
	next   EmitFunc
	path   string
	header string
	render func(w *bufio.Writer, r *netflow.Record) error

	mu        sync.Mutex
	f         *os.File
	w         *bufio.Writer
	delivered atomic.Uint64
	errs      atomic.Uint64
}

// Delivered returns records written to the archive so far.
func (s *archiveSegment) Delivered() uint64 { return s.delivered.Load() }

// WriteErrors returns records lost to write failures.
func (s *archiveSegment) WriteErrors() uint64 { return s.errs.Load() }

func buildJSONL(b *builder, sc *SegmentConfig, next EmitFunc) (Instance, error) {
	return &archiveSegment{
		next: next,
		path: sc.Str("path"),
		render: func(w *bufio.Writer, r *netflow.Record) error {
			data, err := json.Marshal(r)
			if err != nil {
				return err
			}
			if _, err := w.Write(data); err != nil {
				return err
			}
			return w.WriteByte('\n')
		},
	}, nil
}

const csvHeader = "timestamp,src_ip,src_port,dst_ip,dst_port,protocol,tcp_flags,fragment,packets,bytes,sampling_rate,blackholed\n"

func buildCSV(b *builder, sc *SegmentConfig, next EmitFunc) (Instance, error) {
	return &archiveSegment{
		next:   next,
		path:   sc.Str("path"),
		header: csvHeader,
		render: func(w *bufio.Writer, r *netflow.Record) error {
			_, err := fmt.Fprintf(w, "%d,%s,%d,%s,%d,%d,%d,%t,%d,%d,%d,%t\n",
				r.Timestamp, r.SrcIP, r.SrcPort, r.DstIP, r.DstPort,
				r.Protocol, r.TCPFlags, r.Fragment, r.Packets, r.Bytes,
				r.SamplingRate, r.Blackholed)
			return err
		},
	}, nil
}

func (s *archiveSegment) Start(context.Context) error {
	f, err := os.Create(s.path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	if s.header != "" {
		if _, err := w.WriteString(s.header); err != nil {
			f.Close()
			return err
		}
	}
	s.mu.Lock()
	s.f, s.w = f, w
	s.mu.Unlock()
	return nil
}

func (s *archiveSegment) EmitBatch(recs []netflow.Record) {
	s.mu.Lock()
	if s.w != nil {
		for i := range recs {
			if err := s.render(s.w, &recs[i]); err != nil {
				s.errs.Add(1)
				continue
			}
			s.delivered.Add(1)
		}
	}
	s.mu.Unlock()
	if s.next != nil {
		s.next(recs)
	}
}

func (s *archiveSegment) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.w.Flush()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f, s.w = nil, nil
	return err
}

// --- metrics sink -------------------------------------------------------

// metricsSegment counts the stream onto /metrics under the
// ixps_pipeline_sink_* families, labeled by sink name, and forwards it.
type metricsSegment struct {
	next EmitFunc

	records    atomic.Uint64
	packets    atomic.Uint64
	bytes      atomic.Uint64
	blackholed atomic.Uint64
}

// Delivered returns records counted by this sink.
func (s *metricsSegment) Delivered() uint64 { return s.records.Load() }

func buildMetricsSink(b *builder, sc *SegmentConfig, next EmitFunc) (Instance, error) {
	s := &metricsSegment{next: next}
	if r := b.env.Metrics; r != nil {
		name := sc.Str("name")
		u64 := func(a *atomic.Uint64) func() float64 {
			return func() float64 { return float64(a.Load()) }
		}
		r.CounterVec("ixps_pipeline_sink_records_total",
			"Records delivered to each pipeline sink.", "sink").
			WithFunc(u64(&s.records), name)
		r.CounterVec("ixps_pipeline_sink_packets_total",
			"Estimated packets (sampling-scaled) delivered to each pipeline sink.", "sink").
			WithFunc(u64(&s.packets), name)
		r.CounterVec("ixps_pipeline_sink_bytes_total",
			"Estimated bytes (sampling-scaled) delivered to each pipeline sink.", "sink").
			WithFunc(u64(&s.bytes), name)
		r.CounterVec("ixps_pipeline_sink_blackholed_total",
			"Blackholed-labeled records delivered to each pipeline sink.", "sink").
			WithFunc(u64(&s.blackholed), name)
	}
	return s, nil
}

func (s *metricsSegment) EmitBatch(recs []netflow.Record) {
	var pkts, bytes, bh uint64
	for i := range recs {
		pkts += recs[i].Packets
		bytes += recs[i].Bytes
		if recs[i].Blackholed {
			bh++
		}
	}
	s.records.Add(uint64(len(recs)))
	s.packets.Add(pkts)
	s.bytes.Add(bytes)
	s.blackholed.Add(bh)
	if s.next != nil {
		s.next(recs)
	}
}

func (s *metricsSegment) Start(context.Context) error { return nil }
func (s *metricsSegment) Close() error                { return nil }

// --- tee ----------------------------------------------------------------

// teeSegment fans the stream out: every batch is offered to each branch's
// bounded queue (which copies it), and per-branch consumer goroutines
// drive the branch chains concurrently. Conservation is per branch:
// records in == records delivered + records dropped by the queue policy,
// all counted in the branch's QueueStats.
type teeSegment struct {
	b        *builder
	branches []*teeBranch
	wg       sync.WaitGroup
}

type teeBranch struct {
	name  string
	queue *netflow.Queue
	segs  []*builtSegment
	head  EmitFunc
}

func buildTee(b *builder, sc *SegmentConfig, next EmitFunc) (Instance, error) {
	capBatches := int(sc.Int("queue-cap"))
	policy, _ := netflow.ParseDropPolicy(sc.Str("policy")) // enum-validated
	t := &teeSegment{b: b}
	for bi := range sc.Branches {
		br := &sc.Branches[bi]
		segs, head, err := buildChain(b, br.Pipeline, br.Name)
		if err != nil {
			return nil, fmt.Errorf("branch %q: %w", br.Name, err)
		}
		q := netflow.NewQueue(capBatches, policy)
		if b.env.Metrics != nil {
			q.RegisterMetrics(b.env.Metrics, "tee:"+br.Name)
		}
		t.branches = append(t.branches, &teeBranch{name: br.Name, queue: q, segs: segs, head: head})
	}
	return t, nil
}

func (t *teeSegment) EmitBatch(recs []netflow.Record) {
	for _, br := range t.branches {
		br.queue.Put(recs)
	}
}

func (t *teeSegment) Start(ctx context.Context) error {
	for _, br := range t.branches {
		for i := len(br.segs) - 1; i >= 0; i-- {
			if err := br.segs[i].inst.Start(ctx); err != nil {
				return fmt.Errorf("branch %q segment %s: %w", br.name, br.segs[i].label, err)
			}
		}
	}
	for _, br := range t.branches {
		br := br
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			for {
				// Background context: shutdown is Close draining the
				// queue, not context cancellation — records already
				// admitted must reach their sinks.
				batch, ok := br.queue.Get(context.Background())
				if !ok {
					return
				}
				br.head(batch)
			}
		}()
	}
	return nil
}

// Close drains every branch queue, stops the consumers, then closes the
// branch chains upstream-first.
func (t *teeSegment) Close() error {
	for _, br := range t.branches {
		br.queue.Close()
	}
	t.wg.Wait()
	var first error
	for _, br := range t.branches {
		for _, s := range br.segs {
			if err := s.inst.Close(); err != nil && first == nil {
				first = fmt.Errorf("branch %q segment %s: %w", br.name, s.label, err)
			}
		}
	}
	return first
}

// BranchNames lists the tee's branches in config order.
func (t *teeSegment) BranchNames() []string {
	out := make([]string, len(t.branches))
	for i, br := range t.branches {
		out[i] = br.name
	}
	return out
}

// BranchStats returns the named branch's queue conservation counters.
func (t *teeSegment) BranchStats(name string) *netflow.QueueStats {
	for _, br := range t.branches {
		if br.name == name {
			return &br.queue.Stats
		}
	}
	return nil
}

// BranchInstances returns the named branch's segment instances head-first.
func (t *teeSegment) BranchInstances(name string) []Instance {
	for _, br := range t.branches {
		if br.name == name {
			out := make([]Instance, len(br.segs))
			for i, s := range br.segs {
				out[i] = s.inst
			}
			return out
		}
	}
	return nil
}
