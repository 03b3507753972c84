package segment

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ixp-scrubber/ixpscrubber/internal/ipfix"
	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/packet"
	"github.com/ixp-scrubber/ixpscrubber/internal/sflow"
)

// passThrough gives input segments the Feed contract: a batch injected at
// the head of the pipeline skips the socket/file machinery and flows
// straight downstream.
type passThrough struct{ next EmitFunc }

func (s *passThrough) EmitBatch(recs []netflow.Record) {
	if s.next != nil {
		s.next(recs)
	}
}

// --- sflow / ipfix listeners -------------------------------------------

// listenerSegment runs one UDP collector (sFlow or IPFIX) as an input.
type listenerSegment struct {
	passThrough
	b      *builder
	addr   string
	listen func(ctx context.Context, conn net.PacketConn) error
	conn   net.PacketConn
	wg     sync.WaitGroup
}

func buildSflow(b *builder, sc *SegmentConfig, next EmitFunc) (Instance, error) {
	c := &sflow.Collector{
		Label:         b.env.Label,
		EmitBatch:     next,
		BatchSize:     int(sc.Int("batch")),
		FlushInterval: sc.Dur("flush"),
		Clock:         b.clock,
		Log:           b.env.Log,
	}
	if b.env.Metrics != nil {
		c.RegisterMetrics(b.env.Metrics)
	}
	return &listenerSegment{
		passThrough: passThrough{next: next},
		b:           b, addr: sc.Str("listen"), listen: c.Listen,
	}, nil
}

func buildIpfix(b *builder, sc *SegmentConfig, next EmitFunc) (Instance, error) {
	c := &ipfix.UDPCollector{
		Label:         b.env.Label,
		EmitBatch:     next,
		BatchSize:     int(sc.Int("batch")),
		FlushInterval: sc.Dur("flush"),
		Log:           b.env.Log,
	}
	if b.env.Metrics != nil {
		c.RegisterMetrics(b.env.Metrics)
	}
	return &listenerSegment{
		passThrough: passThrough{next: next},
		b:           b, addr: sc.Str("listen"), listen: c.Listen,
	}, nil
}

func (s *listenerSegment) Start(ctx context.Context) error {
	conn, err := s.b.env.listenPacket("udp", s.addr)
	if err != nil {
		return err
	}
	s.conn = conn
	log := s.b.env.log()
	log.Info("segment listener up", "addr", conn.LocalAddr())
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := s.listen(ctx, conn); err != nil {
			log.Error("segment listener failed", "addr", s.addr, "err", err)
		}
	}()
	return nil
}

func (s *listenerSegment) Close() error {
	if s.conn != nil {
		// Listen treats a closed conn as clean shutdown: it flushes the
		// pending partial batch and returns.
		_ = s.conn.Close()
	}
	s.wg.Wait()
	return nil
}

// --- netflow file replay ------------------------------------------------

// fileInput is the shared scaffolding of the finite file-driven inputs:
// a reader goroutine plus Done bookkeeping.
type fileInput struct {
	passThrough
	b    *builder
	path string
	run  func(ctx context.Context)
	wg   sync.WaitGroup

	emitted atomic.Uint64
}

func (s *fileInput) Start(ctx context.Context) error {
	s.b.finite.Add(1)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer s.b.finite.Done()
		s.run(ctx)
	}()
	return nil
}

func (s *fileInput) Close() error {
	s.wg.Wait()
	return nil
}

type netflowFileSegment struct{ fileInput }

func buildNetflowFile(b *builder, sc *SegmentConfig, next EmitFunc) (Instance, error) {
	s := &netflowFileSegment{fileInput{
		passThrough: passThrough{next: next},
		b:           b, path: sc.Str("path"),
	}}
	batch := int(sc.Int("batch"))
	virtual := sc.Str("clock") == "virtual"
	b.nFinal++
	s.run = func(ctx context.Context) {
		log := b.env.log()
		f, err := os.Open(s.path)
		if err != nil {
			log.Error("netflow input: open failed", "path", s.path, "err", err)
			return
		}
		defer f.Close()
		r := netflow.NewReader(f)
		if b.env.Metrics != nil {
			r.RegisterMetrics(b.env.Metrics)
		}
		buf := make([]netflow.Record, batch)
		for ctx.Err() == nil {
			n, err := r.ReadBatch(buf)
			if n > 0 {
				s.deliver(buf[:n], virtual)
			}
			if err != nil {
				if !errors.Is(err, io.EOF) {
					log.Error("netflow input: read failed", "path", s.path, "err", err)
				}
				return
			}
		}
	}
	return s, nil
}

// deliver advances the virtual clock to the batch's newest timestamp, then
// emits. The clock moves before the records so a training tick racing the
// replay never sees records from the future.
func (s *fileInput) deliver(batch []netflow.Record, virtual bool) {
	if virtual && s.b.vclk != nil {
		max := batch[0].Timestamp
		for i := 1; i < len(batch); i++ {
			if batch[i].Timestamp > max {
				max = batch[i].Timestamp
			}
		}
		s.b.vclk.Set(max)
	}
	s.emitted.Add(uint64(len(batch)))
	if s.next != nil {
		s.next(batch)
	}
}

// --- pcap replay --------------------------------------------------------

type replaySegment struct{ fileInput }

func buildReplay(b *builder, sc *SegmentConfig, next EmitFunc) (Instance, error) {
	s := &replaySegment{fileInput{
		passThrough: passThrough{next: next},
		b:           b, path: sc.Str("path"),
	}}
	batch := int(sc.Int("batch"))
	rate := uint32(sc.Int("sampling-rate"))
	speed := sc.Float("speed")
	virtual := sc.Str("clock") == "virtual"
	b.nFinal++
	s.run = func(ctx context.Context) {
		log := b.env.log()
		f, err := os.Open(s.path)
		if err != nil {
			log.Error("replay input: open failed", "path", s.path, "err", err)
			return
		}
		defer f.Close()
		// Frames convert through the same sample→record path the live
		// sFlow collector uses, so an offline replay scores identically
		// to the wire.
		conv := &sflow.Collector{Label: b.env.Label}
		r := packet.NewPcapReader(f)
		buf := make([]netflow.Record, 0, batch)
		var frame packet.PcapFrame
		var sample sflow.FlowSample
		var baseTs, baseWall int64 // pacing anchors (unix micros)
		for ctx.Err() == nil {
			if err := r.ReadInto(&frame); err != nil {
				if !errors.Is(err, io.EOF) {
					log.Error("replay input: read failed", "path", s.path, "err", err)
				}
				break
			}
			ts := frame.TsSec
			if speed > 0 {
				nowMicro := time.Now().UnixMicro()
				tsMicro := frame.TsSec*1e6 + frame.TsMicro
				if baseWall == 0 {
					baseWall, baseTs = nowMicro, tsMicro
				} else if lag := float64(tsMicro-baseTs)/speed - float64(nowMicro-baseWall); lag > 0 {
					select {
					case <-ctx.Done():
					case <-time.After(time.Duration(lag) * time.Microsecond):
					}
				}
			}
			sample = sflow.FlowSample{
				SamplingRate: rate,
				FrameLength:  uint32(frame.OrigLen),
				Header:       frame.Data,
			}
			buf = buf[:len(buf)+1]
			if !conv.SampleToRecord(&sample, ts, &buf[len(buf)-1]) {
				buf = buf[:len(buf)-1]
				continue
			}
			if len(buf) == batch {
				s.deliver(buf, virtual)
				buf = buf[:0]
			}
		}
		if len(buf) > 0 {
			s.deliver(buf, virtual)
		}
	}
	return s, nil
}

// --- diskbuffer ---------------------------------------------------------

// diskbufferSegment is the spill-to-disk WAL: every live batch journals to
// an append-only spill file before forwarding downstream (write-ahead:
// the disk has the records before the next hop does), and on Start any
// spill files left by a crashed run replay downstream first. A clean
// Close removes the current run's spill — its records were all delivered
// — so leftover files exist exactly when delivery wasn't confirmed, and
// recovery is at-least-once.
//
// At the head of a pipeline it is a pure replay input (drain the spill of
// a crashed run, then done); mid-stream it is a durability hop.
type diskbufferSegment struct {
	b     *builder
	next  EmitFunc
	dir   string
	sync  bool
	batch int
	head  bool // first segment: finite replay-only input

	mu       sync.Mutex
	f        *os.File
	w        *netflow.Writer
	replayed atomic.Uint64 // records replayed from spill files
	journal  atomic.Uint64 // records journaled this run
	closed   bool

	wg sync.WaitGroup
}

func buildDiskbuffer(b *builder, sc *SegmentConfig, next EmitFunc) (Instance, error) {
	return &diskbufferSegment{
		b:     b,
		next:  next,
		dir:   sc.Str("dir"),
		sync:  sc.Bool("sync"),
		batch: int(sc.Int("batch")),
		head:  isHead(b.cfg, sc),
	}, nil
}

// isHead reports whether sc is the first segment of the main pipeline.
func isHead(cfg *Config, sc *SegmentConfig) bool {
	return len(cfg.Pipeline) > 0 && &cfg.Pipeline[0] == sc
}

// Replayed returns how many spilled records this run replayed downstream.
func (s *diskbufferSegment) Replayed() uint64 { return s.replayed.Load() }

// Journaled returns how many live records this run journaled to its spill.
func (s *diskbufferSegment) Journaled() uint64 { return s.journal.Load() }

func (s *diskbufferSegment) Start(ctx context.Context) error {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	leftover, err := filepath.Glob(filepath.Join(s.dir, "spill-*.wal"))
	if err != nil {
		return err
	}
	sort.Strings(leftover)
	if s.head {
		// Head position: the spill is the whole input. Replay async so
		// Start stays non-blocking, and count it as a finite source.
		s.b.finite.Add(1)
		s.b.nFinal++
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.b.finite.Done()
			s.replayFiles(ctx, leftover)
		}()
		return nil
	}
	// Mid-stream: drain the crashed run's spill into the (already started)
	// downstream before live traffic interleaves, then open this run's
	// journal.
	s.replayFiles(ctx, leftover)
	f, err := os.CreateTemp(s.dir, "spill-*.wal")
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.f, s.w = f, netflow.NewWriter(f)
	s.mu.Unlock()
	return nil
}

func (s *diskbufferSegment) replayFiles(ctx context.Context, files []string) {
	log := s.b.env.log()
	buf := make([]netflow.Record, s.batch)
	for _, path := range files {
		if ctx.Err() != nil {
			return
		}
		n, err := s.replayFile(ctx, path, buf)
		if err != nil {
			// A truncated tail (crash mid-write) delivers what decodes
			// and drops the torn record — the WAL's atom is one record.
			log.Warn("diskbuffer: spill replay stopped early", "path", path, "records", n, "err", err)
		}
		if err := os.Remove(path); err != nil {
			log.Error("diskbuffer: removing replayed spill failed", "path", path, "err", err)
		}
		log.Info("diskbuffer: spill replayed", "path", path, "records", n)
	}
}

func (s *diskbufferSegment) replayFile(ctx context.Context, path string, buf []netflow.Record) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	r := netflow.NewReader(f)
	var total uint64
	for ctx.Err() == nil {
		n, err := r.ReadBatch(buf)
		if n > 0 {
			total += uint64(n)
			s.replayed.Add(uint64(n))
			if s.next != nil {
				s.next(buf[:n])
			}
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				return total, nil
			}
			return total, err
		}
	}
	return total, ctx.Err()
}

// EmitBatch journals the batch, then forwards it. A journal failure is
// counted and logged but never blocks the stream — durability degrades,
// delivery does not.
func (s *diskbufferSegment) EmitBatch(recs []netflow.Record) {
	s.mu.Lock()
	if s.w != nil && !s.closed {
		ok := true
		for i := range recs {
			if err := s.w.Write(&recs[i]); err != nil {
				s.b.env.log().Error("diskbuffer: journal write failed", "err", err)
				ok = false
				break
			}
		}
		if ok {
			if err := s.w.Flush(); err != nil {
				s.b.env.log().Error("diskbuffer: journal flush failed", "err", err)
			} else if s.sync {
				_ = s.f.Sync()
			}
			s.journal.Add(uint64(len(recs)))
		}
	}
	s.mu.Unlock()
	if s.next != nil {
		s.next(recs)
	}
}

func (s *diskbufferSegment) Close() error {
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.f == nil {
		return nil
	}
	// Clean shutdown: everything journaled was also forwarded, so the
	// spill has served its purpose and is removed. (A crash skips this —
	// that is the point.)
	name := s.f.Name()
	err := s.f.Close()
	s.f, s.w = nil, nil
	if rmErr := os.Remove(name); rmErr != nil && err == nil {
		err = rmErr
	}
	return err
}
