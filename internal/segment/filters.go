package segment

import (
	"context"
	"fmt"
	"os"
	"sync"

	"github.com/ixp-scrubber/ixpscrubber/internal/balance"
	"github.com/ixp-scrubber/ixpscrubber/internal/dropper"
	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
)

// --- dropper ------------------------------------------------------------

// dropperSegment wraps the compiled mitigation stage as a standalone
// filter: records matching the live flat program drop out of the stream in
// place, survivors forward. Inside a scrubber-terminated pipeline the
// scrubber's own embedded stage (drop: true) is the right tool — it is
// what checkpoint restore and training rounds hot-swap; this segment
// serves topologies without a scrubber (offline archiving, tee branches).
type dropperSegment struct {
	stage *dropper.Stage
}

func buildDropper(b *builder, sc *SegmentConfig, next EmitFunc) (Instance, error) {
	stage := dropper.NewStage(next)
	if path := sc.Str("rules"); path != "" {
		text, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("rules: %w", err)
		}
		rules, err := dropper.ParseRules(string(text))
		if err != nil {
			return nil, fmt.Errorf("rules %s: %w", path, err)
		}
		stage.Swap(dropper.Compile(rules))
	}
	// The ixps_dropper_* families are singletons shared with the
	// scrubber's embedded stage; first registrant wins (the scrubber
	// builds first — chains assemble back to front).
	if b.env.Metrics != nil && !b.dropperMetricsClaimed {
		b.dropperMetricsClaimed = true
		stage.RegisterMetrics(b.env.Metrics)
	}
	return &dropperSegment{stage: stage}, nil
}

func (s *dropperSegment) EmitBatch(recs []netflow.Record) { s.stage.EmitBatch(recs) }
func (s *dropperSegment) Start(context.Context) error     { return nil }
func (s *dropperSegment) Close() error                    { return nil }

// --- balance ------------------------------------------------------------

// balanceSegment runs the per-minute balancer mid-stream: all blackholed
// records plus an equal-sized benign sample survive; the rest drop. Kept
// records re-batch before forwarding. Close flushes the final minute bin.
type balanceSegment struct {
	mu   sync.Mutex
	bal  *balance.Balancer[netflow.Record]
	out  []netflow.Record
	next EmitFunc
	size int
}

func buildBalance(b *builder, sc *SegmentConfig, next EmitFunc) (Instance, error) {
	s := &balanceSegment{next: next, size: int(sc.Int("batch"))}
	s.out = make([]netflow.Record, 0, s.size)
	s.bal = balance.ForRecords(uint64(sc.Int("seed")), s.keep)
	return s, nil
}

// keep runs under s.mu (Add/Flush callers hold it).
func (s *balanceSegment) keep(r netflow.Record) {
	s.out = append(s.out, r)
	if len(s.out) >= s.size {
		s.flushLocked()
	}
}

func (s *balanceSegment) flushLocked() {
	if len(s.out) == 0 {
		return
	}
	if s.next != nil {
		s.next(s.out)
	}
	s.out = s.out[:0]
}

func (s *balanceSegment) EmitBatch(recs []netflow.Record) {
	s.mu.Lock()
	s.bal.AddBatch(recs)
	s.mu.Unlock()
}

func (s *balanceSegment) Start(context.Context) error { return nil }

func (s *balanceSegment) Close() error {
	s.mu.Lock()
	s.bal.Flush()
	s.flushLocked()
	s.mu.Unlock()
	return nil
}

// --- sample -------------------------------------------------------------

// sampleSegment keeps every Nth record (deterministic, stream-position
// based), compacting batches in place like the dropper does.
type sampleSegment struct {
	mu    sync.Mutex
	every uint64
	seen  uint64
	next  EmitFunc
}

func buildSample(b *builder, sc *SegmentConfig, next EmitFunc) (Instance, error) {
	return &sampleSegment{every: uint64(sc.Int("every")), next: next}, nil
}

func (s *sampleSegment) EmitBatch(recs []netflow.Record) {
	if s.every <= 1 {
		if s.next != nil {
			s.next(recs)
		}
		return
	}
	s.mu.Lock()
	kept := recs[:0]
	for i := range recs {
		s.seen++
		if s.seen%s.every == 0 {
			kept = append(kept, recs[i])
		}
	}
	s.mu.Unlock()
	if len(kept) > 0 && s.next != nil {
		s.next(kept)
	}
}

func (s *sampleSegment) Start(context.Context) error { return nil }
func (s *sampleSegment) Close() error                { return nil }
