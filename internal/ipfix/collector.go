package ipfix

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/netip"
	"os"
	"sync/atomic"
	"time"

	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
)

// DefaultBatchSize mirrors sflow.DefaultBatchSize: the record batch
// delivered downstream per EmitBatch call.
const DefaultBatchSize = 256

// DefaultFlushInterval bounds how long a partial batch may wait while the
// message stream is idle.
const DefaultFlushInterval = 50 * time.Millisecond

// UDPCollector receives IPFIX messages over UDP, converts flow records to
// netflow.Records, labels them against the blackhole registry and hands
// them downstream — the IPFIX twin of sflow.Collector.
type UDPCollector struct {
	// Label classifies destination IPs at a timestamp (bgp.Registry.Covered).
	Label func(ip netip.Addr, at int64) bool
	// EmitBatch receives converted records in batches of up to BatchSize.
	// The slice is reused after the call returns: receivers must consume or
	// copy it synchronously. Nil discards the records (the counters still
	// run).
	EmitBatch func([]netflow.Record)
	// BatchSize caps the EmitBatch batch; 0 means DefaultBatchSize.
	BatchSize int
	// FlushInterval bounds partial-batch latency in Listen; 0 means
	// DefaultFlushInterval.
	FlushInterval time.Duration
	Log           *slog.Logger

	Messages   atomic.Uint64
	Records    atomic.Uint64
	Truncated  atomic.Uint64 // messages rejected as truncated
	DecodeErrs atomic.Uint64 // messages malformed beyond truncation
	Blackholed atomic.Uint64
	Panics     atomic.Uint64 // message handlers that panicked (recovered)

	collector *Collector
	// recs is the decode scratch recycled across messages; batch
	// accumulates converted records until BatchSize. Handle and Flush must
	// be called from one goroutine at a time (Listen is that goroutine).
	recs  []Record
	batch []netflow.Record
}

func (u *UDPCollector) batchSize() int {
	if u.BatchSize > 0 {
		return u.BatchSize
	}
	return DefaultBatchSize
}

// Listen receives messages on conn until the context is canceled. While a
// partial batch is pending, reads run under FlushInterval deadlines so an
// idle stream cannot strand records in the collector.
func (u *UDPCollector) Listen(ctx context.Context, conn net.PacketConn) error {
	if u.collector == nil {
		u.collector = NewCollector()
	}
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
		case <-done:
		}
		conn.Close()
	}()

	flushEvery := u.FlushInterval
	if flushEvery <= 0 {
		flushEvery = DefaultFlushInterval
	}
	buf := make([]byte, 65536)
	armed := false // a read deadline is set iff a partial batch is pending
	for {
		if pending := len(u.batch) > 0; pending != armed {
			armed = pending
			var deadline time.Time
			if pending {
				deadline = time.Now().Add(flushEvery)
			}
			_ = conn.SetReadDeadline(deadline)
		} else if armed {
			_ = conn.SetReadDeadline(time.Now().Add(flushEvery))
		}
		n, _, err := conn.ReadFrom(buf)
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				u.flushBatch()
				continue
			}
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				u.flushBatch()
				return nil
			}
			return fmt.Errorf("ipfix: read: %w", err)
		}
		u.safeHandle(buf[:n])
	}
}

// safeHandle isolates a panic in the message path to the one message, like
// sflow.Collector: count it, drop the possibly half-converted pending
// batch, keep receiving.
func (u *UDPCollector) safeHandle(data []byte) {
	defer func() {
		if r := recover(); r != nil {
			u.Panics.Add(1)
			u.batch = u.batch[:0]
			if u.Log != nil {
				u.Log.Error("ipfix message handler panicked", "panic", r)
			}
		}
	}()
	u.Handle(data)
}

// Handle processes one message payload. Not safe for concurrent calls with
// itself or Flush.
func (u *UDPCollector) Handle(data []byte) {
	if u.collector == nil {
		u.collector = NewCollector()
	}
	recs, err := u.collector.DecodeAppend(u.recs[:0], data)
	u.recs = recs
	if err != nil && !errors.Is(err, ErrUnknownTemplate) {
		if errors.Is(err, ErrTruncated) {
			u.Truncated.Add(1)
		} else {
			u.DecodeErrs.Add(1)
		}
		if u.Log != nil {
			u.Log.Debug("ipfix decode failed", "err", err)
		}
		return
	}
	u.Messages.Add(1)
	var blackholed uint64
	size := u.batchSize()
	for i := range recs {
		// Convert straight into the batch slot: no per-record copies.
		if len(u.batch) < cap(u.batch) {
			u.batch = u.batch[:len(u.batch)+1]
		} else {
			u.batch = append(u.batch, netflow.Record{})
		}
		slot := &u.batch[len(u.batch)-1]
		*slot = ToNetflow(&recs[i])
		if u.Label != nil && u.Label(slot.DstIP, slot.Timestamp) {
			slot.Blackholed = true
			blackholed++
		}
		if len(u.batch) >= size {
			u.flushBatch()
		}
	}
	u.Records.Add(uint64(len(recs)))
	if blackholed > 0 {
		u.Blackholed.Add(blackholed)
	}
}

// Flush delivers a pending partial batch downstream.
func (u *UDPCollector) Flush() { u.flushBatch() }

func (u *UDPCollector) flushBatch() {
	if len(u.batch) > 0 && u.EmitBatch != nil {
		u.EmitBatch(u.batch)
	}
	u.batch = u.batch[:0]
}

// ToNetflow converts an IPFIX record into the pipeline's flow record.
func ToNetflow(r *Record) netflow.Record {
	return netflow.Record{
		Timestamp:    int64(r.StartSeconds),
		SrcIP:        r.SrcIP,
		DstIP:        r.DstIP,
		SrcPort:      r.SrcPort,
		DstPort:      r.DstPort,
		Protocol:     r.Protocol,
		TCPFlags:     r.TCPFlags,
		Fragment:     r.Fragment,
		SrcMAC:       r.SrcMAC,
		DstMAC:       r.DstMAC,
		Packets:      r.Packets,
		Bytes:        r.Bytes,
		SamplingRate: r.SamplingRate,
	}
}

// FromNetflow converts a pipeline record into an IPFIX record for export.
func FromNetflow(r *netflow.Record) Record {
	return Record{
		StartSeconds: uint32(r.Timestamp),
		SrcIP:        r.SrcIP,
		DstIP:        r.DstIP,
		SrcPort:      r.SrcPort,
		DstPort:      r.DstPort,
		Protocol:     r.Protocol,
		TCPFlags:     r.TCPFlags,
		Fragment:     r.Fragment,
		SrcMAC:       r.SrcMAC,
		DstMAC:       r.DstMAC,
		Packets:      r.Packets,
		Bytes:        r.Bytes,
		SamplingRate: r.SamplingRate,
	}
}
