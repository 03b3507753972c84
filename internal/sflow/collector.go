package sflow

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/netip"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/packet"
)

// Labeler decides whether a destination IP was blackholed at a given time.
// *bgp.Registry's Covered method satisfies this signature.
type Labeler func(ip netip.Addr, at int64) bool

// CollectorStats counts collector activity; all fields are updated
// atomically and safe to read concurrently.
type CollectorStats struct {
	Datagrams  atomic.Uint64
	Samples    atomic.Uint64
	Records    atomic.Uint64
	Truncated  atomic.Uint64 // datagrams rejected as truncated
	DecodeErrs atomic.Uint64 // datagrams/samples malformed beyond truncation
	NonIP      atomic.Uint64
	Blackholed atomic.Uint64
	Panics     atomic.Uint64 // datagram handlers that panicked (recovered)
}

// DefaultBatchSize is the record batch delivered downstream per EmitBatch
// call. 256 records amortize the downstream lock and channel costs to noise
// while still flushing several times per second at IXP-scale sample rates.
const DefaultBatchSize = 256

// DefaultFlushInterval bounds how long a partial batch may sit in the
// collector when the datagram stream pauses.
const DefaultFlushInterval = 50 * time.Millisecond

// dgPool recycles decode scratch across datagrams (and across collectors):
// the Datagram's Samples array is the only per-datagram allocation of the
// decode path, so reusing it makes HandleDatagram allocation-free at steady
// state.
var dgPool = sync.Pool{New: func() any { return new(Datagram) }}

// Collector receives sFlow v5 datagrams over UDP, converts each flow sample
// into a netflow.Record (scaling packet and byte counts by the sampling
// rate), labels it against the blackhole registry, and hands it downstream.
type Collector struct {
	// Label classifies destination IPs; nil means nothing is blackholed.
	Label Labeler
	// EmitBatch receives converted records in batches of up to BatchSize.
	// The slice (and its records) is reused after the call returns:
	// receivers must consume or copy it synchronously. Nil discards the
	// records (the counters still run).
	EmitBatch func([]netflow.Record)
	// BatchSize caps the EmitBatch batch; 0 means DefaultBatchSize.
	BatchSize int
	// FlushInterval bounds the latency of a partial batch while the
	// datagram stream is idle; 0 means DefaultFlushInterval. Only Listen
	// enforces it (HandleDatagram callers flush explicitly).
	FlushInterval time.Duration
	// Clock supplies record timestamps; defaults to time.Now().Unix.
	Clock func() int64
	Log   *slog.Logger

	Stats CollectorStats

	// batch accumulates records across datagrams until BatchSize is
	// reached. HandleDatagram and Flush must be called from one goroutine
	// at a time (Listen is that goroutine); Stats stays atomic so scrapes
	// may race freely.
	batch []netflow.Record
}

// SampleToRecord converts one flow sample into a flow record. It returns
// false when the sample does not contain a decodable IP packet.
func (c *Collector) SampleToRecord(s *FlowSample, at int64, rec *netflow.Record) bool {
	var p packet.Packet
	if err := p.Decode(s.Header); err != nil {
		c.Stats.DecodeErrs.Add(1)
		return false
	}
	rate := s.SamplingRate
	if rate == 0 {
		rate = 1
	}
	*rec = netflow.Record{
		Timestamp:    at,
		Protocol:     uint8(p.Protocol()),
		SrcMAC:       p.Eth.SrcMAC,
		DstMAC:       p.Eth.DstMAC,
		Packets:      uint64(rate),
		Bytes:        uint64(rate) * uint64(s.FrameLength),
		SamplingRate: rate,
	}
	switch {
	case p.Has(packet.LayerIPv4):
		rec.SrcIP = netip.AddrFrom4(p.IP4.SrcIP)
		rec.DstIP = netip.AddrFrom4(p.IP4.DstIP)
		rec.Fragment = p.IP4.FragOffset != 0
	case p.Has(packet.LayerIPv6):
		rec.SrcIP = netip.AddrFrom16(p.IP6.SrcIP)
		rec.DstIP = netip.AddrFrom16(p.IP6.DstIP)
	default:
		c.Stats.NonIP.Add(1)
		return false
	}
	rec.SrcPort, rec.DstPort = p.Ports()
	if p.Has(packet.LayerTCP) {
		rec.TCPFlags = p.TCP.Flags
	}
	if c.Label != nil && c.Label(rec.DstIP, at) {
		rec.Blackholed = true
		c.Stats.Blackholed.Add(1)
	}
	return true
}

func (c *Collector) batchSize() int {
	if c.BatchSize > 0 {
		return c.BatchSize
	}
	return DefaultBatchSize
}

// HandleDatagram decodes one datagram payload and appends its records to
// the pending batch, delivered to EmitBatch once BatchSize accumulates —
// call Flush to force a partial batch out. Not safe for concurrent calls
// with itself or Flush.
func (c *Collector) HandleDatagram(data []byte) {
	d := dgPool.Get().(*Datagram)
	defer dgPool.Put(d)
	if err := DecodeInto(d, data); err != nil {
		if errors.Is(err, ErrTruncated) {
			c.Stats.Truncated.Add(1)
		} else {
			c.Stats.DecodeErrs.Add(1)
		}
		if c.Log != nil {
			c.Log.Debug("sflow decode failed", "err", err)
		}
		return
	}
	c.Stats.Datagrams.Add(1)
	c.Stats.Samples.Add(uint64(len(d.Samples)))
	at := c.now()
	var records uint64
	size := c.batchSize()
	for i := range d.Samples {
		// Convert straight into the batch slot: no per-record copies.
		if len(c.batch) < cap(c.batch) {
			c.batch = c.batch[:len(c.batch)+1]
		} else {
			c.batch = append(c.batch, netflow.Record{})
		}
		slot := &c.batch[len(c.batch)-1]
		if !c.SampleToRecord(&d.Samples[i], at, slot) {
			c.batch = c.batch[:len(c.batch)-1]
			continue
		}
		records++
		if len(c.batch) >= size {
			c.flushBatch()
		}
	}
	c.Stats.Records.Add(records)
}

// safeHandle isolates a panic in the datagram path (a decode bug tripped by
// hostile input, a panicking Label or EmitBatch hook) to the one datagram:
// the collector counts it, discards the possibly half-converted pending
// batch, and keeps receiving. One poisoned exporter must not take the whole
// collector goroutine down with it.
func (c *Collector) safeHandle(data []byte) {
	defer func() {
		if r := recover(); r != nil {
			c.Stats.Panics.Add(1)
			c.batch = c.batch[:0]
			if c.Log != nil {
				c.Log.Error("sflow datagram handler panicked", "panic", r)
			}
		}
	}()
	c.HandleDatagram(data)
}

// Flush delivers a pending partial batch downstream.
func (c *Collector) Flush() { c.flushBatch() }

func (c *Collector) flushBatch() {
	if len(c.batch) > 0 && c.EmitBatch != nil {
		c.EmitBatch(c.batch)
	}
	c.batch = c.batch[:0]
}

func (c *Collector) now() int64 {
	if c.Clock != nil {
		return c.Clock()
	}
	return time.Now().Unix()
}

// Listen receives datagrams on conn until the context is canceled. It always
// closes conn before returning. While a partial batch is pending, reads run
// under FlushInterval deadlines so an idle stream cannot strand records in
// the collector.
func (c *Collector) Listen(ctx context.Context, conn net.PacketConn) error {
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
		case <-done:
		}
		conn.Close()
	}()

	flushEvery := c.FlushInterval
	if flushEvery <= 0 {
		flushEvery = DefaultFlushInterval
	}
	buf := make([]byte, 65536)
	armed := false // a read deadline is set iff a partial batch is pending
	for {
		if pending := len(c.batch) > 0; pending != armed {
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
				c.flushBatch()
				continue
			}
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				c.flushBatch()
				return nil
			}
			return fmt.Errorf("sflow: read: %w", err)
		}
		c.safeHandle(buf[:n])
	}
}

// Exporter sends sFlow datagrams over UDP; the simulated IXP fabric uses it
// to emulate member switches.
type Exporter struct {
	conn  net.Conn
	agent netip.Addr
	seq   uint32
	buf   []byte
}

// NewExporter dials the collector address.
func NewExporter(collectorAddr string, agent netip.Addr) (*Exporter, error) {
	conn, err := net.Dial("udp", collectorAddr)
	if err != nil {
		return nil, fmt.Errorf("sflow: dial %s: %w", collectorAddr, err)
	}
	return &Exporter{conn: conn, agent: agent}, nil
}

// Send exports a batch of flow samples as one datagram.
func (e *Exporter) Send(samples []FlowSample) error {
	e.seq++
	d := Datagram{
		AgentAddress: e.agent,
		Sequence:     e.seq,
		Uptime:       e.seq * 1000,
		Samples:      samples,
	}
	buf, err := Append(e.buf[:0], &d)
	if err != nil {
		return err
	}
	e.buf = buf
	if _, err := e.conn.Write(buf); err != nil {
		return fmt.Errorf("sflow: send: %w", err)
	}
	return nil
}

// Close releases the exporter's socket.
func (e *Exporter) Close() error { return e.conn.Close() }
