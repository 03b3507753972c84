package sflow

import (
	"context"
	"errors"
	"net"
	"net/netip"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/packet"
)

func udpFrame(src, dst [4]byte, srcPort, dstPort uint16, payload int) []byte {
	var b packet.Builder
	b.Ethernet(packet.MAC{2, 0, 0, 0, 0, 2}, packet.MAC{2, 0, 0, 0, 0, 1}, packet.EtherTypeIPv4, 0).
		IPv4(src, dst, packet.ProtoUDP, uint16(20+8+payload), packet.IPv4Opts{}).
		UDP(srcPort, dstPort, uint16(8+payload)).
		Payload(payload)
	return append([]byte(nil), b.Bytes()...)
}

func sampleDatagram() *Datagram {
	return &Datagram{
		AgentAddress: netip.MustParseAddr("10.0.0.5"),
		SubAgentID:   1,
		Sequence:     42,
		Uptime:       100000,
		Samples: []FlowSample{
			{
				Sequence:     1,
				SourceID:     7,
				SamplingRate: 2048,
				SamplePool:   2048,
				InputIf:      3,
				OutputIf:     4,
				FrameLength:  468,
				Header:       udpFrame([4]byte{192, 0, 2, 1}, [4]byte{198, 51, 100, 7}, 123, 4444, 100),
			},
			{
				Sequence:     2,
				SourceID:     7,
				SamplingRate: 2048,
				SamplePool:   4096,
				FrameLength:  1500,
				Header:       udpFrame([4]byte{192, 0, 2, 9}, [4]byte{203, 0, 113, 1}, 53, 5555, 64),
			},
		},
	}
}

func TestDatagramRoundTrip(t *testing.T) {
	d := sampleDatagram()
	buf, err := Append(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.AgentAddress != d.AgentAddress || got.Sequence != d.Sequence || got.SubAgentID != d.SubAgentID {
		t.Errorf("header = %+v", got)
	}
	if len(got.Samples) != 2 {
		t.Fatalf("samples = %d", len(got.Samples))
	}
	for i := range d.Samples {
		w, g := d.Samples[i], got.Samples[i]
		if g.SamplingRate != w.SamplingRate || g.FrameLength != w.FrameLength || g.SourceID != w.SourceID {
			t.Errorf("sample %d = %+v, want %+v", i, g, w)
		}
		if string(g.Header) != string(w.Header) {
			t.Errorf("sample %d header mismatch (%d vs %d bytes)", i, len(g.Header), len(w.Header))
		}
	}
}

func TestDatagramIPv6Agent(t *testing.T) {
	d := sampleDatagram()
	d.AgentAddress = netip.MustParseAddr("2001:db8::5")
	buf, err := Append(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.AgentAddress != d.AgentAddress {
		t.Errorf("agent = %v", got.AgentAddress)
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	buf, _ := Append(nil, sampleDatagram())
	buf[3] = 4
	if _, err := Decode(buf); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	buf, _ := Append(nil, sampleDatagram())
	for _, cut := range []int{1, 3, 7, 11, 27, 30, 60, len(buf) - 1} {
		if _, err := Decode(buf[:cut]); err == nil {
			t.Errorf("cut=%d: want error", cut)
		}
	}
}

func TestDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeSkipsUnknownSamples(t *testing.T) {
	d := sampleDatagram()
	buf, _ := Append(nil, d)
	// Splice a counter sample (format 2) in front by crafting a datagram
	// with sample count 1 whose sample has an unknown format.
	hdrEnd := 4 + 4 + 4 + 4 + 4 + 4 // version, addrtype, addr4, subagent, seq, uptime
	custom := append([]byte(nil), buf[:hdrEnd]...)
	custom = append(custom, 0, 0, 0, 2) // 2 samples
	custom = append(custom, 0, 0, 0, byte(sampleCounter), 0, 0, 0, 8, 1, 2, 3, 4, 5, 6, 7, 8)
	// Re-append one real flow sample from the original encoding.
	one, _ := Append(nil, &Datagram{AgentAddress: d.AgentAddress, Samples: d.Samples[:1]})
	custom = append(custom, one[hdrEnd+4:]...)

	got, err := Decode(custom)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Samples) != 1 {
		t.Fatalf("samples = %d, want 1 (counter sample skipped)", len(got.Samples))
	}
}

func TestSampleToRecord(t *testing.T) {
	c := &Collector{
		Label: func(ip netip.Addr, at int64) bool {
			return ip == netip.MustParseAddr("198.51.100.7")
		},
	}
	d := sampleDatagram()
	var rec netflow.Record
	if !c.SampleToRecord(&d.Samples[0], 1000, &rec) {
		t.Fatal("SampleToRecord returned false")
	}
	if rec.SrcIP != netip.MustParseAddr("192.0.2.1") || rec.DstIP != netip.MustParseAddr("198.51.100.7") {
		t.Errorf("IPs = %v -> %v", rec.SrcIP, rec.DstIP)
	}
	if rec.SrcPort != 123 || rec.DstPort != 4444 {
		t.Errorf("ports = %d/%d", rec.SrcPort, rec.DstPort)
	}
	if rec.Packets != 2048 || rec.Bytes != 2048*468 {
		t.Errorf("scaled counts = %d pkts %d bytes", rec.Packets, rec.Bytes)
	}
	if !rec.Blackholed {
		t.Error("label not applied")
	}
	if !c.SampleToRecord(&d.Samples[1], 1000, &rec) {
		t.Fatal("second sample failed")
	}
	if rec.Blackholed {
		t.Error("benign flow labeled")
	}
}

func TestSampleToRecordNonIP(t *testing.T) {
	var b packet.Builder
	b.Ethernet(packet.MAC{1}, packet.MAC{2}, packet.EtherTypeARP, 0).Payload(28)
	c := &Collector{}
	var rec netflow.Record
	s := FlowSample{SamplingRate: 1024, FrameLength: 60, Header: append([]byte(nil), b.Bytes()...)}
	if c.SampleToRecord(&s, 0, &rec) {
		t.Fatal("ARP frame must not produce a record")
	}
	if c.Stats.NonIP.Load() != 1 {
		t.Error("NonIP counter not bumped")
	}
}

func TestCollectorEndToEnd(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []netflow.Record
	c := &Collector{
		Clock: func() int64 { return 5000 },
		EmitBatch: func(recs []netflow.Record) {
			mu.Lock()
			got = append(got, recs...)
			mu.Unlock()
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- c.Listen(ctx, pc) }()

	exp, err := NewExporter(pc.LocalAddr().String(), netip.MustParseAddr("10.0.0.5"))
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	if err := exp.Send(sampleDatagram().Samples); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d records, want 2", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	r := got[0]
	mu.Unlock()
	if r.Timestamp != 5000 {
		t.Errorf("timestamp = %d", r.Timestamp)
	}
	if c.Stats.Datagrams.Load() != 1 || c.Stats.Records.Load() != 2 {
		t.Errorf("stats = %+v", &c.Stats)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Listen: %v", err)
	}
}

func TestHandleDatagramGarbage(t *testing.T) {
	c := &Collector{}
	c.HandleDatagram([]byte{1, 2, 3}) // shorter than the version field
	if c.Stats.Truncated.Load() != 1 {
		t.Error("truncated datagram not counted")
	}
	c.HandleDatagram([]byte{0, 0, 0, 99}) // version 99 is not sFlow v5
	if c.Stats.DecodeErrs.Load() != 1 {
		t.Error("decode error not counted")
	}
}

func BenchmarkDecodeDatagram(b *testing.B) {
	buf, err := Append(nil, sampleDatagram())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSampleToRecord(b *testing.B) {
	c := &Collector{}
	d := sampleDatagram()
	var rec netflow.Record
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SampleToRecord(&d.Samples[0], 1000, &rec)
	}
}

// batchPayloads encodes nine datagrams with distinct sample sequences, and
// returns them with the records a direct SampleToRecord conversion of every
// sample yields at the given timestamp.
func batchPayloads(t *testing.T, at int64) ([][]byte, []netflow.Record) {
	t.Helper()
	var payloads [][]byte
	var want []netflow.Record
	conv := &Collector{}
	for i := 0; i < 9; i++ {
		d := sampleDatagram()
		for j := range d.Samples {
			d.Samples[j].Sequence = uint32(i*10 + j)
			d.Samples[j].FrameLength = uint32(100 + i*10 + j)
			var rec netflow.Record
			if conv.SampleToRecord(&d.Samples[j], at, &rec) {
				want = append(want, rec)
			}
		}
		buf, err := Append(nil, d)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, buf)
	}
	return payloads, want
}

// TestHandleDatagramBatchBoundaries: the batched handoff delivers exactly
// the records of a per-sample conversion, in order, in batches of at most
// BatchSize — at sizes that flush mid-datagram and that leave a partial
// batch for Flush.
func TestHandleDatagramBatchBoundaries(t *testing.T) {
	payloads, want := batchPayloads(t, 5000)
	for _, size := range []int{1, 3, 256} {
		var got []netflow.Record
		c := &Collector{
			Clock:     func() int64 { return 5000 },
			BatchSize: size,
			EmitBatch: func(recs []netflow.Record) {
				if len(recs) == 0 || len(recs) > size {
					t.Errorf("size %d: batch of %d records", size, len(recs))
				}
				got = append(got, recs...)
			},
		}
		for _, p := range payloads {
			c.HandleDatagram(p)
		}
		if pending := len(want) % size; len(got) != len(want)-pending {
			t.Fatalf("size %d: %d records delivered before Flush, want %d", size, len(got), len(want)-pending)
		}
		c.Flush()
		if len(got) != len(want) {
			t.Fatalf("size %d: %d records, want %d", size, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("size %d: record %d = %+v, want %+v", size, i, got[i], want[i])
			}
		}
		if r := c.Stats.Records.Load(); r != uint64(len(want)) {
			t.Errorf("size %d: Stats.Records = %d, want %d", size, r, len(want))
		}
		if d := c.Stats.Datagrams.Load(); d != uint64(len(payloads)) {
			t.Errorf("size %d: Stats.Datagrams = %d, want %d", size, d, len(payloads))
		}
	}
}

// TestHandleDatagramNilEmitBatch: without EmitBatch the collector discards
// its records but still counts them, and Flush leaves nothing pending.
func TestHandleDatagramNilEmitBatch(t *testing.T) {
	payloads, want := batchPayloads(t, 5000)
	c := &Collector{Clock: func() int64 { return 5000 }, BatchSize: 4}
	for _, p := range payloads {
		c.HandleDatagram(p)
	}
	c.Flush()
	if len(c.batch) != 0 {
		t.Errorf("%d records still pending after Flush", len(c.batch))
	}
	if r := c.Stats.Records.Load(); r != uint64(len(want)) {
		t.Errorf("Stats.Records = %d, want %d", r, len(want))
	}
}

// TestListenShutdownFlush: canceling Listen delivers the pending partial
// batch before Listen returns, so a caller that waits for Listen has every
// received record downstream.
func TestListenShutdownFlush(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got int
	c := &Collector{
		Clock:         func() int64 { return 5000 },
		BatchSize:     1024,      // never filled by one datagram
		FlushInterval: time.Hour, // the idle flush never fires
		EmitBatch: func(recs []netflow.Record) {
			mu.Lock()
			got += len(recs)
			mu.Unlock()
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- c.Listen(ctx, pc) }()

	exp, err := NewExporter(pc.LocalAddr().String(), netip.MustParseAddr("10.0.0.5"))
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	if err := exp.Send(sampleDatagram().Samples); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats.Records.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("collector converted %d records, want 2", c.Stats.Records.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	early := got
	mu.Unlock()
	if early != 0 {
		t.Fatalf("%d records delivered before shutdown, want 0", early)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Listen: %v", err)
	}
	if got != 2 {
		t.Fatalf("shutdown delivered %d records, want 2", got)
	}
}

// TestListenIdleFlush: a partial batch must reach EmitBatch via the idle
// deadline without further datagrams arriving.
func TestListenIdleFlush(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got int
	c := &Collector{
		Clock:         func() int64 { return 5000 },
		BatchSize:     1024, // never filled by one datagram
		FlushInterval: 10 * time.Millisecond,
		EmitBatch: func(recs []netflow.Record) {
			mu.Lock()
			got += len(recs)
			mu.Unlock()
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- c.Listen(ctx, pc) }()

	exp, err := NewExporter(pc.LocalAddr().String(), netip.MustParseAddr("10.0.0.5"))
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	if err := exp.Send(sampleDatagram().Samples); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := got
		mu.Unlock()
		if n == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle flush delivered %d records, want 2", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Listen: %v", err)
	}
}

// sampleCounter is the counter-sample format (enterprise 0), which the
// decoder skips.
const sampleCounter = 2
