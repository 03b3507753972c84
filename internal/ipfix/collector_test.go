package ipfix

import (
	"context"
	"encoding/binary"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
)

func TestNetflowConversionRoundTrip(t *testing.T) {
	nr := netflow.Record{
		Timestamp: 1_627_000_000,
		SrcIP:     netip.MustParseAddr("192.0.2.1"),
		DstIP:     netip.MustParseAddr("198.51.100.7"),
		SrcPort:   123, DstPort: 40000,
		Protocol: 17, TCPFlags: 0x12, Fragment: true,
		SrcMAC:  [6]byte{2, 0, 0, 0, 0, 1},
		DstMAC:  [6]byte{2, 0, 0, 0, 0, 2},
		Packets: 2048, Bytes: 958464, SamplingRate: 2048,
	}
	back := ToNetflow(&[]Record{FromNetflow(&nr)}[0])
	if back != nr {
		t.Fatalf("round trip:\n got  %+v\n want %+v", back, nr)
	}
}

func TestUDPCollectorEndToEnd(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []netflow.Record
	victim := netip.MustParseAddr("198.51.100.7")
	uc := &UDPCollector{
		Label: func(ip netip.Addr, at int64) bool { return ip == victim },
		EmitBatch: func(recs []netflow.Record) {
			mu.Lock()
			got = append(got, recs...)
			mu.Unlock()
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- uc.Listen(ctx, pc) }()

	conn, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	e := &Exporter{DomainID: 3}
	if _, err := conn.Write(e.Encode(nil, 0, sampleRecords())); err != nil {
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
			t.Fatalf("received %d records", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if !got[0].Blackholed {
		t.Error("victim record not labeled via the registry hook")
	}
	if got[1].Blackholed {
		t.Error("non-victim record labeled")
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// batchMessages encodes nine messages of one domain (the first carries the
// template) with distinct source ports, and returns them with the records a
// message-by-message decode and conversion yields.
func batchMessages(t *testing.T) ([][]byte, []netflow.Record) {
	t.Helper()
	e := &Exporter{DomainID: 7}
	dec := NewCollector()
	var payloads [][]byte
	var want []netflow.Record
	for i := 0; i < 9; i++ {
		recs := sampleRecords()
		for j := range recs {
			recs[j].SrcPort = uint16(i*10 + j)
		}
		p := e.Encode(nil, uint32(1000+i), recs)
		got, err := dec.DecodeAppend(nil, p)
		if err != nil || len(got) != len(recs) {
			t.Fatalf("message %d: decoded %d records, err %v", i, len(got), err)
		}
		for j := range got {
			want = append(want, ToNetflow(&got[j]))
		}
		payloads = append(payloads, p)
	}
	return payloads, want
}

// TestHandleBatchBoundaries: the batched handoff delivers exactly the
// converted records, in order, in batches of at most BatchSize — at sizes
// that flush mid-message and that leave a partial batch for Flush.
func TestHandleBatchBoundaries(t *testing.T) {
	payloads, want := batchMessages(t)
	for _, size := range []int{1, 3, 256} {
		var got []netflow.Record
		uc := &UDPCollector{
			BatchSize: size,
			EmitBatch: func(recs []netflow.Record) {
				if len(recs) == 0 || len(recs) > size {
					t.Errorf("size %d: batch of %d records", size, len(recs))
				}
				got = append(got, recs...)
			},
		}
		for _, p := range payloads {
			uc.Handle(p)
		}
		if pending := len(want) % size; len(got) != len(want)-pending {
			t.Fatalf("size %d: %d records delivered before Flush, want %d", size, len(got), len(want)-pending)
		}
		uc.Flush()
		if len(got) != len(want) {
			t.Fatalf("size %d: %d records, want %d", size, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("size %d: record %d = %+v, want %+v", size, i, got[i], want[i])
			}
		}
		if r := uc.Records.Load(); r != uint64(len(want)) {
			t.Errorf("size %d: Records = %d, want %d", size, r, len(want))
		}
		if m := uc.Messages.Load(); m != uint64(len(payloads)) {
			t.Errorf("size %d: Messages = %d, want %d", size, m, len(payloads))
		}
	}
}

// TestHandleNilEmitBatch: without EmitBatch the collector discards its
// records but still counts them, and Flush leaves nothing pending.
func TestHandleNilEmitBatch(t *testing.T) {
	payloads, want := batchMessages(t)
	uc := &UDPCollector{BatchSize: 4}
	for _, p := range payloads {
		uc.Handle(p)
	}
	uc.Flush()
	if len(uc.batch) != 0 {
		t.Errorf("%d records still pending after Flush", len(uc.batch))
	}
	if r := uc.Records.Load(); r != uint64(len(want)) {
		t.Errorf("Records = %d, want %d", r, len(want))
	}
}

func TestHandleGarbage(t *testing.T) {
	uc := &UDPCollector{}
	uc.Handle([]byte{1, 2, 3}) // shorter than a message header
	if uc.Truncated.Load() != 1 {
		t.Error("truncated message not counted")
	}
	bad := make([]byte, headerLen)
	bad[1] = 9 // version 9 is not IPFIX
	binary.BigEndian.PutUint16(bad[2:4], headerLen)
	uc.Handle(bad)
	if uc.DecodeErrs.Load() != 1 {
		t.Error("malformed message not counted")
	}
}
