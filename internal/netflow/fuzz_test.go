package netflow

import (
	"bytes"
	"net/netip"
	"testing"
)

// fuzzStream builds a valid flow file for seeding: both families, a mixed
// pair, the unset address.
func fuzzStream(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	recs := []Record{
		{
			Timestamp: 1650000000,
			SrcIP:     netip.MustParseAddr("192.0.2.1"),
			DstIP:     netip.MustParseAddr("198.51.100.7"),
			SrcPort:   123, DstPort: 4444, Protocol: 17,
			Packets: 2048, Bytes: 262144, SamplingRate: 2048,
			Blackholed: true,
		},
		{
			Timestamp: 1650000060,
			SrcIP:     netip.MustParseAddr("2001:db8::1"),
			DstIP:     netip.MustParseAddr("2001:db8::2"),
			SrcPort:   443, DstPort: 50000, Protocol: 6, TCPFlags: 0x12,
			Packets: 1, Bytes: 64, SamplingRate: 1,
		},
		{
			Timestamp: 1650000120,
			SrcIP:     netip.MustParseAddr("203.0.113.9"),
			DstIP:     netip.MustParseAddr("198.51.100.7"),
			Protocol:  1, Fragment: true,
			Packets: 512, Bytes: 65536, SamplingRate: 512,
		},
		// Mixed family: v6 source, v4 destination (one flag per address).
		{
			Timestamp: 1650000180,
			SrcIP:     netip.MustParseAddr("2001:db8::53"),
			DstIP:     netip.MustParseAddr("198.51.100.7"),
			SrcPort:   53, DstPort: 33000, Protocol: 17,
			Packets: 64, Bytes: 65536, SamplingRate: 64,
		},
		// Unset source beside a real "::" destination: all-zero address
		// bytes mean two different things depending on the family flag.
		{
			Timestamp: 1650000240,
			DstIP:     netip.IPv6Unspecified(),
			Protocol:  17,
			Packets:   1, Bytes: 64, SamplingRate: 1,
		},
		{},
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReader drives the binary flow file reader over arbitrary bytes: it
// must never panic and must always terminate (every record either decodes
// or ends the stream with an error).
func FuzzReader(f *testing.F) {
	valid := fuzzStream(f)
	f.Add(valid)
	// Truncation corpus: cut inside the header, on a record boundary, and
	// mid-record.
	for _, n := range []int{0, 1, 4, 5, 6, 5 + RecordSize - 1, 5 + RecordSize, 5 + RecordSize + 1} {
		if n <= len(valid) {
			f.Add(append([]byte(nil), valid[:n]...))
		}
	}
	// Mutation corpus: bad magic, unsupported version, flag byte noise.
	mut := append([]byte(nil), valid...)
	mut[0] ^= 0xFF
	f.Add(mut)
	mut = append([]byte(nil), valid...)
	mut[4] = 99
	f.Add(mut)
	mut = append([]byte(nil), valid...)
	mut[5+46] = 0xFF // flags byte of the first record
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		var rec Record
		for {
			if err := r.Read(&rec); err != nil {
				break
			}
		}
	})
}

// FuzzRoundTrip checks that any record the reader accepts survives an
// encode/decode cycle bit-for-bit — the streaming pipeline depends on the
// wire format being lossless.
func FuzzRoundTrip(f *testing.F) {
	f.Add(fuzzStream(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		var rec Record
		for {
			if err := r.Read(&rec); err != nil {
				return
			}
			var buf bytes.Buffer
			w := NewWriter(&buf)
			if err := w.Write(&rec); err != nil {
				t.Fatalf("re-encoding accepted record: %v", err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			var back Record
			if err := NewReader(bytes.NewReader(buf.Bytes())).Read(&back); err != nil {
				t.Fatalf("re-decoding: %v", err)
			}
			if back != rec {
				t.Fatalf("round trip changed record:\n in: %+v\nout: %+v", rec, back)
			}
		}
	})
}
