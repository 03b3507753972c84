package netflow

import (
	"bytes"
	"errors"
	"io"
	"net/netip"
	"testing"
	"testing/quick"
)

func sampleRecord() Record {
	return Record{
		Timestamp:    1_627_000_000,
		SrcIP:        netip.MustParseAddr("192.0.2.33"),
		DstIP:        netip.MustParseAddr("198.51.100.7"),
		SrcPort:      123,
		DstPort:      44321,
		Protocol:     17,
		TCPFlags:     0,
		SrcMAC:       [6]byte{2, 0, 0, 0, 0, 1},
		DstMAC:       [6]byte{2, 0, 0, 0, 0, 2},
		Packets:      2048,
		Bytes:        1_024_000,
		SamplingRate: 2048,
		Blackholed:   true,
	}
}

func TestCodecRoundTrip(t *testing.T) {
	recs := []Record{sampleRecord()}
	r2 := sampleRecord()
	r2.SrcIP = netip.MustParseAddr("2001:db8::1")
	r2.DstIP = netip.MustParseAddr("2001:db8::2")
	r2.Blackholed = false
	r2.Fragment = true
	recs = append(recs, r2)
	// The unset address is not "::": it must come back unset, next to a
	// real "::" and a mixed-family record, which must come back as they are.
	r3 := sampleRecord()
	r3.SrcIP = netip.Addr{}
	recs = append(recs, r3, Record{})
	r4 := sampleRecord()
	r4.SrcIP = netip.IPv6Unspecified()
	recs = append(recs, r4)

	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if w.Count() != len(recs) {
		t.Errorf("Count = %d", w.Count())
	}

	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d:\n got  %+v\n want %+v", i, got[i], recs[i])
		}
	}
}

func TestCodecEmptyFile(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d records from empty file", len(got))
	}
}

func TestCodecBadMagic(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte("NOPE\x01")))
	var rec Record
	if err := r.Read(&rec); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestCodecBadVersion(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte("IXFR\x09")))
	var rec Record
	if err := r.Read(&rec); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestCodecTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	rec := sampleRecord()
	if err := w.Write(&rec); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-10]
	r := NewReader(bytes.NewReader(data))
	var out Record
	if err := r.Read(&out); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want unexpected EOF", err)
	}
}

func TestCodecPropertyRoundTrip(t *testing.T) {
	f := func(ts int64, src, dst [4]byte, sp, dp uint16, proto, flags uint8, pkts uint32, perPkt uint16, bh bool) bool {
		if pkts == 0 {
			pkts = 1
		}
		rec := Record{
			Timestamp:    ts & 0x7fffffffffff,
			SrcIP:        netip.AddrFrom4(src),
			DstIP:        netip.AddrFrom4(dst),
			SrcPort:      sp,
			DstPort:      dp,
			Protocol:     proto,
			TCPFlags:     flags,
			Packets:      uint64(pkts),
			Bytes:        uint64(pkts) * (uint64(perPkt) + 20),
			SamplingRate: 1024,
			Blackholed:   bh,
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.Write(&rec); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		var out Record
		if err := NewReader(&buf).Read(&out); err != nil {
			return false
		}
		return out == rec
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRecordHelpers(t *testing.T) {
	r := sampleRecord()
	if r.Minute() != r.Timestamp/60 {
		t.Error("Minute")
	}
	if got := r.MeanPacketSize(); got != float64(r.Bytes)/float64(r.Packets) {
		t.Errorf("MeanPacketSize = %v", got)
	}
	zero := Record{Packets: 0}
	if zero.MeanPacketSize() != 0 {
		t.Error("MeanPacketSize on zero packets should be 0")
	}
	if err := r.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	bad := r
	bad.Bytes = 10
	if bad.Validate() == nil {
		t.Error("Validate should reject bytes < 20*packets")
	}
	bad = r
	bad.SrcIP = netip.Addr{}
	if bad.Validate() == nil {
		t.Error("Validate should reject invalid src")
	}
}

func TestAnonymizerDeterministicAndFamilyPreserving(t *testing.T) {
	a, err := NewAnonymizer([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	v4 := netip.MustParseAddr("203.0.113.9")
	v6 := netip.MustParseAddr("2001:db8::42")

	p4, p6 := a.Addr(v4), a.Addr(v6)
	if !p4.Is4() {
		t.Errorf("v4 pseudonym is not v4: %v", p4)
	}
	if !p6.Is6() || p6.Is4In6() {
		t.Errorf("v6 pseudonym is not v6: %v", p6)
	}
	if p4 == v4 || p6 == v6 {
		t.Error("address not anonymized")
	}
	if a.Addr(v4) != p4 {
		t.Error("not deterministic")
	}

	b, _ := NewAnonymizer([]byte("another-salt-value"))
	if b.Addr(v4) == p4 {
		t.Error("different salts must give different pseudonyms")
	}
}

func TestAnonymizerMACBits(t *testing.T) {
	a, _ := NewAnonymizer([]byte("0123456789abcdef"))
	m := a.MAC([6]byte{0x00, 0x11, 0x22, 0x33, 0x44, 0x55})
	if m[0]&0x01 != 0 {
		t.Error("pseudonym MAC is multicast")
	}
	if m[0]&0x02 == 0 {
		t.Error("pseudonym MAC is not locally administered")
	}
}

func TestAnonymizerRejectsShortSalt(t *testing.T) {
	if _, err := NewAnonymizer([]byte("short")); err == nil {
		t.Fatal("want error for short salt")
	}
	if _, err := NewRandomAnonymizer(); err != nil {
		t.Fatalf("NewRandomAnonymizer: %v", err)
	}
}

func TestAnonymizerRecord(t *testing.T) {
	a, _ := NewAnonymizer([]byte("0123456789abcdef"))
	r := sampleRecord()
	orig := r
	a.Record(&r)
	if r.SrcIP == orig.SrcIP || r.DstIP == orig.DstIP {
		t.Error("IPs not anonymized")
	}
	if r.SrcMAC == orig.SrcMAC {
		t.Error("MAC not anonymized")
	}
	if r.SrcPort != orig.SrcPort || r.Bytes != orig.Bytes || r.Blackholed != orig.Blackholed {
		t.Error("non-address fields must be preserved")
	}
}

func TestStats(t *testing.T) {
	var s Stats
	base := sampleRecord()
	// Minute 1: 3 blackholed to one IP, 6 benign to two IPs.
	for i := 0; i < 3; i++ {
		r := base
		r.SrcPort = uint16(1000 + i)
		s.Add(&r)
	}
	for i := 0; i < 6; i++ {
		r := base
		r.Blackholed = false
		r.DstIP = netip.AddrFrom4([4]byte{10, 0, 0, byte(i % 2)})
		r.SrcPort = uint16(2000 + i)
		s.Add(&r)
	}
	// Minute 2: benign only.
	r := base
	r.Timestamp += 60
	r.Blackholed = false
	s.Add(&r)

	if s.Records != 10 || s.Blackholed != 3 {
		t.Fatalf("records=%d blackholed=%d", s.Records, s.Blackholed)
	}
	mins := s.Minutes()
	if len(mins) != 2 {
		t.Fatalf("minutes = %d", len(mins))
	}
	m := mins[0]
	if m.UniqueBlackholeIPs() != 1 || m.UniqueBenignIPs() != 2 {
		t.Errorf("unique IPs = %d/%d", m.UniqueBlackholeIPs(), m.UniqueBenignIPs())
	}
	bh, be := s.FlowsPerIPPoints()
	if len(bh) != 1 || len(be) != 1 {
		t.Fatalf("points = %d/%d (minute 2 has no blackhole and must be skipped)", len(bh), len(be))
	}
	if bh[0] != 3 || be[0] != 3 {
		t.Errorf("flows/IP = %v/%v, want 3/3", bh[0], be[0])
	}
	if s.String() == "" {
		t.Error("String empty")
	}
}

func BenchmarkCodecWrite(b *testing.B) {
	rec := sampleRecord()
	w := NewWriter(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Write(&rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecRead(b *testing.B) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	rec := sampleRecord()
	for i := 0; i < 10000; i++ {
		if err := w.Write(&rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	var out Record
	r := NewReader(bytes.NewReader(data))
	for i := 0; i < b.N; i++ {
		if err := r.Read(&out); err != nil {
			if errors.Is(err, io.EOF) {
				r = NewReader(bytes.NewReader(data))
				continue
			}
			b.Fatal(err)
		}
	}
}
