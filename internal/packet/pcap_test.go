package packet

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestPcapRoundTrip(t *testing.T) {
	var b Builder
	b.Ethernet(macB, macA, EtherTypeIPv4, 0).
		IPv4([4]byte{192, 0, 2, 1}, [4]byte{198, 51, 100, 7}, ProtoUDP, 128, IPv4Opts{}).
		UDP(123, 4444, 108).
		Payload(40)
	frame := append([]byte(nil), b.Bytes()...)

	var buf bytes.Buffer
	w := NewPcapWriter(&buf)
	if err := w.WriteFrame(1000, 250000, frame, 468); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrame(1001, 0, frame[:60], 60); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 2 {
		t.Errorf("count = %d", w.Count())
	}

	r := NewPcapReader(&buf)
	f1, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if f1.TsSec != 1000 || f1.TsMicro != 250000 || f1.OrigLen != 468 {
		t.Errorf("frame 1 header = %+v", f1)
	}
	if !bytes.Equal(f1.Data, frame) {
		t.Error("frame 1 data mismatch")
	}
	// Round-trip decodes as a packet again.
	var p Packet
	if err := p.Decode(f1.Data); err != nil {
		t.Fatal(err)
	}
	if s, _ := p.Ports(); s != 123 {
		t.Errorf("src port after pcap round trip = %d", s)
	}
	f2, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if len(f2.Data) != 60 || f2.OrigLen != 60 {
		t.Errorf("frame 2 = %+v", f2)
	}
	if _, err := r.Read(); !errors.Is(err, io.EOF) {
		t.Errorf("want EOF, got %v", err)
	}
}

func TestPcapEmptyFile(t *testing.T) {
	var buf bytes.Buffer
	w := NewPcapWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewPcapReader(&buf)
	if _, err := r.Read(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestPcapRejectsGarbage(t *testing.T) {
	r := NewPcapReader(bytes.NewReader(bytes.Repeat([]byte{0x42}, 64)))
	if _, err := r.Read(); !errors.Is(err, ErrBadPcap) {
		t.Fatalf("err = %v, want ErrBadPcap", err)
	}
	// Oversized frame length.
	var buf bytes.Buffer
	w := NewPcapWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	rec := make([]byte, 16)
	rec[8] = 0xFF
	rec[9] = 0xFF
	rec[10] = 0xFF
	rec[11] = 0x7F
	data = append(data, rec...)
	if _, err := NewPcapReader(bytes.NewReader(data)).Read(); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestPcapOrigLenClamped(t *testing.T) {
	var buf bytes.Buffer
	w := NewPcapWriter(&buf)
	frame := make([]byte, 100)
	if err := w.WriteFrame(0, 0, frame, 50); err != nil { // origLen < capLen: clamped up
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f, err := NewPcapReader(&buf).Read()
	if err != nil {
		t.Fatal(err)
	}
	if f.OrigLen != 100 {
		t.Errorf("origLen = %d, want clamped to 100", f.OrigLen)
	}
}

// TestPcapReadInto: the reuse path must match Read record-for-record, keep
// earlier copies intact, and stop allocating once f.Data has grown to the
// largest frame.
func TestPcapReadInto(t *testing.T) {
	var buf bytes.Buffer
	w := NewPcapWriter(&buf)
	const n = 50
	for i := 0; i < n; i++ {
		frame := bytes.Repeat([]byte{byte(i)}, 60+i%40)
		if err := w.WriteFrame(int64(1000+i), int64(i), frame, 1500); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	ref := NewPcapReader(bytes.NewReader(data))
	r := NewPcapReader(bytes.NewReader(data))
	var f PcapFrame
	for i := 0; ; i++ {
		want, werr := ref.Read()
		rerr := r.ReadInto(&f)
		if errors.Is(werr, io.EOF) {
			if !errors.Is(rerr, io.EOF) {
				t.Fatalf("frame %d: ReadInto err = %v, want EOF", i, rerr)
			}
			break
		}
		if werr != nil || rerr != nil {
			t.Fatalf("frame %d: Read err = %v, ReadInto err = %v", i, werr, rerr)
		}
		if f.TsSec != want.TsSec || f.TsMicro != want.TsMicro || f.OrigLen != want.OrigLen || !bytes.Equal(f.Data, want.Data) {
			t.Fatalf("frame %d: ReadInto = %+v, want %+v", i, f, *want)
		}
	}

	// Steady state: budget 0 allocs once Data capacity covers every frame.
	big := NewPcapReader(bytes.NewReader(data))
	f.Data = make([]byte, 0, 128)
	if err := big.ReadInto(&f); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(40, func() {
		if err := big.ReadInto(&f); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("ReadInto allocs/run = %v, budget 0", avg)
	}
}

// Read returns the next frame, or io.EOF at a clean end of stream. It
// allocates a fresh frame per call; loops over large captures reuse one via
// ReadInto.
func (p *PcapReader) Read() (*PcapFrame, error) {
	f := &PcapFrame{}
	if err := p.ReadInto(f); err != nil {
		return nil, err
	}
	return f, nil
}
