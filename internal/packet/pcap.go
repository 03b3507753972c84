package packet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Classic libpcap file format support (the .pcap files Wireshark and tcpdump
// read), used to dump sampled frames for offline inspection — the debugging
// companion to the flow-level pipeline.

const (
	pcapMagic   = 0xa1b2c3d4 // microsecond timestamps, native byte order
	pcapVMajor  = 2
	pcapVMinor  = 4
	linkTypeEth = 1
)

// ErrBadPcap reports an unrecognized pcap header.
var ErrBadPcap = errors.New("packet: not a pcap file")

// PcapWriter writes Ethernet frames into a pcap stream.
type PcapWriter struct {
	w     *bufio.Writer
	began bool
	count int
}

// NewPcapWriter wraps w.
func NewPcapWriter(w io.Writer) *PcapWriter {
	return &PcapWriter{w: bufio.NewWriterSize(w, 1<<16)}
}

func (p *PcapWriter) begin() error {
	if p.began {
		return nil
	}
	p.began = true
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:4], pcapMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], pcapVMajor)
	binary.LittleEndian.PutUint16(hdr[6:8], pcapVMinor)
	// thiszone, sigfigs = 0
	binary.LittleEndian.PutUint32(hdr[16:20], 65535) // snaplen
	binary.LittleEndian.PutUint32(hdr[20:24], linkTypeEth)
	if _, err := p.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("packet: pcap header: %w", err)
	}
	return nil
}

// WriteFrame appends one captured frame. origLen is the frame's length on
// the wire (sampled headers are truncated, so origLen >= len(frame)).
func (p *PcapWriter) WriteFrame(tsSec int64, tsMicro int64, frame []byte, origLen int) error {
	if err := p.begin(); err != nil {
		return err
	}
	if origLen < len(frame) {
		origLen = len(frame)
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(tsSec))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(tsMicro))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(frame)))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(origLen))
	if _, err := p.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("packet: pcap record header: %w", err)
	}
	if _, err := p.w.Write(frame); err != nil {
		return fmt.Errorf("packet: pcap frame: %w", err)
	}
	p.count++
	return nil
}

// Count returns the number of frames written.
func (p *PcapWriter) Count() int { return p.count }

// Flush writes the header if nothing was written and flushes buffers.
func (p *PcapWriter) Flush() error {
	if err := p.begin(); err != nil {
		return err
	}
	return p.w.Flush()
}

// PcapFrame is one frame read back from a pcap stream.
type PcapFrame struct {
	TsSec   int64
	TsMicro int64
	OrigLen int
	Data    []byte
}

// PcapReader reads frames from a pcap stream (native-order microsecond
// format, Ethernet link type — what PcapWriter produces).
type PcapReader struct {
	r     *bufio.Reader
	hdr   [16]byte // record-header scratch (a stack array would escape through io.ReadFull)
	began bool
}

// NewPcapReader wraps r.
func NewPcapReader(r io.Reader) *PcapReader {
	return &PcapReader{r: bufio.NewReaderSize(r, 1<<16)}
}

func (p *PcapReader) begin() error {
	if p.began {
		return nil
	}
	p.began = true
	var hdr [24]byte
	if _, err := io.ReadFull(p.r, hdr[:]); err != nil {
		return fmt.Errorf("packet: pcap header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != pcapMagic {
		return ErrBadPcap
	}
	if lt := binary.LittleEndian.Uint32(hdr[20:24]); lt != linkTypeEth {
		return fmt.Errorf("packet: pcap link type %d unsupported", lt)
	}
	return nil
}

// ReadInto fills f with the next frame, growing f.Data only when the frame
// exceeds its capacity — at steady state a capture loop reads without
// allocating. Returns io.EOF at a clean end of stream; on error f is left in
// an unspecified state.
func (p *PcapReader) ReadInto(f *PcapFrame) error {
	if err := p.begin(); err != nil {
		return err
	}
	if _, err := io.ReadFull(p.r, p.hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF
		}
		return fmt.Errorf("packet: pcap record: %w", err)
	}
	capLen := binary.LittleEndian.Uint32(p.hdr[8:12])
	if capLen > 1<<20 {
		return fmt.Errorf("packet: pcap frame of %d bytes exceeds sanity cap", capLen)
	}
	f.TsSec = int64(binary.LittleEndian.Uint32(p.hdr[0:4]))
	f.TsMicro = int64(binary.LittleEndian.Uint32(p.hdr[4:8]))
	f.OrigLen = int(binary.LittleEndian.Uint32(p.hdr[12:16]))
	if cap(f.Data) >= int(capLen) {
		f.Data = f.Data[:capLen]
	} else {
		f.Data = make([]byte, capLen)
	}
	if _, err := io.ReadFull(p.r, f.Data); err != nil {
		return fmt.Errorf("packet: pcap frame body: %w", err)
	}
	return nil
}
