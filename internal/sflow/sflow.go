// Package sflow implements the subset of sFlow version 5 used by IXPs to
// export sampled packet headers: datagrams carrying flow samples with raw
// packet header records, an encoder for the simulated member switches, and
// a UDP collector that turns samples into netflow Records.
//
// The wire format follows the sFlow v5 specification (sflow.org); only the
// structures the IXP Scrubber pipeline consumes are implemented. Unknown
// sample and record types are skipped by length, as a standards-compliant
// collector must.
package sflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// Sentinel decode errors.
var (
	ErrTruncated  = errors.New("sflow: truncated datagram")
	ErrBadVersion = errors.New("sflow: unsupported version")
)

const (
	version5 = 5

	addrTypeIPv4 = 1
	addrTypeIPv6 = 2

	// Sample formats (enterprise 0).
	sampleFlow = 1

	// Flow record formats (enterprise 0).
	recordRawPacketHeader = 1

	headerProtocolEthernet = 1
)

// Datagram is one sFlow v5 export datagram from an agent (a member-facing
// switch port in the IXP fabric).
type Datagram struct {
	AgentAddress netip.Addr
	SubAgentID   uint32
	Sequence     uint32
	Uptime       uint32 // milliseconds
	Samples      []FlowSample
}

// FlowSample is one packet sample: the first HeaderLength bytes of a frame
// picked by 1:SamplingRate random sampling.
type FlowSample struct {
	Sequence     uint32
	SourceID     uint32
	SamplingRate uint32
	SamplePool   uint32
	Drops        uint32
	InputIf      uint32
	OutputIf     uint32
	// FrameLength is the original length of the sampled frame on the wire.
	FrameLength uint32
	// Header holds the leading bytes of the frame (Ethernet onwards).
	Header []byte
}

// Append encodes the datagram in sFlow v5 wire format, appending to buf.
func Append(buf []byte, d *Datagram) ([]byte, error) {
	buf = binary.BigEndian.AppendUint32(buf, version5)
	switch {
	case d.AgentAddress.Is4() || d.AgentAddress.Is4In6():
		buf = binary.BigEndian.AppendUint32(buf, addrTypeIPv4)
		a := d.AgentAddress.Unmap().As4()
		buf = append(buf, a[:]...)
	case d.AgentAddress.Is6():
		buf = binary.BigEndian.AppendUint32(buf, addrTypeIPv6)
		a := d.AgentAddress.As16()
		buf = append(buf, a[:]...)
	default:
		return nil, fmt.Errorf("sflow: invalid agent address %v", d.AgentAddress)
	}
	buf = binary.BigEndian.AppendUint32(buf, d.SubAgentID)
	buf = binary.BigEndian.AppendUint32(buf, d.Sequence)
	buf = binary.BigEndian.AppendUint32(buf, d.Uptime)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(d.Samples)))
	for i := range d.Samples {
		buf = appendFlowSample(buf, &d.Samples[i])
	}
	return buf, nil
}

func appendFlowSample(buf []byte, s *FlowSample) []byte {
	buf = binary.BigEndian.AppendUint32(buf, sampleFlow)
	lenAt := len(buf)
	buf = append(buf, 0, 0, 0, 0) // sample length placeholder
	buf = binary.BigEndian.AppendUint32(buf, s.Sequence)
	buf = binary.BigEndian.AppendUint32(buf, s.SourceID)
	buf = binary.BigEndian.AppendUint32(buf, s.SamplingRate)
	buf = binary.BigEndian.AppendUint32(buf, s.SamplePool)
	buf = binary.BigEndian.AppendUint32(buf, s.Drops)
	buf = binary.BigEndian.AppendUint32(buf, s.InputIf)
	buf = binary.BigEndian.AppendUint32(buf, s.OutputIf)
	buf = binary.BigEndian.AppendUint32(buf, 1) // one flow record

	// Raw packet header record.
	buf = binary.BigEndian.AppendUint32(buf, recordRawPacketHeader)
	recLenAt := len(buf)
	buf = append(buf, 0, 0, 0, 0) // record length placeholder
	buf = binary.BigEndian.AppendUint32(buf, headerProtocolEthernet)
	buf = binary.BigEndian.AppendUint32(buf, s.FrameLength)
	buf = binary.BigEndian.AppendUint32(buf, 4) // stripped (FCS)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.Header)))
	buf = append(buf, s.Header...)
	for len(buf)%4 != 0 {
		buf = append(buf, 0) // XDR padding to 4-byte boundary
	}
	binary.BigEndian.PutUint32(buf[recLenAt:recLenAt+4], uint32(len(buf)-recLenAt-4))
	binary.BigEndian.PutUint32(buf[lenAt:lenAt+4], uint32(len(buf)-lenAt-4))
	return buf
}

// decoder is a bounds-checked big-endian cursor.
type decoder struct {
	data []byte
	off  int
}

func (d *decoder) u32() (uint32, error) {
	if d.off+4 > len(d.data) {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint32(d.data[d.off:])
	d.off += 4
	return v, nil
}

func (d *decoder) bytes(n int) ([]byte, error) {
	if n < 0 || d.off+n > len(d.data) {
		return nil, ErrTruncated
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b, nil
}

func (d *decoder) skip(n int) error {
	if n < 0 || d.off+n > len(d.data) {
		return ErrTruncated
	}
	d.off += n
	return nil
}

// Decode parses one sFlow v5 datagram. Returned Header slices alias data.
// It allocates a fresh Datagram per call; hot paths reuse one via
// DecodeInto instead.
func Decode(data []byte) (*Datagram, error) {
	out := &Datagram{}
	if err := DecodeInto(out, data); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeInto parses one sFlow v5 datagram into out, reusing out.Samples'
// backing array. Header slices alias data, so out (and everything derived
// from its headers) is only valid until data's buffer is reused — the
// allocation-free contract of the collector receive loop. On error out is
// left in an unspecified state.
func DecodeInto(out *Datagram, data []byte) error {
	d := decoder{data: data}
	ver, err := d.u32()
	if err != nil {
		return err
	}
	if ver != version5 {
		return fmt.Errorf("%w: %d", ErrBadVersion, ver)
	}
	out.Samples = out.Samples[:0]
	at, err := d.u32()
	if err != nil {
		return err
	}
	switch at {
	case addrTypeIPv4:
		b, err := d.bytes(4)
		if err != nil {
			return err
		}
		out.AgentAddress = netip.AddrFrom4([4]byte(b))
	case addrTypeIPv6:
		b, err := d.bytes(16)
		if err != nil {
			return err
		}
		out.AgentAddress = netip.AddrFrom16([16]byte(b))
	default:
		return fmt.Errorf("sflow: unknown agent address type %d", at)
	}
	if out.SubAgentID, err = d.u32(); err != nil {
		return err
	}
	if out.Sequence, err = d.u32(); err != nil {
		return err
	}
	if out.Uptime, err = d.u32(); err != nil {
		return err
	}
	n, err := d.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		format, err := d.u32()
		if err != nil {
			return fmt.Errorf("sample %d: %w", i, err)
		}
		length, err := d.u32()
		if err != nil {
			return fmt.Errorf("sample %d: %w", i, err)
		}
		if format != sampleFlow {
			if err := d.skip(int(length)); err != nil {
				return fmt.Errorf("sample %d (format %d): %w", i, format, err)
			}
			continue
		}
		end := d.off + int(length)
		if end > len(data) {
			return fmt.Errorf("sample %d: %w", i, ErrTruncated)
		}
		// Grow into reused capacity; the slot must be reset because it may
		// hold a sample from a previous datagram.
		if len(out.Samples) < cap(out.Samples) {
			out.Samples = out.Samples[:len(out.Samples)+1]
		} else {
			out.Samples = append(out.Samples, FlowSample{})
		}
		s := &out.Samples[len(out.Samples)-1]
		*s = FlowSample{}
		if err := decodeFlowSample(s, &decoder{data: data[:end], off: d.off}); err != nil {
			return fmt.Errorf("sample %d: %w", i, err)
		}
		d.off = end
	}
	return nil
}

func decodeFlowSample(s *FlowSample, d *decoder) error {
	var err error
	if s.Sequence, err = d.u32(); err != nil {
		return err
	}
	if s.SourceID, err = d.u32(); err != nil {
		return err
	}
	if s.SamplingRate, err = d.u32(); err != nil {
		return err
	}
	if s.SamplePool, err = d.u32(); err != nil {
		return err
	}
	if s.Drops, err = d.u32(); err != nil {
		return err
	}
	if s.InputIf, err = d.u32(); err != nil {
		return err
	}
	if s.OutputIf, err = d.u32(); err != nil {
		return err
	}
	nrec, err := d.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < nrec; i++ {
		format, err := d.u32()
		if err != nil {
			return err
		}
		length, err := d.u32()
		if err != nil {
			return err
		}
		if format != recordRawPacketHeader {
			if err := d.skip(int(length)); err != nil {
				return err
			}
			continue
		}
		end := d.off + int(length)
		proto, err := d.u32()
		if err != nil {
			return err
		}
		if s.FrameLength, err = d.u32(); err != nil {
			return err
		}
		if _, err = d.u32(); err != nil { // stripped
			return err
		}
		hlen, err := d.u32()
		if err != nil {
			return err
		}
		if proto != headerProtocolEthernet {
			if err := d.skip(end - d.off); err != nil {
				return err
			}
			continue
		}
		if s.Header, err = d.bytes(int(hlen)); err != nil {
			return err
		}
		if end < d.off || end > len(d.data) {
			return ErrTruncated
		}
		d.off = end // consume XDR padding
	}
	return nil
}
