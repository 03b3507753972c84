package packet

import "encoding/binary"

// Builder assembles packet headers into a byte buffer. It is used by the
// synthetic traffic generator and the sFlow encoder to produce wire-format
// sampled packet headers. The zero value is ready for use.
type Builder struct {
	buf []byte
}

// Reset clears the builder while retaining the allocated buffer.
func (b *Builder) Reset() { b.buf = b.buf[:0] }

// Bytes returns the assembled frame. The slice aliases the builder's buffer
// and is invalidated by the next Reset.
func (b *Builder) Bytes() []byte { return b.buf }

// Ethernet appends an Ethernet II header. A non-zero vlan emits an 802.1Q tag.
func (b *Builder) Ethernet(dst, src MAC, etherType EtherType, vlan uint16) *Builder {
	b.buf = append(b.buf, dst[:]...)
	b.buf = append(b.buf, src[:]...)
	if vlan != 0 {
		b.buf = binary.BigEndian.AppendUint16(b.buf, uint16(EtherTypeVLAN))
		b.buf = binary.BigEndian.AppendUint16(b.buf, vlan&0x0fff)
	}
	b.buf = binary.BigEndian.AppendUint16(b.buf, uint16(etherType))
	return b
}

// IPv4Opts carries the optional fields of an IPv4 header; zero values give a
// plain non-fragmented header.
type IPv4Opts struct {
	TOS        uint8
	ID         uint16
	Flags      uint8
	FragOffset uint16
	TTL        uint8 // 0 means 64
}

// IPv4 appends an IPv4 header without options. totalLength covers header plus
// payload; the checksum is computed.
func (b *Builder) IPv4(src, dst [4]byte, proto IPProtocol, totalLength uint16, o IPv4Opts) *Builder {
	ttl := o.TTL
	if ttl == 0 {
		ttl = 64
	}
	start := len(b.buf)
	b.buf = append(b.buf, 0x45, o.TOS)
	b.buf = binary.BigEndian.AppendUint16(b.buf, totalLength)
	b.buf = binary.BigEndian.AppendUint16(b.buf, o.ID)
	b.buf = binary.BigEndian.AppendUint16(b.buf, uint16(o.Flags)<<13|o.FragOffset&0x1fff)
	b.buf = append(b.buf, ttl, uint8(proto), 0, 0) // checksum placeholder
	b.buf = append(b.buf, src[:]...)
	b.buf = append(b.buf, dst[:]...)
	sum := ipChecksum(b.buf[start : start+20])
	binary.BigEndian.PutUint16(b.buf[start+10:start+12], sum)
	return b
}

// TCP appends a TCP header with no options; the checksum field is left zero
// (sampled headers at IXPs are not checksum-verified).
func (b *Builder) TCP(srcPort, dstPort uint16, seq, ack uint32, flags uint8, window uint16) *Builder {
	b.buf = binary.BigEndian.AppendUint16(b.buf, srcPort)
	b.buf = binary.BigEndian.AppendUint16(b.buf, dstPort)
	b.buf = binary.BigEndian.AppendUint32(b.buf, seq)
	b.buf = binary.BigEndian.AppendUint32(b.buf, ack)
	b.buf = append(b.buf, 5<<4, flags)
	b.buf = binary.BigEndian.AppendUint16(b.buf, window)
	b.buf = append(b.buf, 0, 0, 0, 0) // checksum, urgent
	return b
}

// UDP appends a UDP header. length covers header plus payload.
func (b *Builder) UDP(srcPort, dstPort, length uint16) *Builder {
	b.buf = binary.BigEndian.AppendUint16(b.buf, srcPort)
	b.buf = binary.BigEndian.AppendUint16(b.buf, dstPort)
	b.buf = binary.BigEndian.AppendUint16(b.buf, length)
	b.buf = append(b.buf, 0, 0)
	return b
}

// ICMP appends an ICMP header with a computed checksum over the header only.
func (b *Builder) ICMP(typ, code uint8) *Builder {
	start := len(b.buf)
	b.buf = append(b.buf, typ, code, 0, 0)
	sum := ipChecksum(b.buf[start : start+4])
	binary.BigEndian.PutUint16(b.buf[start+2:start+4], sum)
	return b
}

// Payload appends n bytes of deterministic filler payload.
func (b *Builder) Payload(n int) *Builder {
	for i := 0; i < n; i++ {
		b.buf = append(b.buf, byte(i))
	}
	return b
}

// ipChecksum computes the RFC 1071 Internet checksum over data.
func ipChecksum(data []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(data); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i : i+2]))
	}
	if len(data)%2 == 1 {
		sum += uint32(data[len(data)-1]) << 8
	}
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}
