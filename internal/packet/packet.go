// Package packet implements encoding and decoding of L2-L4 packet headers
// (Ethernet, 802.1Q, IPv4, IPv6, TCP, UDP, ICMP) as seen in sampled packet
// traces at Internet Exchange Points.
//
// The decoder follows a layered model: Decode parses as many layers as are
// present and records which layers were found. It is allocation-free on the
// hot path: a Packet value can be reused across calls and slices returned
// alias the input buffer.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Sentinel decode errors. All errors returned by Decode wrap one of these.
var (
	ErrTruncated   = errors.New("packet: truncated")
	ErrUnsupported = errors.New("packet: unsupported layer")
)

// EtherType identifies the payload protocol of an Ethernet frame.
type EtherType uint16

// Well-known EtherTypes.
const (
	EtherTypeIPv4 EtherType = 0x0800
	EtherTypeARP  EtherType = 0x0806
	EtherTypeVLAN EtherType = 0x8100
	EtherTypeIPv6 EtherType = 0x86DD
)

// String returns the conventional name of the EtherType.
func (t EtherType) String() string {
	switch t {
	case EtherTypeIPv4:
		return "IPv4"
	case EtherTypeARP:
		return "ARP"
	case EtherTypeVLAN:
		return "802.1Q"
	case EtherTypeIPv6:
		return "IPv6"
	default:
		return fmt.Sprintf("EtherType(0x%04x)", uint16(t))
	}
}

// IPProtocol is an IP next-header / protocol number.
type IPProtocol uint8

// Well-known IP protocol numbers.
const (
	ProtoICMP   IPProtocol = 1
	ProtoIGMP   IPProtocol = 2
	ProtoTCP    IPProtocol = 6
	ProtoUDP    IPProtocol = 17
	ProtoGRE    IPProtocol = 47
	ProtoESP    IPProtocol = 50
	ProtoICMPv6 IPProtocol = 58
	ProtoSCTP   IPProtocol = 132
)

// String returns the conventional name of the protocol.
func (p IPProtocol) String() string {
	switch p {
	case ProtoICMP:
		return "ICMP"
	case ProtoIGMP:
		return "IGMP"
	case ProtoTCP:
		return "TCP"
	case ProtoUDP:
		return "UDP"
	case ProtoGRE:
		return "GRE"
	case ProtoESP:
		return "ESP"
	case ProtoICMPv6:
		return "ICMPv6"
	case ProtoSCTP:
		return "SCTP"
	default:
		return fmt.Sprintf("IPProtocol(%d)", uint8(p))
	}
}

// MAC is a 48-bit Ethernet hardware address.
type MAC [6]byte

// String formats the address as colon-separated hex.
func (m MAC) String() string {
	const hexDigit = "0123456789abcdef"
	buf := make([]byte, 0, 17)
	for i, b := range m {
		if i > 0 {
			buf = append(buf, ':')
		}
		buf = append(buf, hexDigit[b>>4], hexDigit[b&0xf])
	}
	return string(buf)
}

// TCP flag bits as found in the flags byte of the TCP header.
const (
	FlagSYN uint8 = 1 << 1
	FlagPSH uint8 = 1 << 3
	FlagACK uint8 = 1 << 4
)

// Ethernet is a decoded Ethernet II header, including an optional single
// 802.1Q VLAN tag.
type Ethernet struct {
	DstMAC, SrcMAC MAC
	EtherType      EtherType // after VLAN tag, if any
	VLAN           uint16    // VLAN ID; 0 if untagged
	HasVLAN        bool
}

// IPv4 is a decoded IPv4 header.
type IPv4 struct {
	IHL          uint8 // header length in 32-bit words
	TOS          uint8
	TotalLength  uint16
	ID           uint16
	Flags        uint8  // 3 bits: reserved, DF, MF
	FragOffset   uint16 // in 8-byte units
	TTL          uint8
	Protocol     IPProtocol
	Checksum     uint16
	SrcIP, DstIP [4]byte
}

// IPv6 is a decoded fixed IPv6 header.
type IPv6 struct {
	TrafficClass  uint8
	FlowLabel     uint32
	PayloadLength uint16
	NextHeader    IPProtocol
	HopLimit      uint8
	SrcIP, DstIP  [16]byte
}

// TCP is a decoded TCP header.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	DataOffset       uint8 // header length in 32-bit words
	Flags            uint8
	Window           uint16
	Checksum         uint16
	Urgent           uint16
}

// UDP is a decoded UDP header.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16
	Checksum         uint16
}

// ICMP is a decoded ICMP (v4 or v6) header.
type ICMP struct {
	Type, Code uint8
	Checksum   uint16
}

// Layer identifies a protocol layer found during decoding.
type Layer uint8

// Layers that Decode can identify.
const (
	LayerEthernet Layer = 1 << iota
	LayerIPv4
	LayerIPv6
	LayerTCP
	LayerUDP
	LayerICMP
)

// Packet holds the decoded layers of one sampled packet. The zero value is
// ready for use; Decode resets all fields.
type Packet struct {
	Eth     Ethernet
	IP4     IPv4
	IP6     IPv6
	TCP     TCP
	UDP     UDP
	ICMP    ICMP
	Layers  Layer  // bitmask of layers present
	Payload []byte // bytes after the last decoded header (aliases input)
}

// Has reports whether layer l was decoded.
func (p *Packet) Has(l Layer) bool { return p.Layers&l != 0 }

// Protocol returns the IP protocol number, or 0 if no IP layer was decoded.
func (p *Packet) Protocol() IPProtocol {
	switch {
	case p.Has(LayerIPv4):
		return p.IP4.Protocol
	case p.Has(LayerIPv6):
		return p.IP6.NextHeader
	default:
		return 0
	}
}

// Ports returns the transport source and destination ports, or (0, 0) when no
// TCP/UDP layer is present (e.g. non-first fragments).
func (p *Packet) Ports() (src, dst uint16) {
	switch {
	case p.Has(LayerTCP):
		return p.TCP.SrcPort, p.TCP.DstPort
	case p.Has(LayerUDP):
		return p.UDP.SrcPort, p.UDP.DstPort
	default:
		return 0, 0
	}
}

// Decode parses an Ethernet frame beginning at data[0]. It decodes as many
// layers as are present and supported; finding an unsupported upper layer is
// not an error (decoding stops and the rest becomes Payload). A frame too
// short for a layer it promises yields ErrTruncated.
func (p *Packet) Decode(data []byte) error {
	p.Layers = 0
	p.Payload = nil
	rest, err := p.decodeEthernet(data)
	if err != nil {
		return err
	}
	switch p.Eth.EtherType {
	case EtherTypeIPv4:
		rest, err = p.decodeIPv4(rest)
	case EtherTypeIPv6:
		rest, err = p.decodeIPv6(rest)
	default:
		p.Payload = rest
		return nil
	}
	if err != nil {
		return err
	}
	// Non-first IPv4 fragments carry no transport header.
	if p.Has(LayerIPv4) && p.IP4.FragOffset != 0 {
		p.Payload = rest
		return nil
	}
	switch p.Protocol() {
	case ProtoTCP:
		rest, err = p.decodeTCP(rest)
	case ProtoUDP:
		rest, err = p.decodeUDP(rest)
	case ProtoICMP, ProtoICMPv6:
		rest, err = p.decodeICMP(rest)
	default:
		p.Payload = rest
		return nil
	}
	if err != nil {
		return err
	}
	p.Payload = rest
	return nil
}

func (p *Packet) decodeEthernet(data []byte) ([]byte, error) {
	if len(data) < 14 {
		return nil, fmt.Errorf("ethernet header: %d bytes: %w", len(data), ErrTruncated)
	}
	copy(p.Eth.DstMAC[:], data[0:6])
	copy(p.Eth.SrcMAC[:], data[6:12])
	et := EtherType(binary.BigEndian.Uint16(data[12:14]))
	rest := data[14:]
	p.Eth.HasVLAN = false
	p.Eth.VLAN = 0
	if et == EtherTypeVLAN {
		if len(rest) < 4 {
			return nil, fmt.Errorf("802.1Q tag: %w", ErrTruncated)
		}
		p.Eth.HasVLAN = true
		p.Eth.VLAN = binary.BigEndian.Uint16(rest[0:2]) & 0x0fff
		et = EtherType(binary.BigEndian.Uint16(rest[2:4]))
		rest = rest[4:]
	}
	p.Eth.EtherType = et
	p.Layers |= LayerEthernet
	return rest, nil
}

func (p *Packet) decodeIPv4(data []byte) ([]byte, error) {
	if len(data) < 20 {
		return nil, fmt.Errorf("ipv4 header: %w", ErrTruncated)
	}
	if v := data[0] >> 4; v != 4 {
		return nil, fmt.Errorf("ipv4 version %d: %w", v, ErrUnsupported)
	}
	h := &p.IP4
	h.IHL = data[0] & 0x0f
	if h.IHL < 5 {
		return nil, fmt.Errorf("ipv4 IHL %d: %w", h.IHL, ErrTruncated)
	}
	hdrLen := int(h.IHL) * 4
	if len(data) < hdrLen {
		return nil, fmt.Errorf("ipv4 options: %w", ErrTruncated)
	}
	h.TOS = data[1]
	h.TotalLength = binary.BigEndian.Uint16(data[2:4])
	h.ID = binary.BigEndian.Uint16(data[4:6])
	ff := binary.BigEndian.Uint16(data[6:8])
	h.Flags = uint8(ff >> 13)
	h.FragOffset = ff & 0x1fff
	h.TTL = data[8]
	h.Protocol = IPProtocol(data[9])
	h.Checksum = binary.BigEndian.Uint16(data[10:12])
	copy(h.SrcIP[:], data[12:16])
	copy(h.DstIP[:], data[16:20])
	p.Layers |= LayerIPv4
	return data[hdrLen:], nil
}

func (p *Packet) decodeIPv6(data []byte) ([]byte, error) {
	if len(data) < 40 {
		return nil, fmt.Errorf("ipv6 header: %w", ErrTruncated)
	}
	if v := data[0] >> 4; v != 6 {
		return nil, fmt.Errorf("ipv6 version %d: %w", v, ErrUnsupported)
	}
	h := &p.IP6
	h.TrafficClass = data[0]<<4 | data[1]>>4
	h.FlowLabel = binary.BigEndian.Uint32(data[0:4]) & 0xfffff
	h.PayloadLength = binary.BigEndian.Uint16(data[4:6])
	h.NextHeader = IPProtocol(data[6])
	h.HopLimit = data[7]
	copy(h.SrcIP[:], data[8:24])
	copy(h.DstIP[:], data[24:40])
	p.Layers |= LayerIPv6
	return data[40:], nil
}

func (p *Packet) decodeTCP(data []byte) ([]byte, error) {
	if len(data) < 20 {
		return nil, fmt.Errorf("tcp header: %w", ErrTruncated)
	}
	h := &p.TCP
	h.SrcPort = binary.BigEndian.Uint16(data[0:2])
	h.DstPort = binary.BigEndian.Uint16(data[2:4])
	h.Seq = binary.BigEndian.Uint32(data[4:8])
	h.Ack = binary.BigEndian.Uint32(data[8:12])
	h.DataOffset = data[12] >> 4
	h.Flags = data[13]
	h.Window = binary.BigEndian.Uint16(data[14:16])
	h.Checksum = binary.BigEndian.Uint16(data[16:18])
	h.Urgent = binary.BigEndian.Uint16(data[18:20])
	hdrLen := int(h.DataOffset) * 4
	if hdrLen < 20 || len(data) < hdrLen {
		// Sampled packet headers are routinely cut mid-options; keep the
		// fixed header and treat the remainder as payload.
		p.Layers |= LayerTCP
		return data[20:], nil
	}
	p.Layers |= LayerTCP
	return data[hdrLen:], nil
}

func (p *Packet) decodeUDP(data []byte) ([]byte, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("udp header: %w", ErrTruncated)
	}
	h := &p.UDP
	h.SrcPort = binary.BigEndian.Uint16(data[0:2])
	h.DstPort = binary.BigEndian.Uint16(data[2:4])
	h.Length = binary.BigEndian.Uint16(data[4:6])
	h.Checksum = binary.BigEndian.Uint16(data[6:8])
	p.Layers |= LayerUDP
	return data[8:], nil
}

func (p *Packet) decodeICMP(data []byte) ([]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("icmp header: %w", ErrTruncated)
	}
	p.ICMP.Type = data[0]
	p.ICMP.Code = data[1]
	p.ICMP.Checksum = binary.BigEndian.Uint16(data[2:4])
	p.Layers |= LayerICMP
	return data[4:], nil
}
