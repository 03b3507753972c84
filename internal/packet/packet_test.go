package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

var (
	macA = MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x0a}
	macB = MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x0b}
)

func TestDecodeUDPv4RoundTrip(t *testing.T) {
	var b Builder
	b.Ethernet(macB, macA, EtherTypeIPv4, 0).
		IPv4([4]byte{192, 0, 2, 1}, [4]byte{198, 51, 100, 7}, ProtoUDP, 20+8+100, IPv4Opts{TTL: 57, ID: 0x1234}).
		UDP(123, 40000, 8+100).
		Payload(100)

	var p Packet
	if err := p.Decode(b.Bytes()); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !p.Has(LayerEthernet) || !p.Has(LayerIPv4) || !p.Has(LayerUDP) {
		t.Fatalf("layers = %b, want eth|ipv4|udp", p.Layers)
	}
	if p.Eth.SrcMAC != macA || p.Eth.DstMAC != macB {
		t.Errorf("MACs = %v -> %v", p.Eth.SrcMAC, p.Eth.DstMAC)
	}
	if p.IP4.SrcIP != [4]byte{192, 0, 2, 1} || p.IP4.DstIP != [4]byte{198, 51, 100, 7} {
		t.Errorf("IPs = %v -> %v", p.IP4.SrcIP, p.IP4.DstIP)
	}
	if p.IP4.TTL != 57 || p.IP4.ID != 0x1234 || p.IP4.Protocol != ProtoUDP {
		t.Errorf("ipv4 fields = %+v", p.IP4)
	}
	if src, dst := p.Ports(); src != 123 || dst != 40000 {
		t.Errorf("ports = %d,%d want 123,40000", src, dst)
	}
	if len(p.Payload) != 100 {
		t.Errorf("payload len = %d, want 100", len(p.Payload))
	}
}

func TestDecodeTCPv4Flags(t *testing.T) {
	var b Builder
	b.Ethernet(macB, macA, EtherTypeIPv4, 0).
		IPv4([4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}, ProtoTCP, 20+20, IPv4Opts{}).
		TCP(443, 55000, 1000, 2000, FlagSYN|FlagACK, 65535)

	var p Packet
	if err := p.Decode(b.Bytes()); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !p.Has(LayerTCP) {
		t.Fatal("missing TCP layer")
	}
	if p.TCP.Flags != FlagSYN|FlagACK {
		t.Errorf("flags = %08b", p.TCP.Flags)
	}
	if p.TCP.Seq != 1000 || p.TCP.Ack != 2000 || p.TCP.Window != 65535 {
		t.Errorf("tcp = %+v", p.TCP)
	}
}

func TestDecodeVLAN(t *testing.T) {
	var b Builder
	b.Ethernet(macB, macA, EtherTypeIPv4, 1234).
		IPv4([4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}, ProtoICMP, 24, IPv4Opts{}).
		ICMP(8, 0)

	var p Packet
	if err := p.Decode(b.Bytes()); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !p.Eth.HasVLAN || p.Eth.VLAN != 1234 {
		t.Errorf("vlan = %v %d", p.Eth.HasVLAN, p.Eth.VLAN)
	}
	if !p.Has(LayerICMP) || p.ICMP.Type != 8 {
		t.Errorf("icmp = %+v", p.ICMP)
	}
}

func TestDecodeIPv6UDP(t *testing.T) {
	src := [16]byte{0x20, 0x01, 0x0d, 0xb8, 15: 1}
	dst := [16]byte{0x20, 0x01, 0x0d, 0xb8, 15: 2}
	var b Builder
	b.Ethernet(macB, macA, EtherTypeIPv6, 0).
		IPv6(src, dst, ProtoUDP, 8+10, 0).
		UDP(53, 33000, 18).
		Payload(10)

	var p Packet
	if err := p.Decode(b.Bytes()); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !p.Has(LayerIPv6) || !p.Has(LayerUDP) {
		t.Fatalf("layers = %b", p.Layers)
	}
	if p.IP6.SrcIP != src || p.IP6.DstIP != dst {
		t.Errorf("ips = %x -> %x", p.IP6.SrcIP, p.IP6.DstIP)
	}
	if p.Protocol() != ProtoUDP {
		t.Errorf("protocol = %v", p.Protocol())
	}
}

func TestDecodeFragmentSkipsTransport(t *testing.T) {
	var b Builder
	b.Ethernet(macB, macA, EtherTypeIPv4, 0).
		IPv4([4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}, ProtoUDP, 20+64, IPv4Opts{Flags: 0x1, FragOffset: 185}).
		Payload(64)

	var p Packet
	if err := p.Decode(b.Bytes()); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if p.Has(LayerUDP) {
		t.Error("non-first fragment must not decode a UDP layer")
	}
	if !p.IP4.IsFragment() || !p.IP4.MoreFragments() {
		t.Errorf("fragment flags lost: %+v", p.IP4)
	}
	if s, d := p.Ports(); s != 0 || d != 0 {
		t.Errorf("ports on fragment = %d,%d", s, d)
	}
}

func TestDecodeFirstFragmentKeepsTransport(t *testing.T) {
	var b Builder
	b.Ethernet(macB, macA, EtherTypeIPv4, 0).
		IPv4([4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}, ProtoUDP, 20+8+64, IPv4Opts{Flags: 0x1}).
		UDP(53, 4444, 8+64).
		Payload(64)

	var p Packet
	if err := p.Decode(b.Bytes()); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !p.Has(LayerUDP) {
		t.Error("first fragment should still decode UDP")
	}
	if !p.IP4.IsFragment() {
		t.Error("MF bit lost")
	}
}

func TestDecodeTruncated(t *testing.T) {
	var b Builder
	b.Ethernet(macB, macA, EtherTypeIPv4, 0).
		IPv4([4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}, ProtoTCP, 40, IPv4Opts{}).
		TCP(80, 1024, 0, 0, FlagACK, 1024)
	frame := b.Bytes()

	for _, cut := range []int{0, 5, 13, 15, 20, 33, 35, len(frame) - 1} {
		var p Packet
		err := p.Decode(frame[:cut])
		if err == nil {
			t.Errorf("cut=%d: want error, got layers %b", cut, p.Layers)
			continue
		}
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("cut=%d: err = %v, want ErrTruncated", cut, err)
		}
	}
}

func TestDecodeUnknownEtherType(t *testing.T) {
	var b Builder
	b.Ethernet(macB, macA, EtherTypeARP, 0).Payload(28)
	var p Packet
	if err := p.Decode(b.Bytes()); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !p.Has(LayerEthernet) || p.Has(LayerIPv4) {
		t.Errorf("layers = %b", p.Layers)
	}
	if len(p.Payload) != 28 {
		t.Errorf("payload = %d", len(p.Payload))
	}
}

func TestDecodeUnknownIPProtocol(t *testing.T) {
	var b Builder
	b.Ethernet(macB, macA, EtherTypeIPv4, 0).
		IPv4([4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}, ProtoGRE, 20+8, IPv4Opts{}).
		Payload(8)
	var p Packet
	if err := p.Decode(b.Bytes()); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if p.Protocol() != ProtoGRE {
		t.Errorf("protocol = %v", p.Protocol())
	}
	if p.Has(LayerTCP) || p.Has(LayerUDP) {
		t.Error("bogus transport layer decoded")
	}
}

func TestIPChecksum(t *testing.T) {
	// Example from RFC 1071 discussions: verify the checksum verifies.
	var b Builder
	b.IPv4([4]byte{192, 168, 0, 1}, [4]byte{192, 168, 0, 199}, ProtoUDP, 60, IPv4Opts{TTL: 64})
	hdr := b.Bytes()
	// Recomputing the checksum over a header including its checksum field
	// must yield zero.
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		sum += uint32(hdr[i])<<8 | uint32(hdr[i+1])
	}
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	if ^uint16(sum) != 0 {
		t.Errorf("checksum does not verify: %04x", ^uint16(sum))
	}
}

func TestMACString(t *testing.T) {
	m := MAC{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}
	if got := m.String(); got != "de:ad:be:ef:00:01" {
		t.Errorf("String() = %q", got)
	}
}

func TestStringers(t *testing.T) {
	if EtherTypeIPv4.String() != "IPv4" || EtherTypeIPv6.String() != "IPv6" {
		t.Error("EtherType names")
	}
	if !strings.Contains(EtherType(0x1234).String(), "0x1234") {
		t.Error("unknown EtherType formatting")
	}
	if ProtoUDP.String() != "UDP" || ProtoTCP.String() != "TCP" {
		t.Error("protocol names")
	}
	if !strings.Contains(IPProtocol(200).String(), "200") {
		t.Error("unknown protocol formatting")
	}
}

// TestDecodeNeverPanics fuzzes the decoder with arbitrary bytes: it must
// either decode or return an error, never panic, for any input.
func TestDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		var p Packet
		_ = p.Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeDecodeProperty round-trips randomized UDP frames.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(srcIP, dstIP [4]byte, srcPort, dstPort uint16, payLen uint8) bool {
		var b Builder
		b.Ethernet(macB, macA, EtherTypeIPv4, 0).
			IPv4(srcIP, dstIP, ProtoUDP, 20+8+uint16(payLen), IPv4Opts{}).
			UDP(srcPort, dstPort, 8+uint16(payLen)).
			Payload(int(payLen))
		var p Packet
		if err := p.Decode(b.Bytes()); err != nil {
			return false
		}
		s, d := p.Ports()
		return p.IP4.SrcIP == srcIP && p.IP4.DstIP == dstIP &&
			s == srcPort && d == dstPort && len(p.Payload) == int(payLen)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderReuse(t *testing.T) {
	var b Builder
	b.Ethernet(macB, macA, EtherTypeIPv4, 0).
		IPv4([4]byte{1, 1, 1, 1}, [4]byte{2, 2, 2, 2}, ProtoUDP, 28, IPv4Opts{}).
		UDP(1, 2, 8)
	n1 := len(b.Bytes())
	b.Reset()
	if len(b.Bytes()) != 0 {
		t.Fatal("Reset did not clear")
	}
	b.Ethernet(macB, macA, EtherTypeIPv4, 0).
		IPv4([4]byte{1, 1, 1, 1}, [4]byte{2, 2, 2, 2}, ProtoUDP, 28, IPv4Opts{}).
		UDP(1, 2, 8)
	if len(b.Bytes()) != n1 {
		t.Fatalf("reuse produced %d bytes, want %d", len(b.Bytes()), n1)
	}
	if err := Validate(b.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDecodeUDP(b *testing.B) {
	var bld Builder
	bld.Ethernet(macB, macA, EtherTypeIPv4, 0).
		IPv4([4]byte{192, 0, 2, 1}, [4]byte{198, 51, 100, 7}, ProtoUDP, 128, IPv4Opts{}).
		UDP(123, 40000, 108).
		Payload(100)
	frame := bld.Bytes()
	var p Packet
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// MoreFragments reports whether the MF bit is set.
func (h *IPv4) MoreFragments() bool { return h.Flags&0x1 != 0 }

// IsFragment reports whether the packet is a fragment (MF set or a non-zero
// fragment offset). Non-first fragments carry no L4 header, the signature the
// paper's "UDP fragments" DDoS class keys on.
func (h *IPv4) IsFragment() bool { return h.MoreFragments() || h.FragOffset != 0 }

// IPv6 appends a fixed IPv6 header.
func (b *Builder) IPv6(src, dst [16]byte, next IPProtocol, payloadLength uint16, hopLimit uint8) *Builder {
	if hopLimit == 0 {
		hopLimit = 64
	}
	b.buf = append(b.buf, 0x60, 0, 0, 0)
	b.buf = binary.BigEndian.AppendUint16(b.buf, payloadLength)
	b.buf = append(b.buf, uint8(next), hopLimit)
	b.buf = append(b.buf, src[:]...)
	b.buf = append(b.buf, dst[:]...)
	return b
}

// Validate performs a structural sanity check of a built frame by round-trip
// decoding it.
func Validate(frame []byte) error {
	var p Packet
	if err := p.Decode(frame); err != nil {
		return fmt.Errorf("packet: self-check failed: %w", err)
	}
	return nil
}
