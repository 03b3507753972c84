// Package bgp implements the subset of BGP-4 (RFC 4271) that the IXP
// Scrubber pipeline depends on: message encoding and decoding for OPEN,
// UPDATE, NOTIFICATION and KEEPALIVE, path attributes including standard
// communities (RFC 1997), detection of the BLACKHOLE community (RFC 7999),
// a time-aware blackhole registry, and a minimal speaker plus route server
// over TCP.
package bgp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// Message types (RFC 4271 §4.1).
const (
	TypeOpen         = 1
	TypeUpdate       = 2
	TypeNotification = 3
	TypeKeepalive    = 4
)

// Path attribute type codes used by the route server.
const (
	AttrOrigin      = 1
	AttrASPath      = 2
	AttrNextHop     = 3
	AttrCommunities = 8
)

// Attribute flag bits.
const (
	flagOptional   = 0x80
	flagTransitive = 0x40
	flagExtLen     = 0x10
)

// BlackholeCommunity is the well-known BLACKHOLE community 65535:666
// (RFC 7999). Routes carrying it request that traffic to the announced
// prefix be dropped.
const BlackholeCommunity Community = 0xFFFF029A

// NoExportCommunity is the well-known NO_EXPORT community, commonly attached
// alongside BLACKHOLE.
const NoExportCommunity Community = 0xFFFFFF01

// Community is an RFC 1997 standard community value (ASN:value packed into
// 32 bits).
type Community uint32

// ASN returns the upper half of the community.
func (c Community) ASN() uint16 { return uint16(c >> 16) }

// Value returns the lower half of the community.
func (c Community) Value() uint16 { return uint16(c) }

// String formats the community in canonical asn:value notation.
func (c Community) String() string { return fmt.Sprintf("%d:%d", c.ASN(), c.Value()) }

// Sentinel errors returned by the codec.
var (
	ErrTruncated  = errors.New("bgp: truncated message")
	ErrBadMarker  = errors.New("bgp: bad marker")
	ErrBadLength  = errors.New("bgp: bad length")
	ErrBadType    = errors.New("bgp: unknown message type")
	ErrBadVersion = errors.New("bgp: unsupported version")
)

const (
	headerLen = 19
	maxMsgLen = 4096
)

// Open is a BGP OPEN message.
type Open struct {
	Version  uint8
	ASN      uint16
	HoldTime uint16
	RouterID [4]byte
}

// Update is a BGP UPDATE message carrying withdrawn routes, path attributes
// and announced NLRI. Only IPv4 unicast NLRI is modelled; this matches the
// paper's blackholing service, which operates on IPv4 prefixes.
type Update struct {
	Withdrawn   []netip.Prefix
	Origin      uint8
	ASPath      []uint16
	NextHop     netip.Addr
	Communities []Community
	NLRI        []netip.Prefix
}

// IsBlackhole reports whether the update carries the RFC 7999 BLACKHOLE
// community.
func (u *Update) IsBlackhole() bool {
	for _, c := range u.Communities {
		if c == BlackholeCommunity {
			return true
		}
	}
	return false
}

// Notification is a BGP NOTIFICATION message.
type Notification struct {
	Code, Subcode uint8
	Data          []byte
}

// Error renders the notification as an error string.
func (n *Notification) Error() string {
	return fmt.Sprintf("bgp: notification code=%d subcode=%d", n.Code, n.Subcode)
}

// Message is a decoded BGP message; exactly one of the pointer fields is
// non-nil except for keepalives, which have none.
type Message struct {
	Type         uint8
	Open         *Open
	Update       *Update
	Notification *Notification
}

func appendHeader(buf []byte, msgType uint8) []byte {
	for i := 0; i < 16; i++ {
		buf = append(buf, 0xff)
	}
	buf = append(buf, 0, 0) // length placeholder
	return append(buf, msgType)
}

func finishMessage(buf []byte) ([]byte, error) {
	if len(buf) > maxMsgLen {
		return nil, fmt.Errorf("%w: message is %d bytes, max %d", ErrBadLength, len(buf), maxMsgLen)
	}
	binary.BigEndian.PutUint16(buf[16:18], uint16(len(buf)))
	return buf, nil
}

// AppendOpen appends an encoded OPEN message to buf.
func AppendOpen(buf []byte, o *Open) ([]byte, error) {
	buf = appendHeader(buf, TypeOpen)
	v := o.Version
	if v == 0 {
		v = 4
	}
	buf = append(buf, v)
	buf = binary.BigEndian.AppendUint16(buf, o.ASN)
	buf = binary.BigEndian.AppendUint16(buf, o.HoldTime)
	buf = append(buf, o.RouterID[:]...)
	buf = append(buf, 0) // no optional parameters
	return finishMessage(buf)
}

// AppendKeepalive appends an encoded KEEPALIVE message to buf.
func AppendKeepalive(buf []byte) []byte {
	buf = appendHeader(buf, TypeKeepalive)
	out, _ := finishMessage(buf)
	return out
}

func appendPrefix(buf []byte, p netip.Prefix) ([]byte, error) {
	if !p.Addr().Is4() {
		return nil, fmt.Errorf("bgp: only IPv4 NLRI supported, got %v", p)
	}
	bits := p.Bits()
	buf = append(buf, uint8(bits))
	a := p.Addr().As4()
	buf = append(buf, a[:(bits+7)/8]...)
	return buf, nil
}

func parsePrefixes(data []byte) ([]netip.Prefix, error) {
	var out []netip.Prefix
	for len(data) > 0 {
		bits := int(data[0])
		if bits > 32 {
			return nil, fmt.Errorf("bgp: prefix length %d: %w", bits, ErrBadLength)
		}
		n := (bits + 7) / 8
		if len(data) < 1+n {
			return nil, fmt.Errorf("bgp: prefix bytes: %w", ErrTruncated)
		}
		var a [4]byte
		copy(a[:], data[1:1+n])
		p := netip.PrefixFrom(netip.AddrFrom4(a), bits)
		if p.Masked() != p {
			// Tolerate host bits set beyond the mask; canonicalize.
			p = p.Masked()
		}
		out = append(out, p)
		data = data[1+n:]
	}
	return out, nil
}

// AppendUpdate appends an encoded UPDATE message to buf.
func AppendUpdate(buf []byte, u *Update) ([]byte, error) {
	buf = appendHeader(buf, TypeUpdate)

	// Withdrawn routes.
	wStart := len(buf)
	buf = append(buf, 0, 0)
	for _, p := range u.Withdrawn {
		var err error
		if buf, err = appendPrefix(buf, p); err != nil {
			return nil, err
		}
	}
	binary.BigEndian.PutUint16(buf[wStart:wStart+2], uint16(len(buf)-wStart-2))

	// Path attributes.
	aStart := len(buf)
	buf = append(buf, 0, 0)
	if len(u.NLRI) > 0 {
		buf = append(buf, flagTransitive, AttrOrigin, 1, u.Origin)

		asLen := 0
		if len(u.ASPath) > 0 {
			asLen = 2 + 2*len(u.ASPath)
		}
		buf = append(buf, flagTransitive, AttrASPath, uint8(asLen))
		if len(u.ASPath) > 0 {
			buf = append(buf, 2 /* AS_SEQUENCE */, uint8(len(u.ASPath)))
			for _, asn := range u.ASPath {
				buf = binary.BigEndian.AppendUint16(buf, asn)
			}
		}

		if !u.NextHop.Is4() {
			return nil, fmt.Errorf("bgp: next hop must be IPv4, got %v", u.NextHop)
		}
		nh := u.NextHop.As4()
		buf = append(buf, flagTransitive, AttrNextHop, 4)
		buf = append(buf, nh[:]...)

		if len(u.Communities) > 0 {
			buf = append(buf, flagOptional|flagTransitive, AttrCommunities, uint8(4*len(u.Communities)))
			for _, c := range u.Communities {
				buf = binary.BigEndian.AppendUint32(buf, uint32(c))
			}
		}
	}
	binary.BigEndian.PutUint16(buf[aStart:aStart+2], uint16(len(buf)-aStart-2))

	// NLRI.
	for _, p := range u.NLRI {
		var err error
		if buf, err = appendPrefix(buf, p); err != nil {
			return nil, err
		}
	}
	return finishMessage(buf)
}

// Decode parses one BGP message from data and returns it along with the
// number of bytes consumed. If data holds less than one full message it
// returns ErrTruncated (callers accumulate and retry).
func Decode(data []byte) (*Message, int, error) {
	if len(data) < headerLen {
		return nil, 0, ErrTruncated
	}
	for i := 0; i < 16; i++ {
		if data[i] != 0xff {
			return nil, 0, ErrBadMarker
		}
	}
	length := int(binary.BigEndian.Uint16(data[16:18]))
	if length < headerLen || length > maxMsgLen {
		return nil, 0, fmt.Errorf("%w: %d", ErrBadLength, length)
	}
	if len(data) < length {
		return nil, 0, ErrTruncated
	}
	msgType := data[18]
	body := data[headerLen:length]
	msg := &Message{Type: msgType}
	var err error
	switch msgType {
	case TypeOpen:
		msg.Open, err = parseOpen(body)
	case TypeUpdate:
		msg.Update, err = parseUpdate(body)
	case TypeNotification:
		if len(body) < 2 {
			return nil, 0, fmt.Errorf("notification: %w", ErrTruncated)
		}
		msg.Notification = &Notification{Code: body[0], Subcode: body[1], Data: append([]byte(nil), body[2:]...)}
	case TypeKeepalive:
		if len(body) != 0 {
			return nil, 0, fmt.Errorf("keepalive with body: %w", ErrBadLength)
		}
	default:
		return nil, 0, fmt.Errorf("%w: %d", ErrBadType, msgType)
	}
	if err != nil {
		return nil, 0, err
	}
	return msg, length, nil
}

func parseOpen(body []byte) (*Open, error) {
	if len(body) < 10 {
		return nil, fmt.Errorf("open: %w", ErrTruncated)
	}
	o := &Open{
		Version:  body[0],
		ASN:      binary.BigEndian.Uint16(body[1:3]),
		HoldTime: binary.BigEndian.Uint16(body[3:5]),
	}
	copy(o.RouterID[:], body[5:9])
	if o.Version != 4 {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, o.Version)
	}
	optLen := int(body[9])
	if len(body) < 10+optLen {
		return nil, fmt.Errorf("open optional parameters: %w", ErrTruncated)
	}
	return o, nil
}

func parseUpdate(body []byte) (*Update, error) {
	u := &Update{}
	if len(body) < 2 {
		return nil, fmt.Errorf("update withdrawn length: %w", ErrTruncated)
	}
	wLen := int(binary.BigEndian.Uint16(body[0:2]))
	if len(body) < 2+wLen {
		return nil, fmt.Errorf("update withdrawn routes: %w", ErrTruncated)
	}
	var err error
	if u.Withdrawn, err = parsePrefixes(body[2 : 2+wLen]); err != nil {
		return nil, err
	}
	body = body[2+wLen:]

	if len(body) < 2 {
		return nil, fmt.Errorf("update attribute length: %w", ErrTruncated)
	}
	aLen := int(binary.BigEndian.Uint16(body[0:2]))
	if len(body) < 2+aLen {
		return nil, fmt.Errorf("update attributes: %w", ErrTruncated)
	}
	attrs := body[2 : 2+aLen]
	body = body[2+aLen:]

	for len(attrs) > 0 {
		if len(attrs) < 3 {
			return nil, fmt.Errorf("attribute header: %w", ErrTruncated)
		}
		flags, code := attrs[0], attrs[1]
		var vLen, off int
		if flags&flagExtLen != 0 {
			if len(attrs) < 4 {
				return nil, fmt.Errorf("extended attribute header: %w", ErrTruncated)
			}
			vLen, off = int(binary.BigEndian.Uint16(attrs[2:4])), 4
		} else {
			vLen, off = int(attrs[2]), 3
		}
		if len(attrs) < off+vLen {
			return nil, fmt.Errorf("attribute value: %w", ErrTruncated)
		}
		val := attrs[off : off+vLen]
		switch code {
		case AttrOrigin:
			if vLen != 1 {
				return nil, fmt.Errorf("origin length %d: %w", vLen, ErrBadLength)
			}
			u.Origin = val[0]
		case AttrASPath:
			if err := parseASPath(val, u); err != nil {
				return nil, err
			}
		case AttrNextHop:
			if vLen != 4 {
				return nil, fmt.Errorf("next hop length %d: %w", vLen, ErrBadLength)
			}
			u.NextHop = netip.AddrFrom4([4]byte(val))
		case AttrCommunities:
			if vLen%4 != 0 {
				return nil, fmt.Errorf("communities length %d: %w", vLen, ErrBadLength)
			}
			for i := 0; i < vLen; i += 4 {
				u.Communities = append(u.Communities, Community(binary.BigEndian.Uint32(val[i:i+4])))
			}
		default:
			// Unrecognized attributes are skipped (transitive semantics are
			// irrelevant for a passive listener).
		}
		attrs = attrs[off+vLen:]
	}

	if u.NLRI, err = parsePrefixes(body); err != nil {
		return nil, err
	}
	return u, nil
}

func parseASPath(val []byte, u *Update) error {
	for len(val) > 0 {
		if len(val) < 2 {
			return fmt.Errorf("as path segment: %w", ErrTruncated)
		}
		segLen := int(val[1])
		if len(val) < 2+2*segLen {
			return fmt.Errorf("as path ASNs: %w", ErrTruncated)
		}
		for i := 0; i < segLen; i++ {
			u.ASPath = append(u.ASPath, binary.BigEndian.Uint16(val[2+2*i:4+2*i]))
		}
		val = val[2+2*segLen:]
	}
	return nil
}
