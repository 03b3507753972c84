package bgp

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"sort"
	"strings"
)

// BGP Flow Specification (RFC 8955) support: the standard mechanism for
// disseminating fine-grained DDoS filters between routers. The IXP Scrubber
// uses it to push generated per-target drop/rate-limit rules to member
// routers without touching device configuration — the deployment channel
// alongside plain ACLs.

// FlowSpec component types (RFC 8955 §4.2.2).
const (
	FSDstPrefix  = 1
	FSSrcPrefix  = 2
	FSIPProtocol = 3
	FSPort       = 4
	FSDstPort    = 5
	FSSrcPort    = 6
	FSTCPFlags   = 9
	FSPacketLen  = 10
	FSFragment   = 12
)

// Numeric operator bits (RFC 8955 §4.2.1.1).
const (
	fsOpEnd = 0x80 // end-of-list
	fsOpAnd = 0x40 // AND with previous
	fsOpLT  = 0x04
	fsOpGT  = 0x02
	fsOpEQ  = 0x01
)

// Fragment bitmask operator values (§4.2.2.12).
const (
	FragIsFragment = 0x02 // IsF: not the first fragment
)

// NumericMatch is one (operator, value) pair of a numeric component.
type NumericMatch struct {
	// LT, GT, EQ select the comparison; combinations express ranges
	// (GT|EQ = >=). AND chains this match with the previous one.
	LT, GT, EQ bool
	AND        bool
	Value      uint32
}

// matches evaluates the single comparison.
func (m NumericMatch) matches(v uint32) bool {
	r := false
	if m.LT && v < m.Value {
		r = true
	}
	if m.GT && v > m.Value {
		r = true
	}
	if m.EQ && v == m.Value {
		r = true
	}
	return r
}

// Component is one FlowSpec component: either a prefix component or a list
// of numeric/bitmask matches over a packet property.
type Component struct {
	Type    uint8
	Prefix  netip.Prefix   // FSDstPrefix / FSSrcPrefix
	Matches []NumericMatch // everything else
}

// Rule is an ordered list of components, all of which must match
// (components AND together; match lists OR/AND per operator bits).
type Rule struct {
	Components []Component
}

// eval evaluates a match list against a value per RFC 8955 semantics:
// consecutive matches joined by AND form conjunctions; conjunctions are
// OR-ed together.
func evalMatches(matches []NumericMatch, v uint32) bool {
	result := false
	cur := true
	started := false
	for _, m := range matches {
		if m.AND && started {
			cur = cur && m.matches(v)
		} else {
			if started {
				result = result || cur
			}
			cur = m.matches(v)
			started = true
		}
	}
	if started {
		result = result || cur
	}
	return result
}

// FlowKey is the packet/flow view a rule is evaluated against.
type FlowKey struct {
	SrcIP, DstIP     netip.Addr
	Protocol         uint8
	SrcPort, DstPort uint16
	TCPFlags         uint8
	PacketLen        uint16
	Fragment         bool
}

// Matches reports whether the rule matches the flow.
func (r *Rule) Matches(k *FlowKey) bool {
	for _, c := range r.Components {
		switch c.Type {
		case FSDstPrefix:
			if !k.DstIP.IsValid() || !c.Prefix.Contains(k.DstIP.Unmap()) {
				return false
			}
		case FSSrcPrefix:
			if !k.SrcIP.IsValid() || !c.Prefix.Contains(k.SrcIP.Unmap()) {
				return false
			}
		case FSIPProtocol:
			if !evalMatches(c.Matches, uint32(k.Protocol)) {
				return false
			}
		case FSDstPort:
			if !evalMatches(c.Matches, uint32(k.DstPort)) {
				return false
			}
		case FSSrcPort:
			if !evalMatches(c.Matches, uint32(k.SrcPort)) {
				return false
			}
		case FSPort:
			if !evalMatches(c.Matches, uint32(k.SrcPort)) && !evalMatches(c.Matches, uint32(k.DstPort)) {
				return false
			}
		case FSTCPFlags:
			if !evalBitmask(c.Matches, uint32(k.TCPFlags)) {
				return false
			}
		case FSPacketLen:
			if !evalMatches(c.Matches, uint32(k.PacketLen)) {
				return false
			}
		case FSFragment:
			frag := uint32(0)
			if k.Fragment {
				frag = FragIsFragment
			}
			if !evalBitmask(c.Matches, frag) {
				return false
			}
		default:
			return false // unknown component: fail closed
		}
	}
	return true
}

// evalBitmask evaluates bitmask matches (RFC 8955 §4.2.1.2, "match" bit
// semantics reduced to: any-of for plain matches).
func evalBitmask(matches []NumericMatch, v uint32) bool {
	result := false
	for _, m := range matches {
		hit := v&m.Value != 0
		if m.EQ { // NOT bit reused: exact-match semantics
			hit = v == m.Value
		}
		result = result || hit
	}
	return result
}

// String renders the rule in the conventional textual form.
func (r *Rule) String() string {
	var parts []string
	for _, c := range r.Components {
		switch c.Type {
		case FSDstPrefix:
			parts = append(parts, "dst "+c.Prefix.String())
		case FSSrcPrefix:
			parts = append(parts, "src "+c.Prefix.String())
		default:
			name := map[uint8]string{
				FSIPProtocol: "proto", FSPort: "port", FSDstPort: "dport",
				FSSrcPort: "sport", FSTCPFlags: "tcp-flags", FSPacketLen: "len",
				FSFragment: "frag",
			}[c.Type]
			var ms []string
			for _, m := range c.Matches {
				op := ""
				if m.GT {
					op += ">"
				}
				if m.LT {
					op += "<"
				}
				if m.EQ {
					op += "="
				}
				ms = append(ms, fmt.Sprintf("%s%d", op, m.Value))
			}
			parts = append(parts, fmt.Sprintf("%s %s", name, strings.Join(ms, "|")))
		}
	}
	return strings.Join(parts, " & ")
}

// AppendNLRI encodes the rule as FlowSpec NLRI (length + components).
func (r *Rule) AppendNLRI(buf []byte) ([]byte, error) {
	body, err := r.appendComponents(nil)
	if err != nil {
		return nil, err
	}
	if len(body) >= 0xF0 {
		// Two-byte length form.
		buf = append(buf, byte(0xF0|(len(body)>>8)), byte(len(body)))
	} else {
		buf = append(buf, byte(len(body)))
	}
	return append(buf, body...), nil
}

func (r *Rule) appendComponents(buf []byte) ([]byte, error) {
	// Components must appear in ascending type order (RFC 8955 §4.2.1).
	comps := append([]Component(nil), r.Components...)
	sort.SliceStable(comps, func(i, j int) bool { return comps[i].Type < comps[j].Type })
	for _, c := range comps {
		buf = append(buf, c.Type)
		switch c.Type {
		case FSDstPrefix, FSSrcPrefix:
			if !c.Prefix.Addr().Is4() {
				return nil, fmt.Errorf("bgp: flowspec prefixes must be IPv4, got %v", c.Prefix)
			}
			bits := c.Prefix.Bits()
			buf = append(buf, byte(bits))
			a := c.Prefix.Addr().As4()
			buf = append(buf, a[:(bits+7)/8]...)
		default:
			if len(c.Matches) == 0 {
				return nil, fmt.Errorf("bgp: flowspec component %d has no matches", c.Type)
			}
			for i, m := range c.Matches {
				op := byte(0)
				if m.AND {
					op |= fsOpAnd
				}
				if m.LT {
					op |= fsOpLT
				}
				if m.GT {
					op |= fsOpGT
				}
				if m.EQ {
					op |= fsOpEQ
				}
				if i == len(c.Matches)-1 {
					op |= fsOpEnd
				}
				// Value length: 1, 2 or 4 bytes, encoded in op bits 4-5.
				switch {
				case m.Value < 1<<8:
					buf = append(buf, op, byte(m.Value))
				case m.Value < 1<<16:
					buf = append(buf, op|0x10)
					buf = binary.BigEndian.AppendUint16(buf, uint16(m.Value))
				default:
					buf = append(buf, op|0x20)
					buf = binary.BigEndian.AppendUint32(buf, m.Value)
				}
			}
		}
	}
	return buf, nil
}

// ParseFlowSpecNLRI decodes one FlowSpec NLRI, returning the rule and bytes
// consumed.
func ParseFlowSpecNLRI(data []byte) (*Rule, int, error) {
	if len(data) < 1 {
		return nil, 0, ErrTruncated
	}
	length := int(data[0])
	off := 1
	if length >= 0xF0 {
		if len(data) < 2 {
			return nil, 0, ErrTruncated
		}
		length = (length&0x0F)<<8 | int(data[1])
		off = 2
	}
	if len(data) < off+length {
		return nil, 0, fmt.Errorf("bgp: flowspec nlri: %w", ErrTruncated)
	}
	body := data[off : off+length]
	rule := &Rule{}
	for len(body) > 0 {
		t := body[0]
		body = body[1:]
		switch t {
		case FSDstPrefix, FSSrcPrefix:
			if len(body) < 1 {
				return nil, 0, ErrTruncated
			}
			bits := int(body[0])
			if bits > 32 {
				return nil, 0, fmt.Errorf("bgp: flowspec prefix length %d: %w", bits, ErrBadLength)
			}
			n := (bits + 7) / 8
			if len(body) < 1+n {
				return nil, 0, ErrTruncated
			}
			var a [4]byte
			copy(a[:], body[1:1+n])
			rule.Components = append(rule.Components, Component{
				Type:   t,
				Prefix: netip.PrefixFrom(netip.AddrFrom4(a), bits).Masked(),
			})
			body = body[1+n:]
		default:
			var matches []NumericMatch
			for {
				if len(body) < 1 {
					return nil, 0, ErrTruncated
				}
				op := body[0]
				body = body[1:]
				vlen := 1 << ((op >> 4) & 0x3)
				if len(body) < vlen {
					return nil, 0, ErrTruncated
				}
				var v uint32
				switch vlen {
				case 1:
					v = uint32(body[0])
				case 2:
					v = uint32(binary.BigEndian.Uint16(body))
				case 4:
					v = binary.BigEndian.Uint32(body)
				default:
					return nil, 0, fmt.Errorf("bgp: flowspec value length %d: %w", vlen, ErrBadLength)
				}
				body = body[vlen:]
				matches = append(matches, NumericMatch{
					AND:   op&fsOpAnd != 0,
					LT:    op&fsOpLT != 0,
					GT:    op&fsOpGT != 0,
					EQ:    op&fsOpEQ != 0,
					Value: v,
				})
				if op&fsOpEnd != 0 {
					break
				}
			}
			rule.Components = append(rule.Components, Component{Type: t, Matches: matches})
		}
	}
	return rule, off + length, nil
}

// TrafficAction is the extended community attached to a FlowSpec route.
type TrafficAction struct {
	// RateLimitBps rate-limits matching traffic; 0 drops it entirely
	// (traffic-rate 0 = discard, RFC 8955 §7.1).
	RateLimitBps float32
}

// Drop is the discard action.
var Drop = TrafficAction{RateLimitBps: 0}

// RateLimit returns a shaping action.
func RateLimit(bps float32) TrafficAction { return TrafficAction{RateLimitBps: bps} }
