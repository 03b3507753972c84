// Package tagging implements Step 1 of the IXP Scrubber model (§5.1):
// association rule mining over discretized flow headers with the
// {blackhole} consequent, FP-Growth frequent itemset mining, the rule set
// minimization of Algorithm 1, operator curation states, and the JSON
// import/export format of the released rule list.
package tagging

import (
	"fmt"
	"math"
	"strings"

	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
)

// Field identifies one discretized header attribute.
type Field uint8

// Discretized header fields, the antecedent vocabulary of tagging rules.
const (
	FieldProtocol Field = iota + 1
	FieldSrcPort
	FieldDstPort
	FieldSize
	FieldFragment
	fieldLabel // internal: the {blackhole} consequent
)

// String returns the column name used in the rule UI and JSON export.
func (f Field) String() string {
	switch f {
	case FieldProtocol:
		return "protocol"
	case FieldSrcPort:
		return "port_src"
	case FieldDstPort:
		return "port_dst"
	case FieldSize:
		return "packet_size"
	case FieldFragment:
		return "fragment"
	case fieldLabel:
		return "blackhole"
	default:
		return fmt.Sprintf("field(%d)", uint8(f))
	}
}

// Item is one (field, value) pair, packed for use as a map key and cheap
// comparison. The top byte is the Field, the low 24 bits the value.
type Item uint32

// NewItem packs a field and value.
func NewItem(f Field, v uint32) Item { return Item(uint32(f)<<24 | v&0xFFFFFF) }

// Field returns the item's field.
func (it Item) Field() Field { return Field(it >> 24) }

// Value returns the item's 24-bit value.
func (it Item) Value() uint32 { return uint32(it) & 0xFFFFFF }

// Port classes: ports outside the retained set collapse into one class, the
// analog of the released rules' negated port sets ("~{0,17,19,...}"): the
// traffic is sprayed over arbitrary, unpopular ports.
const (
	// PortOther is the value of a port item for an unretained port.
	PortOther uint32 = 0xFFFFFE
)

// SizeBinWidth is the width of packet size bins in bytes; the released
// rules use intervals like "(400,500]".
const SizeBinWidth = 100

// labelItem is the consequent item.
const labelItem = Item(uint32(fieldLabel)<<24 | 1)

// catalogPorts are the DDoS catalog ports above the well-known range.
var catalogPorts = []uint16{1194, 1434, 1900, 1935, 2048, 3283, 3389, 3702,
	4500, 5060, 8080, 8443, 10001, 11211, 27015}

// retained is the set of port values kept literal during discretization —
// the well-known service ports plus catalogPorts — one bit per port.
var retained = func() (b [1024]uint64) {
	set := func(p uint16) { b[p>>6] |= 1 << (p & 63) }
	for p := uint16(0); p < 1024; p++ {
		set(p)
	}
	for _, p := range catalogPorts {
		set(p)
	}
	return
}()

// PortValue discretizes a port: retained ports stay literal, everything
// else collapses into PortOther. The compiled mitigation fast path
// (internal/dropper) discretizes through it too, so both stay bit-identical
// to the rule semantics.
func PortValue(p uint16) uint32 {
	if retained[p>>6]&(1<<(p&63)) != 0 {
		return uint32(p)
	}
	return PortOther
}

// SizeValue is the integer mean packet size that SizeBin bins: negative
// sizes clamp to 0, sizes beyond uint32 clamp to MaxUint32 (a plain
// conversion would wrap them into the small bins), everything else
// truncates toward zero. The dropper's packet-size range table is keyed on
// this value so both paths share one float64→uint32 conversion; any drift
// here breaks their bit-for-bit equivalence.
func SizeValue(meanSize float64) uint32 {
	if meanSize < 0 {
		return 0
	}
	if meanSize >= math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(meanSize)
}

// SizeBin returns the packet size bin index of a mean packet size.
func SizeBin(meanSize float64) uint32 {
	return min(SizeValue(meanSize)/SizeBinWidth, 15)
}

// SizeBinLabel formats a bin as the half-open interval used by the UI.
func SizeBinLabel(bin uint32) string {
	lo := bin * SizeBinWidth
	hi := lo + SizeBinWidth
	if bin == 15 {
		return fmt.Sprintf("(%d,inf)", lo)
	}
	return fmt.Sprintf("(%d,%d]", lo, hi)
}

// Class is one record's complete Step-1 discretisation packed into a word:
// protocol in bits 0–7, size bin in 8–11, fragment in bit 12, source port
// class in 13–36 and destination port class in 37–60. Fragments carry no
// transport header, so their port fields are zero. Two records with the
// same Class are indistinguishable to rule mining and rule tagging, which
// is what lets both work on classes instead of records.
type Class uint64

const (
	classSizeShift = 8
	classFragBit   = Class(1) << 12
	classSrcShift  = 13
	classDstShift  = 37
	classPortMask  = Class(0xFFFFFF)
)

// ClassOf discretises a flow record.
func ClassOf(r *netflow.Record) Class {
	c := Class(r.Protocol) | Class(SizeBin(r.MeanPacketSize()))<<classSizeShift
	if r.Fragment {
		return c | classFragBit
	}
	return c | Class(PortValue(r.SrcPort))<<classSrcShift | Class(PortValue(r.DstPort))<<classDstShift
}

// Items appends the class's antecedent items to dst in ascending Item
// order — field order, since a class holds at most one value per field.
func (c Class) Items(dst []Item) []Item {
	dst = append(dst, NewItem(FieldProtocol, uint32(c&0xFF)))
	if c&classFragBit == 0 {
		dst = append(dst,
			NewItem(FieldSrcPort, uint32(c>>classSrcShift&classPortMask)),
			NewItem(FieldDstPort, uint32(c>>classDstShift&classPortMask)))
	}
	dst = append(dst, NewItem(FieldSize, uint32(c>>classSizeShift&0xF)))
	if c&classFragBit != 0 {
		dst = append(dst, NewItem(FieldFragment, 1))
	}
	return dst
}

// classMatch is an antecedent lowered onto Class: a record satisfies the
// antecedent exactly when ClassOf(record)&mask == want.
type classMatch struct{ mask, want Class }

// neverMatch is the lowering of an antecedent no record satisfies: want
// has a bit outside mask, and bit 63 is outside every Class.
var neverMatch = classMatch{want: 1 << 63}

func (m classMatch) matches(c Class) bool { return c&m.mask == m.want }

// lowerAntecedent lowers an antecedent with MatchRecord's semantics: every
// item must hold, port items also require an unfragmented record, and two
// items that disagree on a field (or a value no record discretises to, or
// an unknown field) make the antecedent unsatisfiable.
func lowerAntecedent(antecedent []Item) classMatch {
	var m classMatch
	for _, it := range antecedent {
		v := Class(it.Value())
		var mask, want Class
		switch it.Field() {
		case FieldProtocol:
			if v > 0xFF {
				return neverMatch
			}
			mask, want = 0xFF, v
		case FieldSrcPort:
			mask, want = classPortMask<<classSrcShift|classFragBit, v<<classSrcShift
		case FieldDstPort:
			mask, want = classPortMask<<classDstShift|classFragBit, v<<classDstShift
		case FieldSize:
			if v > 15 {
				return neverMatch
			}
			mask, want = 0xF<<classSizeShift, v<<classSizeShift
		case FieldFragment:
			mask, want = classFragBit, classFragBit
		default:
			return neverMatch
		}
		if shared := m.mask & mask; m.want&shared != want&shared {
			return neverMatch
		}
		m.mask |= mask
		m.want |= want
	}
	return m
}

// ItemString formats one item for display (e.g. "port_src=123",
// "packet_size=(400,500]", "port_dst=~popular").
func ItemString(it Item) string {
	switch it.Field() {
	case FieldSize:
		return fmt.Sprintf("packet_size=%s", SizeBinLabel(it.Value()))
	case FieldSrcPort, FieldDstPort:
		if it.Value() == PortOther {
			return fmt.Sprintf("%s=~popular", it.Field())
		}
		return fmt.Sprintf("%s=%d", it.Field(), it.Value())
	case FieldFragment:
		return "fragment=true"
	default:
		return fmt.Sprintf("%s=%d", it.Field(), it.Value())
	}
}

// ItemsString joins an antecedent for display.
func ItemsString(items []Item) string {
	parts := make([]string, len(items))
	for i, it := range items {
		parts[i] = ItemString(it)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// MatchRecord reports whether every item of the antecedent holds for the
// record's discretization. It is the per-item statement of the rule
// semantics; Tagger matches the same semantics on lowered classes.
func MatchRecord(antecedent []Item, r *netflow.Record) bool {
	for _, it := range antecedent {
		switch it.Field() {
		case FieldProtocol:
			if uint32(r.Protocol) != it.Value() {
				return false
			}
		case FieldSrcPort:
			if r.Fragment || PortValue(r.SrcPort) != it.Value() {
				return false
			}
		case FieldDstPort:
			if r.Fragment || PortValue(r.DstPort) != it.Value() {
				return false
			}
		case FieldSize:
			if SizeBin(r.MeanPacketSize()) != it.Value() {
				return false
			}
		case FieldFragment:
			if !r.Fragment {
				return false
			}
		default:
			return false
		}
	}
	return true
}
