// Package ipfix implements the subset of IPFIX (RFC 7011) needed to collect
// sampled flow records: message decoding with template and data sets,
// dynamic template learning per observation domain, and conversion to the
// pipeline's netflow.Record. The tests carry the matching exporter. IXPs feed the scrubber with either sFlow
// (internal/sflow) or IPFIX, depending on the fabric.
package ipfix

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"sync"
)

// Sentinel errors.
var (
	ErrTruncated       = errors.New("ipfix: truncated message")
	ErrBadVersion      = errors.New("ipfix: unsupported version")
	ErrUnknownTemplate = errors.New("ipfix: data set references unknown template")
)

const (
	version10     = 10
	headerLen     = 16
	templateSetID = 2
	minDataSetID  = 256
)

// IANA information element IDs used by the flow template.
const (
	IEOctetDeltaCount  = 1
	IEPacketDeltaCount = 2
	IEProtocol         = 4
	IETCPControlBits   = 6
	IESrcPort          = 7
	IESrcIPv4          = 8
	IEDstPort          = 11
	IEDstIPv4          = 12
	IESamplingInterval = 34
	IESourceMac        = 56
	IEDestinationMac   = 80
	IEFragmentFlags    = 197
	IEFlowStartSeconds = 150
)

// FieldSpec is one template field.
type FieldSpec struct {
	ID     uint16
	Length uint16
}

// Record is the decoded flow view (a superset-free mirror of
// netflow.Record's wire-visible fields).
type Record struct {
	StartSeconds uint32
	SrcIP, DstIP netip.Addr
	SrcPort      uint16
	DstPort      uint16
	Protocol     uint8
	TCPFlags     uint8
	Fragment     bool
	SrcMAC       [6]byte
	DstMAC       [6]byte
	Packets      uint64
	Bytes        uint64
	SamplingRate uint32
}

// Collector decodes IPFIX messages, learning templates dynamically per
// observation domain. Safe for concurrent use.
type Collector struct {
	mu        sync.RWMutex
	templates map[uint64][]FieldSpec // (domain<<16|templateID) -> fields
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{templates: make(map[uint64][]FieldSpec)}
}

func tmplKey(domain uint32, id uint16) uint64 { return uint64(domain)<<16 | uint64(id) }

// DecodeAppend parses one message and appends its flow records to dst, so
// a receive loop can recycle one record slice across messages (dst[:0] each
// call) and decode without allocating at steady state. Data sets whose
// template is unknown yield ErrUnknownTemplate (the caller may retry after
// the exporter's periodic template refresh); template sets are learned as a
// side effect.
func (c *Collector) DecodeAppend(dst []Record, data []byte) ([]Record, error) {
	if len(data) < headerLen {
		return dst, ErrTruncated
	}
	if v := binary.BigEndian.Uint16(data[0:2]); v != version10 {
		return dst, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	msgLen := int(binary.BigEndian.Uint16(data[2:4]))
	if msgLen < headerLen || msgLen > len(data) {
		return dst, fmt.Errorf("ipfix: message length %d: %w", msgLen, ErrTruncated)
	}
	domain := binary.BigEndian.Uint32(data[12:16])
	body := data[headerLen:msgLen]

	out := dst
	var pendingErr error
	for len(body) > 0 {
		if len(body) < 4 {
			return out, ErrTruncated
		}
		setID := binary.BigEndian.Uint16(body[0:2])
		setLen := int(binary.BigEndian.Uint16(body[2:4]))
		if setLen < 4 || setLen > len(body) {
			return out, fmt.Errorf("ipfix: set length %d: %w", setLen, ErrTruncated)
		}
		content := body[4:setLen]
		switch {
		case setID == templateSetID:
			if err := c.learnTemplates(domain, content); err != nil {
				return out, err
			}
		case setID >= minDataSetID:
			recs, err := c.decodeDataSet(out, domain, setID, content)
			if err != nil {
				if errors.Is(err, ErrUnknownTemplate) {
					pendingErr = err // keep parsing further sets
				} else {
					return out, err
				}
			}
			out = recs
		default:
			// Options templates and reserved sets are skipped.
		}
		body = body[setLen:]
	}
	return out, pendingErr
}

func (c *Collector) learnTemplates(domain uint32, content []byte) error {
	for len(content) >= 4 {
		id := binary.BigEndian.Uint16(content[0:2])
		count := int(binary.BigEndian.Uint16(content[2:4]))
		content = content[4:]
		fields := make([]FieldSpec, 0, count)
		for i := 0; i < count; i++ {
			if len(content) < 4 {
				return ErrTruncated
			}
			fid := binary.BigEndian.Uint16(content[0:2])
			flen := binary.BigEndian.Uint16(content[2:4])
			content = content[4:]
			if fid&0x8000 != 0 {
				// Enterprise-specific element: skip the enterprise number.
				if len(content) < 4 {
					return ErrTruncated
				}
				content = content[4:]
				fid &= 0x7FFF
			}
			fields = append(fields, FieldSpec{ID: fid, Length: flen})
		}
		c.mu.Lock()
		c.templates[tmplKey(domain, id)] = fields
		c.mu.Unlock()
	}
	return nil
}

// decodeDataSet appends the set's records to dst and returns it; dst is
// returned unchanged on error.
func (c *Collector) decodeDataSet(dst []Record, domain uint32, setID uint16, content []byte) ([]Record, error) {
	c.mu.RLock()
	fields, ok := c.templates[tmplKey(domain, setID)]
	c.mu.RUnlock()
	if !ok {
		return dst, fmt.Errorf("%w: %d in domain %d", ErrUnknownTemplate, setID, domain)
	}
	recLen := 0
	for _, f := range fields {
		recLen += int(f.Length)
	}
	if recLen == 0 {
		return dst, fmt.Errorf("ipfix: template %d has zero-length records", setID)
	}
	for len(content) >= recLen {
		var r Record
		off := 0
		for _, f := range fields {
			v := content[off : off+int(f.Length)]
			decodeField(&r, f, v)
			off += int(f.Length)
		}
		dst = append(dst, r)
		content = content[recLen:]
	}
	return dst, nil
}

func decodeField(r *Record, f FieldSpec, v []byte) {
	switch f.ID {
	case IEFlowStartSeconds:
		r.StartSeconds = uintN(v)
	case IESrcIPv4:
		if len(v) == 4 {
			r.SrcIP = netip.AddrFrom4([4]byte(v))
		}
	case IEDstIPv4:
		if len(v) == 4 {
			r.DstIP = netip.AddrFrom4([4]byte(v))
		}
	case IESrcPort:
		r.SrcPort = uint16(uintN(v))
	case IEDstPort:
		r.DstPort = uint16(uintN(v))
	case IEProtocol:
		r.Protocol = uint8(uintN(v))
	case IETCPControlBits:
		r.TCPFlags = uint8(uintN(v))
	case IEFragmentFlags:
		r.Fragment = uintN(v) != 0
	case IESourceMac:
		if len(v) == 6 {
			copy(r.SrcMAC[:], v)
		}
	case IEDestinationMac:
		if len(v) == 6 {
			copy(r.DstMAC[:], v)
		}
	case IEPacketDeltaCount:
		r.Packets = uint64N(v)
	case IEOctetDeltaCount:
		r.Bytes = uint64N(v)
	case IESamplingInterval:
		r.SamplingRate = uintN(v)
	default:
		// Unknown elements are skipped by length.
	}
}

func uintN(v []byte) uint32 {
	var out uint32
	for _, b := range v {
		out = out<<8 | uint32(b)
	}
	return out
}

func uint64N(v []byte) uint64 {
	var out uint64
	for _, b := range v {
		out = out<<8 | uint64(b)
	}
	return out
}
