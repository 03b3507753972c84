package ipfix

// The exporter half of the protocol: tests encode messages with it and feed
// them to the collector.

import (
	"encoding/binary"

	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
)

// FlowTemplate is the template this package exports: every field of
// netflow.Record in fixed-length IANA elements.
var FlowTemplate = []FieldSpec{
	{IEFlowStartSeconds, 4},
	{IESrcIPv4, 4},
	{IEDstIPv4, 4},
	{IESrcPort, 2},
	{IEDstPort, 2},
	{IEProtocol, 1},
	{IETCPControlBits, 1},
	{IEFragmentFlags, 1},
	{IESourceMac, 6},
	{IEDestinationMac, 6},
	{IEPacketDeltaCount, 8},
	{IEOctetDeltaCount, 8},
	{IESamplingInterval, 4},
}

// FlowTemplateID is the template ID the exporter uses.
const FlowTemplateID = 400

// Exporter encodes IPFIX messages. It prepends the template set to the
// first message (and periodically if asked), as RFC 7011 exporters do over
// UDP.
type Exporter struct {
	DomainID uint32
	seq      uint32
	sentTmpl bool
}

// Encode builds one message carrying the records (plus the template set on
// the first call), appending to buf.
func (e *Exporter) Encode(buf []byte, exportTime uint32, records []Record) []byte {
	start := len(buf)
	buf = binary.BigEndian.AppendUint16(buf, version10)
	buf = append(buf, 0, 0) // length placeholder
	buf = binary.BigEndian.AppendUint32(buf, exportTime)
	buf = binary.BigEndian.AppendUint32(buf, e.seq)
	buf = binary.BigEndian.AppendUint32(buf, e.DomainID)
	e.seq += uint32(len(records))

	if !e.sentTmpl {
		e.sentTmpl = true
		buf = appendTemplateSet(buf)
	}
	if len(records) > 0 {
		setStart := len(buf)
		buf = binary.BigEndian.AppendUint16(buf, FlowTemplateID)
		buf = append(buf, 0, 0) // set length placeholder
		for i := range records {
			buf = appendRecord(buf, &records[i])
		}
		binary.BigEndian.PutUint16(buf[setStart+2:setStart+4], uint16(len(buf)-setStart))
	}
	binary.BigEndian.PutUint16(buf[start+2:start+4], uint16(len(buf)-start))
	return buf
}

// ResendTemplate forces the next message to carry the template set again
// (UDP template refresh).
func (e *Exporter) ResendTemplate() { e.sentTmpl = false }

func appendTemplateSet(buf []byte) []byte {
	setStart := len(buf)
	buf = binary.BigEndian.AppendUint16(buf, templateSetID)
	buf = append(buf, 0, 0)
	buf = binary.BigEndian.AppendUint16(buf, FlowTemplateID)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(FlowTemplate)))
	for _, f := range FlowTemplate {
		buf = binary.BigEndian.AppendUint16(buf, f.ID)
		buf = binary.BigEndian.AppendUint16(buf, f.Length)
	}
	binary.BigEndian.PutUint16(buf[setStart+2:setStart+4], uint16(len(buf)-setStart))
	return buf
}

func appendRecord(buf []byte, r *Record) []byte {
	buf = binary.BigEndian.AppendUint32(buf, r.StartSeconds)
	src := r.SrcIP.Unmap().As4()
	dst := r.DstIP.Unmap().As4()
	buf = append(buf, src[:]...)
	buf = append(buf, dst[:]...)
	buf = binary.BigEndian.AppendUint16(buf, r.SrcPort)
	buf = binary.BigEndian.AppendUint16(buf, r.DstPort)
	frag := byte(0)
	if r.Fragment {
		frag = 1
	}
	buf = append(buf, r.Protocol, r.TCPFlags, frag)
	buf = append(buf, r.SrcMAC[:]...)
	buf = append(buf, r.DstMAC[:]...)
	buf = binary.BigEndian.AppendUint64(buf, r.Packets)
	buf = binary.BigEndian.AppendUint64(buf, r.Bytes)
	buf = binary.BigEndian.AppendUint32(buf, r.SamplingRate)
	return buf
}

// Decode is DecodeAppend into a fresh slice.
func (c *Collector) Decode(data []byte) ([]Record, error) {
	return c.DecodeAppend(nil, data)
}

// FromNetflow converts a pipeline record into an IPFIX record for export.
func FromNetflow(r *netflow.Record) Record {
	return Record{
		StartSeconds: uint32(r.Timestamp),
		SrcIP:        r.SrcIP,
		DstIP:        r.DstIP,
		SrcPort:      r.SrcPort,
		DstPort:      r.DstPort,
		Protocol:     r.Protocol,
		TCPFlags:     r.TCPFlags,
		Fragment:     r.Fragment,
		SrcMAC:       r.SrcMAC,
		DstMAC:       r.DstMAC,
		Packets:      r.Packets,
		Bytes:        r.Bytes,
		SamplingRate: r.SamplingRate,
	}
}
