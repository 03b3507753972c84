// Package netflow defines the sampled flow record model used throughout the
// IXP Scrubber pipeline, a compact binary codec for storing flow datasets,
// and the salted anonymizer applied before any record is persisted.
//
// A Record corresponds to one sampled flow observation as produced by the
// sFlow collector: the L2-L4 header fields of the sampled packet plus the
// sample's scaled-up packet and byte counts for its one-minute bin.
package netflow

import (
	"fmt"
	"net/netip"
	"time"
)

// Record is one sampled flow observation. IP addresses use netip.Addr so
// IPv4 and IPv6 share one model; the codec stores them as 16-byte values.
type Record struct {
	// Timestamp is the start of the observation, unix seconds.
	Timestamp int64
	SrcIP     netip.Addr
	DstIP     netip.Addr
	SrcPort   uint16
	DstPort   uint16
	Protocol  uint8 // IP protocol number
	TCPFlags  uint8
	// Fragment marks a non-first IP fragment (no transport header present).
	Fragment bool
	// SrcMAC identifies the IXP member port the traffic entered on.
	SrcMAC [6]byte
	DstMAC [6]byte
	// Packets and Bytes are sample counts scaled by the sampling rate.
	Packets uint64
	Bytes   uint64
	// SamplingRate records the 1:N packet sampling applied at capture.
	SamplingRate uint32
	// Blackholed is set when DstIP matched an active blackhole announcement
	// at Timestamp. It is the (noisy) training label.
	Blackholed bool
}

// Time returns the record timestamp as a time.Time in UTC.
func (r *Record) Time() time.Time { return time.Unix(r.Timestamp, 0).UTC() }

// Minute returns the one-minute bin index of the record (unix minutes).
// Both the balancing procedure (§3) and the feature aggregation (§5.2.1)
// operate on these bins.
func (r *Record) Minute() int64 { return r.Timestamp / 60 }

// MeanPacketSize returns the average sampled packet size in bytes, one of
// the three ranking metrics of the aggregation step.
func (r *Record) MeanPacketSize() float64 {
	if r.Packets == 0 {
		return 0
	}
	return float64(r.Bytes) / float64(r.Packets)
}

// Validate reports structural problems in a record: the generator and
// trace-writer tests check their output with it.
func (r *Record) Validate() error {
	switch {
	case !r.SrcIP.IsValid():
		return fmt.Errorf("netflow: record at %d: invalid src ip", r.Timestamp)
	case !r.DstIP.IsValid():
		return fmt.Errorf("netflow: record at %d: invalid dst ip", r.Timestamp)
	case r.Packets == 0:
		return fmt.Errorf("netflow: record at %d: zero packets", r.Timestamp)
	case r.Bytes < r.Packets*20:
		return fmt.Errorf("netflow: record at %d: %d bytes for %d packets below minimum header size",
			r.Timestamp, r.Bytes, r.Packets)
	}
	return nil
}

// String renders the record in a human-readable one-line form.
func (r *Record) String() string {
	label := "benign"
	if r.Blackholed {
		label = "blackholed"
	}
	return fmt.Sprintf("%s %s:%d -> %s:%d proto=%d pkts=%d bytes=%d %s",
		r.Time().Format(time.RFC3339), r.SrcIP, r.SrcPort, r.DstIP, r.DstPort,
		r.Protocol, r.Packets, r.Bytes, label)
}
