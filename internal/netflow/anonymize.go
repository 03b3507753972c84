package netflow

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"net/netip"
)

// Anonymizer obfuscates IP and MAC addresses with a keyed hash before
// records are persisted, mirroring the paper's ethics requirement that
// "IP addresses and MAC addresses are hashed with a secret salt before
// storage and analysis" (§4.3).
//
// The mapping is deterministic for a given salt (so one address always maps
// to the same pseudonym and per-IP aggregation still works) but cannot be
// inverted without the salt. Address family is preserved: IPv4 maps to IPv4,
// IPv6 to IPv6, so downstream prefix handling keeps working.
type Anonymizer struct {
	salt [32]byte
}

// NewAnonymizer creates an Anonymizer with the given secret salt.
func NewAnonymizer(salt []byte) (*Anonymizer, error) {
	if len(salt) < 16 {
		return nil, fmt.Errorf("netflow: anonymizer salt must be at least 16 bytes, got %d", len(salt))
	}
	a := &Anonymizer{}
	sum := sha256.Sum256(salt)
	a.salt = sum
	return a, nil
}

// NewRandomAnonymizer creates an Anonymizer with a salt drawn from
// crypto/rand, for deployments where the salt never needs to be shared.
func NewRandomAnonymizer() (*Anonymizer, error) {
	var salt [32]byte
	if _, err := rand.Read(salt[:]); err != nil {
		return nil, fmt.Errorf("netflow: generating salt: %w", err)
	}
	return NewAnonymizer(salt[:])
}

func (a *Anonymizer) mac16(domain byte, in []byte) [16]byte {
	h := hmac.New(sha256.New, a.salt[:])
	h.Write([]byte{domain})
	h.Write(in)
	var out [16]byte
	copy(out[:], h.Sum(nil))
	return out
}

// Addr returns the pseudonym for ip, preserving the address family.
func (a *Anonymizer) Addr(ip netip.Addr) netip.Addr {
	if !ip.IsValid() {
		return ip
	}
	if ip.Is4() || ip.Is4In6() {
		b := ip.As4()
		d := a.mac16('4', b[:])
		return netip.AddrFrom4([4]byte(d[:4]))
	}
	b := ip.As16()
	d := a.mac16('6', b[:])
	return netip.AddrFrom16(d)
}

// MAC returns the pseudonym for a hardware address. The locally-administered
// bit is set and the multicast bit cleared so pseudonyms cannot collide with
// real vendor-assigned unicast addresses.
func (a *Anonymizer) MAC(m [6]byte) [6]byte {
	d := a.mac16('m', m[:])
	var out [6]byte
	copy(out[:], d[:6])
	out[0] = out[0]&^0x01 | 0x02
	return out
}

// Record anonymizes all addresses of r in place.
func (a *Anonymizer) Record(r *Record) {
	r.SrcIP = a.Addr(r.SrcIP)
	r.DstIP = a.Addr(r.DstIP)
	r.SrcMAC = a.MAC(r.SrcMAC)
	r.DstMAC = a.MAC(r.DstMAC)
}
