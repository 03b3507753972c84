// Package dropper is the compiled mitigation fast path: it compiles
// curated tagging rules scoped to champion-classified targets (the ACL
// verdict stream) into a flat, contiguous match program evaluated inline
// against every ingest batch, in front of the collector→balancer queue.
//
// The design follows the driver-offload shape of software scrubbers: a
// slow control plane (training rounds, operator curation) promotes
// verdicts, a compiler lowers them into per-dimension lookup tables —
// per-protocol port bitmaps, a binary-searchable packet-size range table,
// and LPM prefix tries packed into arrays — and the data plane hits only
// those tables: no locks, no allocations, no per-rule loop. Programs are
// immutable and published with an atomic.Pointer swap (the same memory
// model as the WoE snapshot), so recompile + hot swap never pauses ingest.
//
// Because the actuated rule set must stay explainable and auditable, the
// tests keep a naive per-rule reference interpreter (Interpreter, in
// interp_test.go) and pin the compiler to it bit-for-bit in the
// equivalence, property and fuzz suites: the fast path can never silently
// diverge from the rules it claims to enforce.
package dropper

import (
	"net/netip"

	"github.com/ixp-scrubber/ixpscrubber/internal/acl"
	"github.com/ixp-scrubber/ixpscrubber/internal/tagging"
)

// Rule is one drop-program rule: the conjunction of optional conditions
// over the discretized header fields of the tagging vocabulary, plus
// optional source/destination prefix scopes. Rules are matched in slice
// order; the first match wins.
//
// Conditions use the exact discretization of internal/tagging: port
// values are tagging.PortValue classes (literal retained ports or
// tagging.PortOther), the size condition names a tagging.SizeBin bin, and
// port conditions never hold for fragmented records (fragments carry no
// trustworthy ports — the same rule a tagging antecedent applies).
type Rule struct {
	// ID labels the rule in counters and serialized programs. Entries
	// derived from the same curated tagging rule share an ID; per-rule
	// drop counters aggregate over it.
	ID string
	// Action is what a match does with the record. Only ActionDrop
	// removes records from the stream; other actions count as matches
	// for first-match-wins purposes but the record passes.
	Action acl.Action

	// Proto requires the IP protocol to equal this value when ProtoSet.
	Proto    uint32
	ProtoSet bool
	// SrcPort/DstPort require the tagging.PortValue of the record's port
	// to equal this class (a retained literal port or tagging.PortOther).
	SrcPort    uint32
	SrcPortSet bool
	DstPort    uint32
	DstPortSet bool
	// SizeBin requires tagging.SizeBin of the record's mean packet size
	// to equal this bin when SizeBinSet.
	SizeBin    uint32
	SizeBinSet bool
	// Fragment requires the record to be fragmented.
	Fragment bool

	// Src and Dst scope the rule to source/destination prefixes; the
	// zero (invalid) Prefix means any. Containment is netip semantics:
	// an address of a different family, a zoned address, or an invalid
	// address is never contained.
	Src netip.Prefix
	Dst netip.Prefix

	// Dead marks a rule whose conditions can never hold simultaneously
	// (e.g. an antecedent carrying two different values for one field).
	// Dead rules keep their slot — indices and counters stay aligned
	// with the verdict stream — but match nothing.
	Dead bool
}

// FromEntry lowers one ACL entry — a curated tagging rule scoped to a
// classified target — into a drop-program rule with identical semantics: a
// record matches when the target contains its destination and it carries
// every antecedent item.
func FromEntry(e *acl.Entry) Rule {
	r := Rule{ID: e.Rule.ID, Action: e.Action, Dst: e.Target}
	set := func(cur *uint32, has *bool, v uint32) {
		if *has && *cur != v {
			// Two different values for one field: a tagging antecedent
			// requires both, so the conjunction is unsatisfiable.
			r.Dead = true
			return
		}
		*cur, *has = v, true
	}
	for _, it := range e.Rule.Antecedent {
		switch it.Field() {
		case tagging.FieldProtocol:
			set(&r.Proto, &r.ProtoSet, it.Value())
		case tagging.FieldSrcPort:
			set(&r.SrcPort, &r.SrcPortSet, it.Value())
		case tagging.FieldDstPort:
			set(&r.DstPort, &r.DstPortSet, it.Value())
		case tagging.FieldSize:
			set(&r.SizeBin, &r.SizeBinSet, it.Value())
		case tagging.FieldFragment:
			r.Fragment = true
		default:
			// Unknown fields never match in a tagging antecedent.
			r.Dead = true
		}
	}
	return r
}

// FromEntries lowers an ACL entry list in order, preserving first-match
// priority and per-entry indices.
func FromEntries(entries []acl.Entry) []Rule {
	out := make([]Rule, len(entries))
	for i := range entries {
		out[i] = FromEntry(&entries[i])
	}
	return out
}
