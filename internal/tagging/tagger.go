package tagging

import (
	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
)

// Tagger matches flows against a set of accepted rules. It is the flow
// tagging step preserved through aggregation (§5.1) and the basis of both
// the RBC baseline classifier and ACL generation. Every rule's antecedent
// is lowered once to a mask over Class, and rules are pre-indexed by
// protocol, so matching a flow is one ClassOf plus one AND and one compare
// per candidate rule.
type Tagger struct {
	rules []Rule
	// byProto holds, per protocol, the rules whose antecedent pins that
	// protocol, up to the highest protocol any rule pins; anyProt holds
	// the rules that leave it open. A flow's candidates are byProto[its
	// protocol] followed by anyProt. Rules no record can satisfy are in
	// neither.
	byProto [][]candidate
	anyProt []candidate
}

// candidate is one indexed rule: its lowered antecedent and its position
// in Rules().
type candidate struct {
	classMatch
	rule int
}

// NewTagger builds a Tagger over the given rules (typically
// RuleSet.Accepted()).
func NewTagger(rules []Rule) *Tagger {
	t := &Tagger{rules: append([]Rule(nil), rules...)}
	for i := range t.rules {
		m := lowerAntecedent(t.rules[i].Antecedent)
		switch {
		case m == neverMatch: // no record satisfies it: never a candidate
		case m.mask&0xFF != 0:
			p := int(m.want & 0xFF)
			if p >= len(t.byProto) {
				t.byProto = append(t.byProto, make([][]candidate, p+1-len(t.byProto))...)
			}
			t.byProto[p] = append(t.byProto[p], candidate{m, i})
		default:
			t.anyProt = append(t.anyProt, candidate{m, i})
		}
	}
	return t
}

// pinned returns the rules pinning protocol p.
func (t *Tagger) pinned(p uint8) []candidate {
	if int(p) < len(t.byProto) {
		return t.byProto[p]
	}
	return nil
}

// Rules returns the tagger's rules.
func (t *Tagger) Rules() []Rule { return t.rules }

// Match appends the indices (into Rules()) of every rule matching the
// record and returns the slice.
func (t *Tagger) Match(rec *netflow.Record, dst []int) []int {
	c := ClassOf(rec)
	for _, k := range t.pinned(rec.Protocol) {
		if k.matches(c) {
			dst = append(dst, k.rule)
		}
	}
	for _, k := range t.anyProt {
		if k.matches(c) {
			dst = append(dst, k.rule)
		}
	}
	return dst
}

// Matches reports whether any rule matches the record.
func (t *Tagger) Matches(rec *netflow.Record) bool {
	c := ClassOf(rec)
	for _, k := range t.pinned(rec.Protocol) {
		if k.matches(c) {
			return true
		}
	}
	for _, k := range t.anyProt {
		if k.matches(c) {
			return true
		}
	}
	return false
}
