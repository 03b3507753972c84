package dropper

import (
	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/tagging"
)

// matches is the reference semantics of one rule: the interpreter calls
// it per rule, and the compiler's lookup tables are equivalence-tested
// against it.
func (r *Rule) matches(rec *netflow.Record) bool {
	if r.Dead {
		return false
	}
	if r.ProtoSet && uint32(rec.Protocol) != r.Proto {
		return false
	}
	if r.SrcPortSet && (rec.Fragment || tagging.PortValue(rec.SrcPort) != r.SrcPort) {
		return false
	}
	if r.DstPortSet && (rec.Fragment || tagging.PortValue(rec.DstPort) != r.DstPort) {
		return false
	}
	if r.SizeBinSet && tagging.SizeBin(rec.MeanPacketSize()) != r.SizeBin {
		return false
	}
	if r.Fragment && !rec.Fragment {
		return false
	}
	if r.Dst.IsValid() && !r.Dst.Contains(rec.DstIP) {
		return false
	}
	if r.Src.IsValid() && !r.Src.Contains(rec.SrcIP) {
		return false
	}
	return true
}

// Interpreter is the naive per-rule reference matcher: a linear
// first-match scan calling Rule.matches. It is deliberately boring — it
// exists so the compiled Program has an independently-reviewable ground
// truth to be equivalence-tested against, and it is what the fuzz and
// property suites compare every compiled program to.
type Interpreter struct {
	rules []Rule
}

// NewInterpreter copies the rules into a reference matcher.
func NewInterpreter(rules []Rule) *Interpreter {
	return &Interpreter{rules: append([]Rule(nil), rules...)}
}

// Match returns the index of the first matching rule, or -1.
func (in *Interpreter) Match(rec *netflow.Record) int {
	for i := range in.rules {
		if in.rules[i].matches(rec) {
			return i
		}
	}
	return -1
}
