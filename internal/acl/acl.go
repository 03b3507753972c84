// Package acl turns accepted tagging rules into access control lists:
// per-target entries, their router-style text rendering and FlowSpec
// routes (the deployment output of the IXP Scrubber, usable for
// dropping, shaping, monitoring or re-routing, §5).
package acl

import (
	"fmt"
	"net/netip"
	"strings"

	"github.com/ixp-scrubber/ixpscrubber/internal/tagging"
)

// Action is what a matching entry does with traffic.
type Action string

// Actions supported by the generator.
const (
	ActionDrop    Action = "drop"
	ActionShape   Action = "shape"
	ActionMonitor Action = "monitor"
	ActionReroute Action = "reroute"
)

// Entry is one ACL entry: a tagging rule scoped to an optional target
// prefix (the attacked IP as classified in Step 2).
type Entry struct {
	Rule   tagging.Rule
	Target netip.Prefix // zero value = any destination
	Action Action
}

// ForTargets scopes every accepted rule to each classified target — the
// per-victim ACLs Step 2 classification produces.
func ForTargets(rules []tagging.Rule, targets []netip.Addr, action Action) []Entry {
	var out []Entry
	for _, t := range targets {
		bits := 32
		if t.Is6() && !t.Is4In6() {
			bits = 128
		}
		p := netip.PrefixFrom(t, bits)
		for _, r := range rules {
			if r.Status != tagging.StatusAccept {
				continue
			}
			out = append(out, Entry{Rule: r, Target: p, Action: action})
		}
	}
	return out
}

// RenderText renders entries as a router-style ACL. The dialect is
// Cisco-flavored but intentionally generic; one line per entry plus a
// remark carrying the rule ID and confidence for auditability.
func RenderText(entries []Entry) string {
	var b strings.Builder
	b.WriteString("! IXP Scrubber generated ACL\n")
	for i, e := range entries {
		fmt.Fprintf(&b, "! rule %s confidence %.3f support %.5f\n", e.Rule.ID, e.Rule.Confidence, e.Rule.Support)
		fmt.Fprintf(&b, "access-list 180 %s %s\n", verb(e.Action), clause(i, &e))
	}
	return b.String()
}

func verb(a Action) string {
	switch a {
	case ActionDrop:
		return "deny"
	default:
		return "permit" // shape/monitor/reroute match-and-mark
	}
}

func clause(seq int, e *Entry) string {
	proto := "ip"
	var srcPort, dstPort, size, frag string
	for _, it := range e.Rule.Antecedent {
		switch it.Field() {
		case tagging.FieldProtocol:
			switch it.Value() {
			case 6:
				proto = "tcp"
			case 17:
				proto = "udp"
			case 1:
				proto = "icmp"
			case 47:
				proto = "gre"
			default:
				proto = fmt.Sprintf("%d", it.Value())
			}
		case tagging.FieldSrcPort:
			if it.Value() != tagging.PortOther {
				srcPort = fmt.Sprintf(" eq %d", it.Value())
			}
		case tagging.FieldDstPort:
			if it.Value() != tagging.PortOther {
				dstPort = fmt.Sprintf(" eq %d", it.Value())
			}
		case tagging.FieldSize:
			size = " ! packet-size " + tagging.SizeBinLabel(it.Value())
		case tagging.FieldFragment:
			frag = " fragments"
		}
	}
	dst := "any"
	if e.Target.IsValid() {
		if e.Target.IsSingleIP() {
			dst = "host " + e.Target.Addr().String()
		} else {
			dst = e.Target.String()
		}
	}
	return fmt.Sprintf("%s any%s %s%s%s%s", proto, srcPort, dst, dstPort, frag, size)
}
